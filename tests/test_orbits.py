import math
from dataclasses import replace

import numpy as np
import pytest

from fello_sim.orbits import (
    EARTH_ROTATION_RAD_S,
    MU_EARTH_KM3_S2,
    SatIndex,
    WalkerConfig,
    all_indices,
    distance,
    ground_station_position,
    positions_at,
    row_of,
)

R_SHELL_KM = 6371.0 + 570.0


def kernel_position(cfg, sat, t):
    return positions_at(cfg, t)[row_of(cfg, sat)]


def close(got, want):
    return np.allclose(got, want, rtol=1e-12, atol=1e-9)


def paper_walker(**overrides):
    kwargs = dict(
        n_orbits=36, sats_per_orbit=20, inclination=math.radians(70.0),
        altitude_km=570.0, phasing_factor="paper_literal",
    )
    kwargs.update(overrides)
    return WalkerConfig(**kwargs)


def test_shell_radius(table1_walker):
    assert table1_walker.orbit_radius_km == pytest.approx(6941.0, abs=0.0)
    assert table1_walker.n_total == 720


def test_config_validation():
    with pytest.raises(ValueError):
        paper_walker(n_orbits=0)
    with pytest.raises(ValueError):
        paper_walker(sats_per_orbit=0)
    with pytest.raises(ValueError):
        paper_walker(inclination=math.pi + 0.1)
    with pytest.raises(ValueError):
        paper_walker(inclination=-0.1)
    with pytest.raises(ValueError):
        paper_walker(altitude_km=0.0)
    with pytest.raises(ValueError):
        paper_walker(phasing_factor="half")
    with pytest.raises(ValueError):
        paper_walker(y_sign=0.5)


def test_index_validation(table1_walker):
    with pytest.raises(IndexError):
        row_of(table1_walker, SatIndex(0, 1))
    with pytest.raises(IndexError):
        row_of(table1_walker, SatIndex(37, 1))
    with pytest.raises(IndexError):
        row_of(table1_walker, SatIndex(1, 21))
    with pytest.raises(IndexError):
        row_of(table1_walker, SatIndex(1, 0))
    assert row_of(table1_walker, SatIndex(1, 1)) == 0
    assert row_of(table1_walker, SatIndex(36, 20)) == 719


def test_initial_anomaly_examples(table1_walker, oracle_position):
    # Plane 1 starts at RAAN 0, so these rows differ only in anomaly.
    # Half-ring phasing: slot step pi/N_S, so (l=1, k=2) sits at pi/20.
    paper = paper_walker()
    assert close(
        kernel_position(paper, SatIndex(1, 2), 0.0),
        oracle_position(paper, 0.0, math.pi / 20.0),
    )
    # Full-ring phasing: plane step 2*pi/(N_S*N_O), so (l=2, k=1) is 2*pi/720
    # on a plane at RAAN 2*pi/36.
    assert close(
        kernel_position(table1_walker, SatIndex(2, 1), 0.0),
        oracle_position(table1_walker, 2.0 * math.pi / 36.0, 2.0 * math.pi / 720.0),
    )
    # (1, 1) sits exactly on the +x axis.
    assert kernel_position(table1_walker, SatIndex(1, 1), 0.0).tolist() == [
        R_SHELL_KM, 0.0, 0.0,
    ]


def test_initial_raan_examples(table1_walker, oracle_position):
    # Slot 1 of plane l starts at anomaly (l-1) c / (N_S N_O).
    assert close(
        kernel_position(table1_walker, SatIndex(19, 1), 0.0),
        oracle_position(table1_walker, math.pi, 18 * 2.0 * math.pi / 720.0),
    )
    paper = paper_walker()
    assert close(
        kernel_position(paper, SatIndex(19, 1), 0.0),
        oracle_position(paper, math.pi / 2.0, 18 * math.pi / 720.0),
    )
    # Plane 1 at RAAN 0: its orbit normal has no x component.
    normal = np.cross(
        kernel_position(table1_walker, SatIndex(1, 1), 0.0),
        kernel_position(table1_walker, SatIndex(1, 2), 0.0),
    )
    assert normal[0] == 0.0 and normal[1] < 0.0


def test_orbit_rate_and_period(table1_walker):
    want = math.sqrt(MU_EARTH_KM3_S2) / R_SHELL_KM**1.5
    assert table1_walker.orbit_rate == pytest.approx(want, rel=0.0)
    assert table1_walker.orbit_rate == pytest.approx(1.0918e-3, rel=1e-4)
    assert table1_walker.orbital_period_s == pytest.approx(5754.98, abs=0.01)


def test_orbit_rate_override():
    frozen = paper_walker(orbit_rate_override=0.0, earth_rotation_rate=0.0)
    sat = SatIndex(3, 7)
    p0 = kernel_position(frozen, sat, 0.0)
    p1 = kernel_position(frozen, sat, 12345.6)
    assert (p0 == p1).all()


def test_angular_state_advances_linearly(table1_walker, oracle_position):
    sat = SatIndex(5, 9)
    t = 321.5
    raan0 = 4 * 2.0 * math.pi / 36.0
    anomaly0 = 8 * 2.0 * math.pi / 20.0 + 4 * 2.0 * math.pi / 720.0
    assert close(
        kernel_position(table1_walker, sat, t),
        oracle_position(
            table1_walker,
            (raan0 + EARTH_ROTATION_RAD_S * t) % (2 * math.pi),
            (anomaly0 + table1_walker.orbit_rate * t) % (2 * math.pi),
        ),
    )


def test_anomaly_periodicity(table1_walker):
    # With the RAAN drift off, one period returns the satellite to its start;
    # the chord over R_S is the anomaly error in radians.
    cfg = replace(table1_walker, earth_rotation_rate=0.0)
    sat = SatIndex(4, 11)
    p0 = kernel_position(cfg, sat, 0.0)
    p1 = kernel_position(cfg, sat, cfg.orbital_period_s)
    assert np.linalg.norm(p1 - p0) / R_SHELL_KM < 1e-9


def test_position_special_geometries():
    # RAAN 0, anomaly 0 puts the satellite on the +x axis.
    cfg = WalkerConfig(n_orbits=1, sats_per_orbit=4, inclination=math.pi / 2,
                       altitude_km=570.0)
    x, y, z = kernel_position(cfg, SatIndex(1, 1), 0.0)
    assert x == pytest.approx(R_SHELL_KM, rel=1e-12)
    assert abs(y) < 1e-9 and abs(z) < 1e-9
    # A quarter turn up a polar orbit lands on the +z axis.
    x, y, z = kernel_position(cfg, SatIndex(1, 2), 0.0)
    assert abs(x) < 1e-9 and abs(y) < 1e-9
    assert z == pytest.approx(R_SHELL_KM, rel=1e-12)


def test_norm_invariant_random(table1_walker):
    rng = np.random.default_rng(7)
    for _ in range(2000):
        sat = SatIndex(int(rng.integers(1, 37)), int(rng.integers(1, 21)))
        t = float(rng.uniform(0.0, 1e5))
        p = kernel_position(table1_walker, sat, t)
        assert abs(math.hypot(*p) / R_SHELL_KM - 1.0) < 1e-9


def test_y_sign_variant_leaves_the_shell(oracle_angles):
    # The printed-variant rotation does not preserve |P| = R_S; the deviation
    # factor is sqrt(1 - sin(2*raan) sin(2*anomaly) cos(i)).
    cfg = paper_walker(y_sign=-1.0)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        sat = SatIndex(int(rng.integers(1, 37)), int(rng.integers(1, 21)))
        t = float(rng.uniform(0.0, 1e5))
        norm = math.hypot(*kernel_position(cfg, sat, t))
        raan, anomaly = oracle_angles(cfg, sat, t)
        want = R_SHELL_KM * math.sqrt(
            1.0 - math.sin(2 * raan) * math.sin(2 * anomaly) * math.cos(cfg.inclination)
        )
        assert norm == pytest.approx(want, rel=1e-9)
        worst = max(worst, abs(norm / R_SHELL_KM - 1.0))
    assert worst > 1e-3


def test_positions_at_matches_scalar_path(table1_walker, oracle_angles, oracle_position):
    for t in (0.0, 777.7, 5000.0):
        block = positions_at(table1_walker, t)
        assert block.shape == (720, 3)
        for row, sat in enumerate(all_indices(table1_walker)):
            want = oracle_position(table1_walker, *oracle_angles(table1_walker, sat, t))
            assert close(block[row], want)


def test_all_indices_order(table1_walker):
    idx = all_indices(table1_walker)
    assert len(idx) == 720
    assert idx[0] == SatIndex(1, 1)
    assert idx[-1] == SatIndex(36, 20)
    assert idx == sorted(idx)


def test_distance_examples(table1_walker):
    # Adjacent in-plane chord 2 R_S sin(pi / N_S).
    want = 2.0 * R_SHELL_KM * math.sin(math.pi / 20.0)
    got = distance(table1_walker, SatIndex(1, 1), SatIndex(1, 2), 0.0)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(2171.5, abs=0.2)
    # Opposite slots of one plane span the full diameter.
    diam = distance(table1_walker, SatIndex(1, 1), SatIndex(1, 11), 0.0)
    assert diam == pytest.approx(2.0 * R_SHELL_KM, rel=1e-9)


def test_distance_symmetry_and_triangle(table1_walker):
    rng = np.random.default_rng(11)
    for _ in range(50):
        sats = [
            SatIndex(int(rng.integers(1, 37)), int(rng.integers(1, 21)))
            for _ in range(3)
        ]
        if len(set(sats)) < 3:
            continue
        t = float(rng.uniform(0.0, 2e4))
        a, b, c = sats
        assert distance(table1_walker, a, b, t) == distance(table1_walker, b, a, t)
        assert distance(table1_walker, a, c, t) <= (
            distance(table1_walker, a, b, t) + distance(table1_walker, b, c, t) + 1e-9
        )


def test_distance_same_satellite_rejected(table1_walker):
    with pytest.raises(ValueError):
        distance(table1_walker, SatIndex(2, 2), SatIndex(2, 2), 0.0)


def test_standard_phasing_spreads_plane_uniformly(table1_walker):
    # Full-ring mode: consecutive slots of one plane sit 2*pi/N_S apart,
    # the last back around to the first.
    step = 2.0 * math.pi / 20.0
    block = positions_at(table1_walker, 0.0)
    for plane in (1, 13, 36):
        ring = [block[row_of(table1_walker, SatIndex(plane, k))] for k in range(1, 21)]
        gaps = [
            math.atan2(np.linalg.norm(np.cross(p, q)), np.dot(p, q))
            for p, q in zip(ring, ring[1:] + ring[:1])
        ]
        assert np.allclose(gaps, step, atol=1e-9)


def test_ground_station_examples():
    p = ground_station_position(0.0, 0.0)
    assert p == pytest.approx((6371.0, 0.0, 0.0))
    x, y, z = ground_station_position(math.pi / 2, 0.0)
    assert z == pytest.approx(6371.0, rel=1e-12)
    assert abs(x) < 1e-9 and abs(y) < 1e-9
    x, _, z = ground_station_position(math.pi / 4, 0.0)
    assert x == pytest.approx(6371.0 / math.sqrt(2.0), rel=1e-12)
    assert z == pytest.approx(6371.0 / math.sqrt(2.0), rel=1e-12)
    with pytest.raises(ValueError):
        ground_station_position(2.0, 0.0)
