import math
from dataclasses import replace

import numpy as np
import pytest

from fello_sim import lesc, overhead
from fello_sim.config import ConfigError, ScenarioConfig, validate_config
from fello_sim.datasets import synthetic_split
from fello_sim.fl_engine import (
    ClientState,
    CorruptionSpec,
    TrainConfig,
    aggregate,
    evaluate,
    init_model,
    partition_data,
    train_local,
)
from fello_sim.lesc import (
    LescConfig,
    RoundLinks,
    cluster,
    ground_view,
    membership_schedule,
    prune_clients,
    recluster_due,
    round_interval,
    run_fello,
    select_edge,
)
from fello_sim.optical_link import evaluate_link, peak_snr
from fello_sim.orbits import (
    SatIndex,
    WalkerConfig,
    all_indices,
    ground_station_position,
    positions_at,
    row_of,
)
from fello_sim.seeding import Substreams

GS_EQUATOR = ground_station_position(0.0, 0.0)


def static_walker(n_orbits=1, sats_per_orbit=3, **overrides):
    kwargs = dict(
        n_orbits=n_orbits, sats_per_orbit=sats_per_orbit,
        inclination=math.radians(70.0), altitude_km=570.0,
        phasing_factor="paper_literal", orbit_rate_override=0.0,
        earth_rotation_rate=0.0,
    )
    kwargs.update(overrides)
    return WalkerConfig(**kwargs)


def tiny_train_setup(seed=7):
    train, test = synthetic_split(3, 6, 60, 20, np.random.default_rng(99), spread=0.1)
    cfg = TrainConfig(learning_rate=0.1, local_epochs=2, batch_size=16, hidden_size=6)
    return train, test, cfg, Substreams(seed)


def test_lesc_config_validation():
    with pytest.raises(ValueError):
        LescConfig(threshold_mode="rssi")
    with pytest.raises(ValueError):
        LescConfig(delta_d_km=0.0)
    with pytest.raises(ValueError):
        LescConfig(recluster_period=0.5)
    with pytest.raises(ValueError):
        LescConfig(recluster_period=0.0)
    with pytest.raises(ValueError):
        LescConfig(recluster_fraction=0.0)
    with pytest.raises(ValueError):
        LescConfig(recluster_fraction=1.5)
    with pytest.raises(ValueError):
        LescConfig(rounds=0)
    with pytest.raises(ValueError):
        LescConfig(min_elevation=math.pi / 2)
    with pytest.raises(ValueError):
        LescConfig(snr_units="dBm")
    with pytest.raises(ValueError):
        LescConfig(round_time_s=0.0)
    # A negative linear threshold lets every satellite clear it.
    with pytest.raises(ValueError, match="delta_gamma must be >= 0"):
        LescConfig(snr_units="linear", delta_gamma=-1.0)
    with pytest.raises(ValueError, match="gsl_snr_threshold must be >= 0"):
        LescConfig(snr_units="linear", gsl_snr_threshold=-3.0)
    with pytest.raises(ConfigError, match=r"^\[lesc\] gsl_snr_threshold must be >= 0"):
        validate_config(replace(ScenarioConfig(), lesc_snr_units="linear",
                                lesc_gsl_snr_threshold=-3.0))
    LescConfig(snr_units="linear", delta_gamma=0.0, gsl_snr_threshold=0.0)
    LescConfig(delta_gamma=-1.0, gsl_snr_threshold=-3.0)  # dB below 0 is a linear ratio below 1
    assert math.isinf(LescConfig(recluster_period=math.inf).recluster_period)


def test_snr_unit_conversion():
    assert LescConfig(delta_gamma=20.0).delta_gamma_linear == pytest.approx(100.0)
    assert LescConfig(
        delta_gamma=250.0, snr_units="linear"
    ).delta_gamma_linear == 250.0
    assert LescConfig(gsl_snr_threshold=30.0).gsl_threshold_linear == pytest.approx(1000.0)


def nearest_edge(walker, block, min_elevation=math.radians(10.0), gs=GS_EQUATOR):
    """select_edge over the ground view of one positions_at block."""
    dists, elevations = ground_view(gs, block)
    return select_edge(walker, dists, elevations >= min_elevation)


def gsl_snr_and_elevation(walker, optics, sat, t, cfg):
    """The GSL SNR and elevation of sat at t, as the schedule reads them."""
    dists, elevations = ground_view(GS_EQUATOR, positions_at(walker, t))
    row = row_of(walker, sat)
    above = elevations[row] >= cfg.min_elevation
    return (peak_snr(optics, float(dists[row])) if above else 0.0), float(elevations[row])


def test_gsl_zenith(table1_walker, table1_optics):
    gamma, elevation = gsl_snr_and_elevation(
        table1_walker, table1_optics, SatIndex(1, 1), 0.0, LescConfig()
    )
    assert elevation == pytest.approx(math.pi / 2, abs=1e-9)
    assert gamma > 1e6  # 570 km at zero pointing error is a strong link


def test_gsl_below_horizon(table1_walker, table1_optics):
    # Slot 11 starts on the far side of the shell.
    gamma, elevation = gsl_snr_and_elevation(
        table1_walker, table1_optics, SatIndex(1, 11), 0.0, LescConfig()
    )
    assert gamma == 0.0
    assert elevation == pytest.approx(-math.pi / 2, abs=1e-6)


def test_gsl_elevation_against_scalar_geometry(table1_walker):
    rng = np.random.default_rng(5)
    for _ in range(100):
        sat = SatIndex(int(rng.integers(1, 37)), int(rng.integers(1, 21)))
        t = float(rng.uniform(0.0, 6000.0))
        lat = float(rng.uniform(-math.pi / 3, math.pi / 3))
        lon = float(rng.uniform(-math.pi, math.pi))
        gs = ground_station_position(lat, lon)
        block = positions_at(table1_walker, t)
        dists, elevations = ground_view(gs, block)
        row = row_of(table1_walker, sat)
        rel = block[row] - gs
        assert dists[row] == pytest.approx(math.dist(block[row], gs), rel=1e-12)
        want = math.pi / 2 - math.acos(
            float(np.dot(gs, rel))
            / (np.linalg.norm(gs) * np.linalg.norm(rel))
        )
        assert elevations[row] == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("sat, t", [(SatIndex(33, 19), 300.0), (SatIndex(5, 19), 0.0)])
def test_elevation_directly_under_a_satellite(sat, t):
    # On the default shell, up.rel/|rel| rounds above 1 for a ground station
    # under these satellites: asin raised, and arcsin's NaN hid the satellite.
    cfg = ScenarioConfig()
    walker = cfg.walker()
    block = positions_at(walker, t)
    p = block[row_of(walker, sat)]
    gs = ground_station_position(
        math.asin(p[2] / np.linalg.norm(p)), math.atan2(p[1], p[0]), walker.earth_radius_km
    )
    _, elevations = ground_view(gs, block)
    assert elevations[row_of(walker, sat)] == pytest.approx(math.pi / 2, abs=1e-6)
    assert nearest_edge(walker, block, gs=gs) == sat


def test_select_edge_is_nearest_visible(table1_walker):
    for t in (0.0, 432.1, 3000.0):
        block = positions_at(table1_walker, t)
        got = nearest_edge(table1_walker, block)
        best, best_d = None, math.inf
        for row, sat in enumerate(all_indices(table1_walker)):
            rel = block[row] - GS_EQUATOR
            d = float(np.linalg.norm(rel))
            elevation = math.asin(float(np.dot(GS_EQUATOR, rel)) / (6371.0 * d))
            if elevation >= math.radians(10.0) and d < best_d:
                best, best_d = sat, d
        assert got == best


def test_select_edge_tie_breaks_to_lowest_index():
    # Two coincident satellites: planes 0 and pi of an equatorial 2x1 shell.
    cfg = WalkerConfig(n_orbits=2, sats_per_orbit=1, inclination=0.0,
                       altitude_km=570.0)
    assert nearest_edge(cfg, positions_at(cfg, 0.0), 0.0) == SatIndex(1, 1)


def test_polar_ground_station_sees_no_satellite(table1_walker, table1_optics, caplog):
    # From a pole, a 70-degree shell never clears a 10-degree mask.
    polar_gs = ground_station_position(math.pi / 2, 0.0)
    _, elevations = ground_view(polar_gs, positions_at(table1_walker, 0.0))
    assert not (elevations >= math.radians(10.0)).any()
    cfg = LescConfig(rounds=3, round_time_s=60.0, gs_lat=math.pi / 2)
    with caplog.at_level("WARNING", logger="fello_sim"):
        recs = schedule(cfg, table1_walker, table1_optics, 0)
    for rec in recs:
        assert rec.coverage_failed and not rec.handover
        assert (rec.edge, rec.members, rec.links) == (None, (), None)
    assert [r.getMessage() for r in caplog.records] == [
        f"round {a}: no coverage, retrying next round" for a in (1, 2, 3)
    ]


def test_cluster_nesting_and_bounds(table1_walker, table1_optics):
    t = 60.0
    block = positions_at(table1_walker, t)
    edge = nearest_edge(table1_walker, block)
    links = RoundLinks(table1_optics, table1_walker, 1, edge, block, Substreams(0))
    sizes = {}
    previous = None
    for delta in (1500.0, 2200.0, 2600.0, 3000.0):
        cfg = LescConfig(delta_d_km=delta)
        members = cluster(edge, table1_walker, cfg, links)
        assert edge not in members
        assert list(members) == sorted(members)
        if previous is not None:
            assert set(previous) <= set(members)
        previous = members
        sizes[delta] = len(members)
    assert sizes[1500.0] < sizes[2200.0] < sizes[3000.0]
    assert 12 <= sizes[2600.0] <= 24
    for sat in cluster(edge, table1_walker, LescConfig(delta_d_km=2600.0), links):
        assert links.distance_km(sat) < 2600.0


def test_cluster_snr_mode_extremes(table1_walker, table1_optics):
    t = 60.0
    block = positions_at(table1_walker, t)
    edge = nearest_edge(table1_walker, block)
    links = RoundLinks(table1_optics, table1_walker, 1, edge, block, Substreams(0))
    all_in = cluster(
        edge, table1_walker,
        LescConfig(threshold_mode="snr", delta_gamma=0.0, snr_units="linear"),
        links,
    )
    assert len(all_in) == 719
    none_in = cluster(
        edge, table1_walker,
        LescConfig(threshold_mode="snr", delta_gamma=1e15, snr_units="linear"),
        links,
    )
    assert none_in == ()


def reference_snr_cluster(edge, walker, cfg, links):
    """SNR clustering as a draw of every one of the non-edge links."""
    return tuple(
        sat for sat in all_indices(walker)
        if sat != edge and links.sample(sat).snr_linear > cfg.delta_gamma_linear
    )


@pytest.mark.parametrize(
    "t, round_index, seed, snr_mode, pointing_sd_rad",
    [
        (60.0, 1, 0, "paper", 3e-6),
        (1234.5, 7, 11, "paper", 3e-6),
        (600.0, 3, 5, "electrical", 3e-6),
        (3000.0, 40, 2, "electrical", 1e-5),
        # Near-zero jitter puts every draw within 1e-12 of its peak.
        (60.0, 2, 9, "paper", 1e-12),
        (900.0, 4, 3, "electrical", 1e-12),
    ],
)
def test_cluster_snr_equals_drawing_every_link(
    table1_walker, table1_optics, t, round_index, seed, snr_mode, pointing_sd_rad
):
    isl = replace(table1_optics, snr_mode=snr_mode, pointing_sd_rad=pointing_sd_rad)
    block = positions_at(table1_walker, t)
    edge = nearest_edge(table1_walker, block)

    def fresh_links():
        return RoundLinks(isl, table1_walker, round_index, edge, block, Substreams(seed))

    drawn = fresh_links()
    snrs = {
        sat: drawn.sample(sat).snr_linear
        for sat in all_indices(table1_walker) if sat != edge
    }
    best = max(snrs, key=snrs.get)
    best_peak = peak_snr(isl, drawn.distance_km(best))
    thresholds = [float(np.quantile(list(snrs.values()), q)) for q in (0.5, 0.95, 0.99)]
    # Just below and just above one satellite's zero-pointing-error SNR.
    thresholds += [best_peak * (1.0 - 1e-12), best_peak * (1.0 + 1e-12)]
    for threshold in thresholds:
        cfg = LescConfig(threshold_mode="snr", delta_gamma=threshold, snr_units="linear")
        want = reference_snr_cluster(edge, table1_walker, cfg, fresh_links())
        assert cluster(edge, table1_walker, cfg, fresh_links()) == want
    # The last threshold sits just above best's peak, which no draw beats.
    assert best not in want
    if pointing_sd_rad < 1e-9:
        just_below = LescConfig(
            threshold_mode="snr", delta_gamma=best_peak * (1.0 - 1e-12),
            snr_units="linear",
        )
        assert best in cluster(edge, table1_walker, just_below, fresh_links())


def test_cluster_snr_draws_only_links_whose_peak_clears_the_threshold(
    monkeypatch, table1_walker, table1_optics
):
    drawn = []

    def counting_evaluate_link(p, distance_km, rng):
        drawn.append(distance_km)
        return evaluate_link(p, distance_km, rng)

    monkeypatch.setattr(lesc, "evaluate_link", counting_evaluate_link)
    block = positions_at(table1_walker, 60.0)
    edge = nearest_edge(table1_walker, block)
    links = RoundLinks(table1_optics, table1_walker, 1, edge, block, Substreams(0))
    cfg = LescConfig(threshold_mode="snr", delta_gamma=44.0)
    members = cluster(edge, table1_walker, cfg, links)
    able = [
        sat for sat in all_indices(table1_walker)
        if sat != edge
        and peak_snr(table1_optics, links.distance_km(sat)) >= cfg.delta_gamma_linear
    ]
    assert sorted(drawn) == sorted(links.distance_km(sat) for sat in able)
    assert set(members) <= set(able)
    # 291 of the 719 links can clear 44 dB here; the rest are never drawn.
    assert 0 < len(members) < len(able) < 719 // 2


def test_round_links_cache_one_draw(table1_walker, table1_optics):
    links = RoundLinks(table1_optics, table1_walker, 2, SatIndex(1, 1),
                       positions_at(table1_walker, 60.0), Substreams(3))
    sat = SatIndex(1, 2)
    assert links.sample(sat) is links.sample(sat)
    # Same keyed draw regardless of construction order.
    again = RoundLinks(table1_optics, table1_walker, 2, SatIndex(1, 1),
                       positions_at(table1_walker, 60.0), Substreams(3))
    again.sample(SatIndex(5, 5))
    assert again.sample(sat) == links.sample(sat)
    with pytest.raises(ValueError):
        links.sample(SatIndex(1, 1))


def test_prune_matches_reference_filter(table1_walker, table1_optics):
    t = 180.0
    block = positions_at(table1_walker, t)
    edge = nearest_edge(table1_walker, block)
    links = RoundLinks(table1_optics, table1_walker, 3, edge, block, Substreams(1))
    rng = np.random.default_rng(8)
    population = [s for s in all_indices(table1_walker) if s != edge]
    for mode, cfg in (
        ("distance", LescConfig(delta_d_km=2400.0)),
        ("snr", LescConfig(threshold_mode="snr", delta_gamma=44.0)),
    ):
        for _ in range(5):
            picks = rng.choice(len(population), size=40, replace=False)
            clients = tuple(population[i] for i in sorted(picks))
            got = prune_clients(clients, cfg, links)
            if mode == "distance":
                want = tuple(s for s in clients
                             if not links.distance_km(s) > cfg.delta_d_km)
            else:
                want = tuple(
                    s for s in clients
                    if not links.sample(s).snr_linear < cfg.delta_gamma_linear
                )
            assert got == want
            # the 44 dB threshold must actually split the population
            if mode == "snr":
                assert 0 < len(got) < len(clients)


def test_recluster_due_reference_predicate():
    rng = np.random.default_rng(2)
    for _ in range(200):
        k_prime = int(rng.integers(1, 40))
        k_a = int(rng.integers(0, 40))
        a = int(rng.integers(1, 50))
        period = float(rng.choice([1.0, 2.0, 4.0, math.inf]))
        eps = float(rng.uniform(0.1, 1.0))
        cfg = LescConfig(recluster_period=period, recluster_fraction=eps)
        want = (
            not math.isinf(period)
            and k_a < eps * k_prime
            and a % int(period) == 0
        )
        assert recluster_due(k_a, k_prime, a, cfg) == want
    # Spec-point checks: 13 of 20 at eps=0.7 fires on an eligible round.
    cfg = LescConfig(recluster_period=2.0, recluster_fraction=0.7)
    assert recluster_due(13, 20, 4, cfg)
    assert not recluster_due(14, 20, 4, cfg)
    assert not recluster_due(13, 20, 3, cfg)
    assert not recluster_due(13, 20, 4, LescConfig(recluster_period=math.inf))
    assert not recluster_due(0, 0, 4, cfg)


def schedule(cfg, walker, optics, seed):
    return membership_schedule(cfg, walker, optics, optics, Substreams(seed), 2)


def assert_fresh_cluster(rec, walker, cfg):
    """The record selected the nearest visible edge and clustered around it."""
    block = positions_at(walker, rec.t)
    assert rec.edge == nearest_edge(walker, block, cfg.min_elevation)
    assert rec.links.edge == rec.edge
    assert rec.edge not in rec.members
    assert rec.members == cluster(rec.edge, walker, cfg, rec.links)
    assert not rec.reclustered


def test_schedule_hands_over_when_gsl_snr_drops(table1_walker, table1_optics):
    cfg = LescConfig(delta_d_km=2600.0, rounds=12, round_time_s=120.0,
                     gsl_snr_threshold=20.0)
    recs = schedule(cfg, table1_walker, table1_optics, 6)
    assert_fresh_cluster(recs[0], table1_walker, cfg)
    assert not recs[0].handover
    for prev, cur in zip(recs, recs[1:]):
        gamma, _ = gsl_snr_and_elevation(table1_walker, table1_optics, prev.edge, cur.t, cfg)
        assert cur.handover == (gamma < cfg.gsl_threshold_linear)
        if cur.handover:
            assert_fresh_cluster(cur, table1_walker, cfg)
            assert cur.admitted == tuple(s for s in cur.members if s not in prev.members)
        else:
            assert cur.edge == prev.edge and cur.links.edge == prev.edge
    assert 0 < sum(r.handover for r in recs) < len(recs) - 1


def test_schedule_never_hands_over_at_zero_gsl_threshold(table1_walker, table1_optics):
    cfg = LescConfig(delta_d_km=2600.0, rounds=12, round_time_s=120.0,
                     gsl_snr_threshold=0.0, snr_units="linear")
    recs = schedule(cfg, table1_walker, table1_optics, 6)
    assert not any(r.handover for r in recs)
    assert {r.edge for r in recs} == {recs[0].edge}
    assert all(r.links.edge == recs[0].edge for r in recs)
    # The edge sets far below the horizon and is still kept.
    _, elevation = gsl_snr_and_elevation(
        table1_walker, table1_optics, recs[0].edge, recs[-1].t, cfg
    )
    assert elevation < -math.radians(30.0)


def test_schedule_reselects_every_round_at_huge_gsl_threshold(
    monkeypatch, table1_walker, table1_optics
):
    # Even an edge at zenith fails a 1e15 threshold, so every round re-selects.
    cfg = LescConfig(delta_d_km=2600.0, rounds=6, round_time_s=60.0,
                     recluster_period=1.0, recluster_fraction=1.0,
                     gsl_snr_threshold=1e15, snr_units="linear")
    checked = []
    monkeypatch.setattr(lesc, "recluster_due", lambda *args: checked.append(args))
    recs = schedule(cfg, table1_walker, table1_optics, 6)
    assert [r.handover for r in recs] == [False] + [True] * 5
    previous = ()
    for rec in recs:
        assert_fresh_cluster(rec, table1_walker, cfg)
        assert rec.admitted == tuple(s for s in rec.members if s not in previous)
        previous = rec.members
    # Every round's cluster is fresh, so none is pruned or checked for attrition.
    assert checked == []


def test_schedule_coverage_gaps_keep_the_last_cluster(caplog):
    # The coverage golden's shell: gaps before the first edge and after handovers.
    cfg = replace(
        ScenarioConfig(), n_orbits=5, sats_per_orbit=5, lesc_delta_d_km=8000.0,
        lesc_round_time_s=300.0, lesc_rounds=16,
    )
    with caplog.at_level("WARNING", logger="fello_sim"):
        recs = membership_schedule(
            cfg.lesc(), cfg.walker(), cfg.isl_optics(), cfg.gsl_optics(), Substreams(5), 2
        )
    first = next(i for i, r in enumerate(recs) if not r.coverage_failed)
    assert first > 0
    for rec in recs[:first]:
        assert rec.coverage_failed and not rec.handover and not rec.reclustered
        assert (rec.edge, rec.members, rec.admitted, rec.links) == (None, (), (), None)
    assert recs[first].admitted == recs[first].members
    later_gaps = [(p, r) for p, r in zip(recs[first:], recs[first + 1:]) if r.coverage_failed]
    assert later_gaps
    for prev, rec in later_gaps:
        assert (rec.edge, rec.members) == (prev.edge, prev.members)
        assert rec.admitted == () and rec.links is None
        assert not rec.handover and not rec.reclustered
    messages = [r.getMessage() for r in caplog.records]
    assert messages == [
        f"round {r.round_index}: no coverage, retrying next round"
        if i < first else f"round {r.round_index}: handover found no coverage, retrying"
        for i, r in enumerate(recs) if r.coverage_failed
    ]


def test_api_edges_validate_indices(table1_walker, table1_optics):
    block = positions_at(table1_walker, 0.0)
    with pytest.raises(IndexError):
        RoundLinks(table1_optics, table1_walker, 1, SatIndex(1, 21), block, Substreams(0))


def test_membership_schedule_one_geometry_evaluation_per_round(monkeypatch):
    # The distance_awgn golden's shell: handovers, re-clusterings and a gap.
    cfg = replace(
        ScenarioConfig(), n_orbits=6, sats_per_orbit=8, lesc_delta_d_km=6000.0,
        lesc_round_time_s=200.0, lesc_rounds=16,
    )
    times, views = [], []

    def counting_positions_at(walker, t):
        times.append(t)
        return positions_at(walker, t)

    def counting_ground_view(gs, positions):
        views.append(positions)
        return ground_view(gs, positions)

    monkeypatch.setattr(lesc, "positions_at", counting_positions_at)
    monkeypatch.setattr(lesc, "ground_view", counting_ground_view)
    recs = membership_schedule(
        cfg.lesc(), cfg.walker(), cfg.isl_optics(), cfg.gsl_optics(), Substreams(5), 2
    )
    assert any(r.handover for r in recs) and any(r.coverage_failed for r in recs)
    assert times == [r.t for r in recs]
    assert len(times) == cfg.lesc_rounds
    # One ground view per round, of that round's positions.
    assert len(views) == cfg.lesc_rounds
    assert all(np.array_equal(v, positions_at(cfg.walker(), t)) for v, t in zip(views, times))


def test_round_interval():
    assert round_interval(LescConfig(round_time_s=60.0), 2) == 60.0
    assert round_interval(LescConfig(), 2) == pytest.approx(0.059051, abs=1e-12)
    assert round_interval(LescConfig(), 1) == pytest.approx(0.029671, abs=1e-12)


def test_membership_schedule_invariants(table1_walker, table1_optics):
    cfg = LescConfig(delta_d_km=2600.0, rounds=12, round_time_s=60.0,
                     recluster_period=2.0)
    recs = membership_schedule(
        cfg, table1_walker, table1_optics, table1_optics, Substreams(11), 2
    )
    assert [r.round_index for r in recs] == list(range(1, 13))
    for rec in recs:
        assert not rec.coverage_failed
        assert rec.t == pytest.approx(60.0 * rec.round_index)
        assert rec.edge not in rec.members
        assert list(rec.members) == sorted(rec.members)
        assert set(rec.admitted) <= set(rec.members)
        for sat in rec.members:
            assert rec.links.distance_km(sat) <= cfg.delta_d_km
        for sat in rec.admitted:
            assert rec.links.distance_km(sat) < cfg.delta_d_km


def test_membership_schedule_replay(monkeypatch, table1_walker, table1_optics):
    replay_schedule(monkeypatch, table1_walker, table1_optics, 1.0, 0.7)


@pytest.mark.parametrize("period, fraction", [(2.0, 0.9), (math.inf, 0.7)])
def test_membership_schedule_replay_across_periods(
    monkeypatch, table1_walker, table1_optics, period, fraction
):
    replay_schedule(monkeypatch, table1_walker, table1_optics, period, fraction)


def replay_schedule(monkeypatch, table1_walker, table1_optics, period, fraction):
    # Replay the prune / re-cluster / handover bookkeeping from the records,
    # including the baseline that each re-clustering check is given.
    cfg = LescConfig(delta_d_km=2200.0, rounds=20, round_time_s=60.0,
                     recluster_period=period, recluster_fraction=fraction,
                     gsl_snr_threshold=20.0)
    checked = []

    def recording_recluster_due(cluster_size, baseline_size, round_index, cfg):
        checked.append((round_index, cluster_size, baseline_size))
        return recluster_due(cluster_size, baseline_size, round_index, cfg)

    monkeypatch.setattr(lesc, "recluster_due", recording_recluster_due)
    recs = schedule(cfg, table1_walker, table1_optics, 12)
    baseline = len(recs[0].members)
    want_checks = []
    for prev, cur in zip(recs, recs[1:]):
        assert cur.admitted == tuple(
            s for s in cur.members if s not in set(prev.members)
        )
        if cur.handover:
            # the new edge's cluster resets the baseline
            assert cur.members == cluster(cur.edge, table1_walker, cfg, cur.links)
            baseline = len(cur.members)
            continue
        assert cur.edge == prev.edge
        pruned = tuple(
            s for s in prev.members
            if not cur.links.distance_km(s) > cfg.delta_d_km
        )
        want_checks.append((cur.round_index, len(pruned), baseline))
        expected = recluster_due(len(pruned), baseline, cur.round_index, cfg)
        assert cur.reclustered == expected
        if expected:
            assert cur.members == cluster(cur.edge, table1_walker, cfg, cur.links)
            baseline = len(cur.members)
        else:
            # not due: the pruned cluster stands, unchanged when nobody left
            assert cur.members == pruned
    assert checked == want_checks
    assert any(r.handover for r in recs)
    assert any(len(r.members) < len(p.members) and not r.handover and not r.reclustered
               for p, r in zip(recs, recs[1:]))
    assert any(r.reclustered for r in recs) == (not math.isinf(period))


def test_membership_schedule_deterministic(table1_walker, table1_optics):
    cfg = LescConfig(delta_d_km=2600.0, rounds=6, round_time_s=60.0)
    a = membership_schedule(cfg, table1_walker, table1_optics, table1_optics,
                            Substreams(13), 2)
    b = membership_schedule(cfg, table1_walker, table1_optics, table1_optics,
                            Substreams(13), 2)
    for ra, rb in zip(a, b):
        assert (ra.edge, ra.members, ra.admitted, ra.reclustered, ra.handover) == (
            rb.edge, rb.members, rb.admitted, rb.reclustered, rb.handover
        )


def test_run_fello_single_client_equals_train_local(table1_optics, on_plan):
    walker = static_walker(1, 3)
    train, test, tc, streams = tiny_train_setup()
    # Only the in-plane neighbour (6941 km) clears a 7000 km threshold.
    cfg = LescConfig(delta_d_km=7000.0, rounds=2, round_time_s=30.0,
                     gsl_snr_threshold=0.0, snr_units="linear")
    logs = on_plan(run_fello, cfg, walker, table1_optics, tc, train, test, 40, streams,
                   CorruptionSpec(kind="none"))
    assert [log.cluster_size for log in logs] == [1, 1]
    assert logs[0].edge == SatIndex(1, 1)

    ref = Substreams(streams.master_seed)
    sat = SatIndex(1, 2)
    w = init_model(train.n_features, tc.hidden_size, train.n_classes,
                   ref.derive("init"), dtype=train.dtype)
    shard = partition_data(train, [sat], 40, ref.derive("shard", 1))[sat]
    client = ClientState(shard=shard)
    for a, log in zip((1, 2), logs):
        local = train_local(client, w, tc, ref.derive("train", a, sat.plane, sat.slot))
        w = aggregate([(local, 40)])
        accuracy, loss = evaluate(w, test)
        assert log.accuracy == accuracy
        assert log.global_loss == loss
        assert not log.reclustered and not log.handover


def test_run_fello_matches_reference_fedavg(table1_optics, on_plan):
    walker = static_walker(1, 5)
    train, test, tc, streams = tiny_train_setup(seed=21)
    cfg = LescConfig(delta_d_km=9000.0, rounds=3, round_time_s=30.0,
                     gsl_snr_threshold=0.0, snr_units="linear")
    logs = on_plan(run_fello, cfg, walker, table1_optics, tc, train, test, 30, streams,
                   CorruptionSpec(kind="none"))
    members = (SatIndex(1, 2), SatIndex(1, 3))
    assert [log.cluster_size for log in logs] == [2, 2, 2]

    ref = Substreams(streams.master_seed)
    w = init_model(train.n_features, tc.hidden_size, train.n_classes,
                   ref.derive("init"), dtype=train.dtype)
    shards = partition_data(train, list(members), 30, ref.derive("shard", 1))
    states = {s: ClientState(shard=shards[s]) for s in members}
    for a, log in zip((1, 2, 3), logs):
        uploads = []
        for s in members:
            local = train_local(states[s], w, tc,
                                ref.derive("train", a, s.plane, s.slot))
            uploads.append((local, 30))
        w = aggregate(uploads)
        accuracy, loss = evaluate(w, test)
        assert log.accuracy == accuracy
        assert log.global_loss == loss


def test_run_fello_fixed_total_denominator(table1_optics, on_plan):
    walker = static_walker(1, 3)
    train, test, tc, streams = tiny_train_setup(seed=31)
    cfg = LescConfig(delta_d_km=7000.0, rounds=1, round_time_s=30.0,
                     gsl_snr_threshold=0.0, snr_units="linear")
    logs = on_plan(run_fello, cfg, walker, table1_optics, tc, train, test, 40, streams,
                   CorruptionSpec(kind="none"), fixed_total=80)
    ref = Substreams(streams.master_seed)
    sat = SatIndex(1, 2)
    w0 = init_model(train.n_features, tc.hidden_size, train.n_classes,
                    ref.derive("init"), dtype=train.dtype)
    shard = partition_data(train, [sat], 40, ref.derive("shard", 1))[sat]
    local = train_local(ClientState(shard=shard), w0, tc,
                        ref.derive("train", 1, 1, 2))
    halved = aggregate([(local, 40)], total_samples=80)
    accuracy, loss = evaluate(halved, test)
    assert logs[0].accuracy == accuracy
    assert logs[0].global_loss == loss


def test_run_fello_corruption_is_seeded(table1_optics, on_plan):
    walker = static_walker(1, 3)
    train, test, tc, _ = tiny_train_setup(seed=51)
    cfg = LescConfig(delta_d_km=7000.0, rounds=2, round_time_s=30.0,
                     gsl_snr_threshold=0.0, snr_units="linear")
    spec = CorruptionSpec(kind="awgn", awgn_scale=50.0)
    a = on_plan(run_fello, cfg, walker, table1_optics, tc, train, test, 40, Substreams(51),
                spec)
    b = on_plan(run_fello, cfg, walker, table1_optics, tc, train, test, 40, Substreams(51),
                spec)
    assert a == b
    clean = on_plan(run_fello, cfg, walker, table1_optics, tc, train, test, 40,
                    Substreams(51), CorruptionSpec(kind="none"))
    assert clean != a


def test_run_fello_empty_cluster(table1_optics, on_plan):
    walker = static_walker(1, 3)
    train, test, tc, streams = tiny_train_setup(seed=61)
    cfg = LescConfig(delta_d_km=1.0, rounds=3, round_time_s=30.0,
                     gsl_snr_threshold=0.0, snr_units="linear")
    logs = on_plan(run_fello, cfg, walker, table1_optics, tc, train, test, 40, streams,
                   CorruptionSpec(kind="none"))
    assert [log.cluster_size for log in logs] == [0, 0, 0]
    assert logs[0].accuracy == logs[1].accuracy == logs[2].accuracy
    assert math.isnan(logs[0].mean_link_snr_db)


def test_round_plan_pairs_the_schedule_with_its_shards(monkeypatch):
    # The coverage golden's shell: gaps, admissions and rounds that admit nobody.
    cfg = replace(
        ScenarioConfig(), n_orbits=5, sats_per_orbit=5, lesc_delta_d_km=8000.0,
        lesc_round_time_s=300.0, lesc_rounds=16,
    )
    train, _, _, streams = tiny_train_setup(seed=71)
    drawn_for = []

    def counting_partition_data(full, clients, samples_per_client, rng):
        drawn_for.append(list(clients))
        return partition_data(full, clients, samples_per_client, rng)

    monkeypatch.setattr(lesc, "partition_data", counting_partition_data)
    shell = (cfg.lesc(), cfg.walker(), cfg.isl_optics(), cfg.gsl_optics())
    plan = lesc.round_plan(*shell, train, 20, streams, 2)
    schedule = membership_schedule(*shell, streams, 2)

    assert len(plan) == len(schedule) == cfg.lesc_rounds
    ref = Substreams(streams.master_seed)
    for (rec, shards), want in zip(plan, schedule):
        assert replace(rec, links=None) == replace(want, links=None)
        assert (rec.links is None) == (want.links is None)
        assert list(shards) == list(rec.admitted)
        if rec.admitted:
            draw = partition_data(
                train, list(rec.admitted), 20, ref.derive("shard", rec.round_index)
            )
            for sat in rec.admitted:
                np.testing.assert_array_equal(shards[sat].rows, draw[sat].rows)
    assert drawn_for == [list(rec.admitted) for rec, _ in plan if rec.admitted]
    assert any(rec.coverage_failed for rec, _ in plan)
    assert any(not rec.coverage_failed and not rec.admitted for rec, _ in plan)


def test_run_rounds_admits_steps_scores_and_charges_delay(monkeypatch):
    train, test, _, streams = tiny_train_setup(seed=71)
    a, b, c = SatIndex(1, 1), SatIndex(1, 2), SatIndex(1, 3)
    ref = Substreams(streams.master_seed)

    def planned(round_index, members, admitted, gap=False):
        rec = lesc.MembershipRound(round_index, 60.0 * round_index, SatIndex(2, 1),
                                   members, admitted, False, False, gap, None)
        shards = {}
        if admitted:
            shard_rng = ref.derive("shard", round_index)
            shards = partition_data(train, list(admitted), 20, shard_rng)
        return rec, shards

    plan = [
        planned(1, (), (), gap=True),  # a gap before any step scores the initial models
        planned(2, (a, b), (a, b)),
        planned(3, (b, c), (c,)),  # evicts a, admits c and sends over no link
        planned(4, (b, c), (), gap=True),
        planned(5, (), ()),  # an empty cluster still steps, but nobody trains or sends
    ]
    admitted, stepped, scored = {}, [], []

    def admit(sat, shard, round_index):
        admitted[(sat, round_index)] = shard
        return shard

    def step(r, clients, models):
        assert set(clients) == set(r.members)
        stepped.append(r.round_index)
        snrs = [1.0, 4.0] if r.round_index == 2 else []
        return [float(r.round_index), 10.0 * r.round_index], snrs

    def fake_evaluate(model, test_set):
        scored.append(model)
        return model, -model

    monkeypatch.setattr(lesc, "evaluate", fake_evaluate)
    logs = lesc.run_rounds("fello", plan, [7.0], admit, step, test, local_epochs=2)

    assert stepped == [2, 3, 5]
    assert scored == [7.0, 2.0, 20.0, 3.0, 30.0, 3.0, 30.0, 5.0, 50.0]
    assert [log.accuracy for log in logs] == [7.0, 11.0, 16.5, 16.5, 27.5]
    assert [log.global_loss for log in logs] == [-7.0, -11.0, -16.5, -16.5, -27.5]
    assert [log.cluster_size for log in logs] == [0, 2, 2, 2, 0]
    assert logs[1].mean_link_snr_db == 2.5
    assert all(math.isnan(logs[i].mean_link_snr_db) for i in (0, 2, 3, 4))
    sent = overhead.round_delay("fello", 2)
    unsent = overhead.round_delay("fello", 2, sent=False)
    assert unsent < sent
    assert [log.round_delay_s for log in logs] == [0.0, sent, unsent, 0.0, 0.0]
    for round_index, sats in ((2, [a, b]), (3, [c])):
        shards = partition_data(train, sats, 20, ref.derive("shard", round_index))
        for sat in sats:
            np.testing.assert_array_equal(admitted[(sat, round_index)].rows, shards[sat].rows)
    assert set(admitted) == {(a, 2), (b, 2), (c, 3)}
