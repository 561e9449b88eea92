"""End-to-end acceptance checks, one test per shipped claim.

Each test pins a headline number or ordering the package is expected to
reproduce: the overhead table, the link-budget anchor values, orbit
invariants, FedAvg algebra, the architecture comparison at desk scale,
channel blindness of the decentralized baseline, run determinism, and
cluster sizing. Oracles are coded in the tests from first principles so a
regression in the library cannot hide behind its own helpers.
"""

import csv
import math
import os
import time
from dataclasses import replace

import numpy as np

from fello_sim.config import ScenarioConfig, load_config, serialize_config
from fello_sim.fl_engine import (
    Dataset, ModelParams, TrainConfig, aggregate, evaluate, init_model, sgd_epoch,
)
from fello_sim.lesc import membership_schedule
from fello_sim.optical_link import antenna_gain, noise_power, pointing_loss, received_power
from fello_sim.orbits import SatIndex, positions_at, row_of
from fello_sim.scenario import run_one, run_scenario
from fello_sim.seeding import Substreams, derive_seed
from fello_sim.overhead import PRESET_TIMES, delay_components


def test_criterion_1_overhead_reproduction():
    t0 = time.perf_counter()
    totals = {r.architecture: r.total_delay_s for r in ScenarioConfig().overhead()}
    assert round(totals["fello"], 2) == 2.36
    assert round(totals["cl"], 2) == 15.67
    assert round(totals["dl"], 2) == 2.35
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_link_budget_oracles():
    p = ScenarioConfig().isl_optics()

    gain = antenna_gain(p.telescope_diameter_m, p.wavelength_m)
    oracle_gain = (math.pi * 0.06) ** 2 / 1.5e-6**2
    assert abs(gain / oracle_gain - 1.0) < 1e-4
    assert abs(gain / 1.5791e10 - 1.0) < 1e-4

    # noise floor at zero received power is dark + thermal; peel off dark
    oracle_dark = 2.0 * 1.602176634e-19 * 1e-9 * 1.25e9
    oracle_thermal = 4.0 * 1.380649e-23 * 500.0 * 1.25e9 / 1000.0
    thermal = noise_power(p, 0.0) - oracle_dark
    assert abs(thermal / oracle_thermal - 1.0) < 1e-4
    assert abs(thermal / 3.4516e-14 - 1.0) < 1e-4

    p_r = received_power(p, 1000.0, 0.0, 0.0)
    oracle_p_r = 0.03 * 0.8 * 0.8 * oracle_gain**2 * (1.5e-6 / (4.0 * math.pi * 1.0e6)) ** 2
    assert abs(p_r / oracle_p_r - 1.0) < 1e-3
    assert abs(p_r / 6.823e-8 - 1.0) < 1e-3

    loss = pointing_loss(gain, 3e-6)
    oracle_loss = math.exp(-((math.pi * 0.06 / 1.5e-6) ** 2) * (3e-6) ** 2)
    assert abs(loss / oracle_loss - 1.0) < 1e-3
    assert abs(loss / 0.8675 - 1.0) < 1e-3


def test_criterion_3_orbit_invariants(oracle_angles, oracle_position):
    t0 = time.perf_counter()
    walker = ScenarioConfig().walker()
    shell = walker.orbit_radius_km
    period = walker.orbital_period_s
    rng = np.random.default_rng(2026)
    for _ in range(10_000):
        sat = SatIndex(int(rng.integers(1, walker.n_orbits + 1)),
                       int(rng.integers(1, walker.sats_per_orbit + 1)))
        t = float(rng.uniform(0.0, 86_400.0))
        pos = positions_at(walker, t)[row_of(walker, sat)]
        assert abs(math.hypot(*pos) / shell - 1.0) < 1e-9
        raan, omega_now = oracle_angles(walker, sat, t)
        want = oracle_position(walker, raan, omega_now)
        assert (np.abs(pos - want) <= 1e-9 + 1e-12 * np.abs(want)).all()
        _, omega_later = oracle_angles(walker, sat, t + period)
        wrap = (omega_later - omega_now) % math.tau
        assert min(wrap, math.tau - wrap) < 1e-9
    assert time.perf_counter() - t0 < 5.0


def test_criterion_4_fedavg_correctness():
    rngs = [np.random.default_rng(s) for s in (1, 2, 3)]
    models = [init_model(4, 3, 3, rng) for rng in rngs]

    single = aggregate([(models[0], 17)])
    assert np.allclose(single.vec, models[0].vec, rtol=0.0, atol=1e-12)

    ab = aggregate([(models[0], 2), (models[1], 3)])
    ba = aggregate([(models[1], 3), (models[0], 2)])
    assert np.allclose(ab.vec, ba.vec, rtol=0.0, atol=1e-12)

    # constants 1, 2, 3 weighted 6, 3, 2 over a fixed total of 6: exactly 3
    arch = models[0].arch
    constant = [ModelParams(np.full(models[0].vec.size, v), arch) for v in (1.0, 2.0, 3.0)]
    blended = aggregate(list(zip(constant, (6, 3, 2))), total_samples=6)
    assert (blended.vec == 3.0).all()

    data_rng = np.random.default_rng(7)
    data = Dataset(data_rng.normal(size=(12, 4)), data_rng.integers(0, 3, size=12), 3)
    model = init_model(4, 3, 3, np.random.default_rng(11))
    # unit learning rate and one full-size batch turn the update into the gradient
    cfg = TrainConfig(learning_rate=1.0, local_epochs=1, batch_size=12, hidden_size=3)
    stepped = sgd_epoch(model, data, cfg, np.random.default_rng(0))
    grad = model.vec - stepped.vec
    h = 1e-5
    fd = np.empty_like(grad)
    for i in range(grad.size):
        bump = np.zeros_like(grad)
        bump[i] = h
        up = evaluate(ModelParams(model.vec + bump, model.arch), data)[1]
        down = evaluate(ModelParams(model.vec - bump, model.arch), data)[1]
        fd[i] = (up - down) / (2.0 * h)
    assert np.allclose(grad, fd, rtol=1e-4, atol=1e-8)


def _ordering_sweep(out_dir: str, architectures: tuple, recluster_period: float):
    """Seeds 0-4 as one run.master_seed sweep on a 2-process pool."""
    return replace(
        ScenarioConfig(),
        architectures=architectures,
        output_dir=out_dir,
        sweep_parameter="run.master_seed",
        sweep_values=tuple(range(5)),
        workers=2,
        dataset_n_classes=10,
        dataset_n_features=32,
        dataset_train_per_class=600,
        dataset_test_per_class=50,
        dataset_spread=0.30,
        dataset_samples_per_client=400,
        train_hidden_size=32,
        lesc_delta_d_km=2200.0,
        lesc_round_time_s=60.0,
        lesc_recluster_period=recluster_period,
        corruption_kind="awgn",
        corruption_awgn_scale=140.0,
    )


def _metrics_rows(out_dir) -> list:
    with open(os.path.join(out_dir, "metrics.csv"), newline="") as f:
        return list(csv.DictReader(f.readlines()[1:]))


def test_criterion_5_fello_beats_baselines(tmp_path):
    t0 = time.perf_counter()
    finals = {}
    for suffix, archs, period in (("", ("fello", "dl"), 1.0), ("_norc", ("fello",), math.inf)):
        cfg = _ordering_sweep(str(tmp_path / suffix), archs, period)
        assert cfg.lesc_rounds == 40 and cfg.train_local_epochs == 2
        assert run_scenario(cfg) == 0
        for row in _metrics_rows(cfg.output_dir):
            if int(row["round"]) == cfg.lesc_rounds:
                finals.setdefault(row["architecture"] + suffix, []).append(float(row["accuracy"]))
    mean = {k: float(np.mean(v)) for k, v in finals.items()}
    assert mean["fello"] - mean["dl"] >= 0.05
    assert mean["fello"] >= mean["fello_norc"]
    assert time.perf_counter() - t0 < 600.0


def _small_dl_cfg(out_dir: str, sigma: float) -> ScenarioConfig:
    return replace(
        ScenarioConfig(),
        architectures=("dl",),
        master_seed=7,
        output_dir=out_dir,
        isl_pointing_sd_rad=sigma,
        lesc_rounds=3,
        lesc_round_time_s=60.0,
        train_hidden_size=8,
        dataset_n_classes=3,
        dataset_n_features=8,
        dataset_train_per_class=60,
        dataset_test_per_class=15,
        dataset_spread=0.12,
        dataset_samples_per_client=40,
        corruption_kind="awgn",
        corruption_awgn_scale=50.0,
    )


def test_criterion_6_dl_channel_invariance(tmp_path):
    blobs = []
    for i, sigma in enumerate((2e-6, 3e-6, 4e-6, 5e-6)):
        out = str(tmp_path / f"sigma_{i}")
        assert run_scenario(_small_dl_cfg(out, sigma)) == 0
        blobs.append((tmp_path / f"sigma_{i}" / "metrics.csv").read_bytes())
    assert all(blob == blobs[0] for blob in blobs)


def test_cumulative_delay_is_the_modelled_delay(tmp_path):
    # A 60 s clock step must not leak into the delay column.
    rounds, epochs = 4, 3
    cfg = replace(
        _small_dl_cfg(str(tmp_path), 3e-6), architectures=("fello", "cl", "dl"),
        lesc_rounds=rounds, train_local_epochs=epochs,
    )
    assert cfg.lesc_round_time_s == 60.0
    assert run_scenario(cfg) == 0
    rows = _metrics_rows(tmp_path)
    for mode in ("fello", "dl"):
        last = [r for r in rows if r["architecture"] == mode][-1]
        assert int(last["round"]) == rounds
        components = delay_components(mode, rounds, epochs, **PRESET_TIMES[mode])
        want = sum(seconds for _, seconds in components)
        assert math.isclose(float(last["cumulative_delay_s"]), want, rel_tol=1e-12)


def test_idle_rounds_add_no_delay():
    # The coverage golden's shell has gaps before the first edge and after
    # handovers that keep the old members; a 1 km threshold empties every
    # cluster. Nobody trains or sends in those rounds, so they cost nothing.
    # With nobody ever admitted, CL's impaired uploads (awgn, then packet)
    # have a matrix of 0 rows.
    gaps = replace(
        _small_dl_cfg("unused", 3e-6), n_orbits=5, sats_per_orbit=5,
        lesc_delta_d_km=8000.0, lesc_round_time_s=300.0, lesc_rounds=16,
    )
    assert gaps.corruption_kind == "awgn"
    empty = replace(gaps, lesc_delta_d_km=1.0)
    for cfg in (gaps, empty, replace(empty, corruption_kind="packet")):
        streams = Substreams(derive_seed(cfg.master_seed, "fello", 0))
        recs = membership_schedule(cfg.lesc(), cfg.walker(), cfg.isl_optics(),
                                   cfg.gsl_optics(), streams, cfg.train_local_epochs)
        idle = [rec.coverage_failed or not rec.members for rec in recs]
        assert any(idle)
        assert cfg is gaps or not any(rec.admitted for rec in recs)
        for arch in ("fello", "cl", "dl"):
            logs = run_one(cfg, arch)
            assert [log.round_delay_s == 0.0 for log in logs] == idle, arch


def test_criterion_7_scenario_determinism(tmp_path):
    # the small DL scenario at Table 1's pointing jitter, all three arms and a sweep
    base = replace(
        _small_dl_cfg(str(tmp_path / "a"), 3e-6), architectures=("fello", "cl", "dl"),
        master_seed=11, lesc_rounds=2, corruption_awgn_scale=5.0,
        sweep_parameter="lesc.delta_d_km", sweep_values=(1800.0, 2600.0),
    )
    assert run_scenario(base) == 0
    manifest = load_config(str(tmp_path / "a" / "manifest.cfg"))
    assert serialize_config(manifest) == serialize_config(base)

    rerun = replace(manifest, output_dir=str(tmp_path / "b"))
    assert run_scenario(rerun) == 0
    pooled = replace(manifest, output_dir=str(tmp_path / "c"), workers=3)
    assert run_scenario(pooled) == 0

    blobs = [(tmp_path / name / "metrics.csv").read_bytes() for name in ("a", "b", "c")]
    assert blobs[0] == blobs[1] == blobs[2]


def test_criterion_8_cluster_size_sanity():
    cfg = replace(ScenarioConfig(), lesc_rounds=1)
    assert cfg.lesc_delta_d_km == 2600.0 and cfg.walker().phasing_factor == "standard"
    streams = Substreams(derive_seed(cfg.master_seed, "fello", 0))
    first = membership_schedule(
        cfg.lesc(), cfg.walker(), cfg.isl_optics(), cfg.gsl_optics(), streams,
        cfg.train_local_epochs,
    )[0]
    assert 12 <= len(first.members) <= 24
