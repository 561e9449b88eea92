"""Pinned outputs: metrics.csv of five small scenarios and the default manifest.

Each scenario's metrics.csv must match its file under tests/goldens/ byte
for byte, so a refactor that drifts any number, even in the last digit,
fails here. Together the scenarios reach every branch of the FELLO, CL and
DL round loops: handovers, re-clusterings, coverage gaps before and after
the first cluster forms, AWGN and packet corruption, distance and SNR
thresholds, the fixed aggregation denominator and a process-pool sweep.

OpenBLAS kernels may sum a matrix product in another order, moving the
last digits of `loss` cells, so the files pin bytes under one kernel:
pinned_metrics runs `fello-sim run` in a subprocess on KERNEL with one BLAS
thread, built as OPENBLAS_VERSION. Relations between runs (common random
numbers) hold on any kernel and compare runs with whole_run, each scenario
run once in this process: an architecture run alone writes its rows,
reordering architectures or reversing sweep values reorders row blocks,
and every sweep point writes a single run's rows.

A change that alters numbers on purpose, or another OpenBLAS build, runs
REGENERATE and says why in CHANGES.md.
"""

import functools
import os
import subprocess
import sys
import tempfile
from dataclasses import replace

import numpy as np
import pytest

import fello_sim
from fello_sim.config import ScenarioConfig, serialize_config
from fello_sim.overhead import MODES
from fello_sim.scenario import build_datasets, run_one, run_scenario

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens")
KERNEL = "Haswell"  # runs on every AVX2 x86-64 CPU, Intel or AMD
OPENBLAS_VERSION = "0.3.31.188.0"
REGENERATE = "PYTHONPATH=src python tests/test_goldens.py"

BASE = replace(
    ScenarioConfig(),
    master_seed=5,
    train_hidden_size=8,
    dataset_n_classes=3,
    dataset_n_features=8,
    dataset_train_per_class=60,
    dataset_test_per_class=15,
    dataset_spread=0.12,
    dataset_samples_per_client=30,
)
DISTANCE_AWGN = dict(
    n_orbits=6, sats_per_orbit=8, lesc_delta_d_km=6000.0, lesc_round_time_s=200.0,
    lesc_rounds=16, corruption_kind="awgn", corruption_awgn_scale=5.0,
)
SCENARIOS = {
    # handovers, re-clusterings and a coverage gap
    "distance_awgn": DISTANCE_AWGN,
    # SNR-threshold membership with packet erasures and last-good fallback
    "snr_packet": dict(
        lesc_threshold_mode="snr", lesc_delta_gamma=50.0, lesc_round_time_s=60.0,
        lesc_rounds=10, corruption_kind="packet",
    ),
    # coverage gaps both before and after the first cluster forms
    "coverage": dict(
        n_orbits=5, sats_per_orbit=5, lesc_delta_d_km=8000.0, lesc_round_time_s=300.0,
        lesc_rounds=16, corruption_kind="awgn", corruption_awgn_scale=5.0,
    ),
    # the paper-literal bundle, which fixes the aggregation denominator
    "literal": dict(DISTANCE_AWGN, paper_literal=True, corruption_kind="none"),
    # sweep points on the process pool
    "sweep_pool": dict(
        lesc_round_time_s=60.0, lesc_rounds=2, corruption_kind="awgn",
        sweep_parameter="lesc.delta_d_km", sweep_values=(1800.0, 2600.0), workers=2,
    ),
}


def scenario_config(name: str, output_dir: str, **overrides) -> ScenarioConfig:
    return replace(BASE, output_dir=output_dir, **{**SCENARIOS[name], **overrides})


def read(*path: str) -> bytes:
    with open(os.path.join(*path), "rb") as f:
        return f.read()


def run_metrics(cfg: ScenarioConfig) -> bytes:
    assert run_scenario(cfg) == 0
    return read(cfg.output_dir, "metrics.csv")


def pinned_metrics(name: str, output_dir: str) -> bytes:
    """name's metrics.csv from `fello-sim run` in a subprocess on KERNEL, one BLAS thread."""
    path = os.path.join(output_dir, "scenario.cfg")
    with open(path, "w") as f:
        f.write(serialize_config(scenario_config(name, output_dir)))
    # -m puts the working directory, the one that holds fello_sim, on sys.path
    done = subprocess.run([sys.executable, "-m", "fello_sim.cli", "run", path],
                          cwd=os.path.dirname(os.path.dirname(fello_sim.__file__)),
                          env=dict(os.environ, OPENBLAS_CORETYPE=KERNEL, OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return read(output_dir, "metrics.csv")


def openblas_version() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        return "unknown"


@functools.cache
def whole_run(name: str) -> list:
    """Row blocks of the scenario run once as a whole, in this process."""
    with tempfile.TemporaryDirectory() as tmp:
        return row_blocks(run_metrics(scenario_config(name, tmp)))


def row_blocks(metrics: bytes) -> list:
    """((architecture, sweep value), rows) in file order; a row keeps its other cells."""
    blocks = {}
    for line in metrics.decode().splitlines()[2:]:
        arch, value, rest = line.split(",", 2)
        blocks.setdefault((arch, value), []).append(rest)
    return list(blocks.items())


def blocks_of(blocks: list, arch: str) -> list:
    return [block for block in blocks if block[0][0] == arch]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_metrics_match_golden(name, tmp_path):
    assert pinned_metrics(name, str(tmp_path)) == read(GOLDENS, f"{name}.csv"), (
        f"the goldens were made with OpenBLAS {OPENBLAS_VERSION}, this is "
        f"{openblas_version()}; if the numbers moved on purpose, run {REGENERATE}")


# One arm at a single point runs serially at any worker count, so only
# sweep_pool's two points reach the process pool at workers 2.
@pytest.mark.parametrize("name, arch, workers", [
    (name, arch, workers) for name in sorted(SCENARIOS) for arch in MODES
    for workers in ((1, 2) if name == "sweep_pool" else (1,))
])
def test_an_architecture_run_alone_writes_its_golden_rows(name, arch, workers, tmp_path):
    cfg = scenario_config(name, str(tmp_path), architectures=(arch,), workers=workers)
    assert row_blocks(run_metrics(cfg)) == blocks_of(whole_run(name), arch)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_reordering_architectures_reorders_row_blocks(name, tmp_path):
    order = MODES[::-1]
    cfg = scenario_config(name, str(tmp_path), architectures=order)
    whole = whole_run(name)
    assert row_blocks(run_metrics(cfg)) == [b for arch in order for b in blocks_of(whole, arch)]


@pytest.mark.parametrize("workers", [1, 2])
def test_every_sweep_point_equals_a_single_run_at_its_value(workers, tmp_path):
    cfg = scenario_config("sweep_pool", str(tmp_path), workers=workers)
    whole = dict(whole_run("sweep_pool"))
    for value in cfg.sweep_values:
        single = replace(cfg, output_dir=str(tmp_path / repr(value))).points()[value]
        expected = [((arch, ""), whole[(arch, repr(value))]) for arch in MODES]
        assert row_blocks(run_metrics(single)) == expected


def test_reversing_sweep_values_reverses_row_blocks(tmp_path):
    cfg = scenario_config("sweep_pool", str(tmp_path))
    cfg = replace(cfg, sweep_values=cfg.sweep_values[::-1])
    expected = [b for arch in MODES for b in blocks_of(whole_run("sweep_pool"), arch)[::-1]]
    assert row_blocks(run_metrics(cfg)) == expected


def test_default_manifest_matches_golden():
    assert serialize_config(ScenarioConfig()).encode() == read(GOLDENS, "manifest.cfg")


def test_architectures_share_the_snr_membership():
    cfg = replace(BASE, **SCENARIOS["snr_packet"])
    train_set, test_set = build_datasets(cfg)
    membership = {
        arch: [(log.edge, log.cluster_size, log.reclustered, log.handover)
               for log in run_one(cfg, arch, train_set, test_set)]
        for arch in MODES
    }
    assert membership["fello"] == membership["cl"] == membership["dl"]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_membership_agrees_across_architectures(name):
    membership = {}
    for (_, value), rows in whole_run(name):
        # round, then cluster_size, reclustered and handover past accuracy and loss
        cells = [row.split(",") for row in rows]
        membership.setdefault(value, []).append([c[:1] + c[3:6] for c in cells])
    assert all(blocks == [blocks[0]] * len(MODES) for blocks in membership.values())


if __name__ == "__main__":
    os.makedirs(GOLDENS, exist_ok=True)
    outputs = {"manifest.cfg": serialize_config(ScenarioConfig()).encode()}
    for scenario in SCENARIOS:
        with tempfile.TemporaryDirectory() as tmp:
            outputs[f"{scenario}.csv"] = pinned_metrics(scenario, tmp)
    for filename, data in outputs.items():
        with open(os.path.join(GOLDENS, filename), "wb") as f:
            f.write(data)
        print(f"wrote {filename} ({len(data)} bytes)", file=sys.stderr)
    print(f"OPENBLAS_VERSION = {openblas_version()!r}", file=sys.stderr)
