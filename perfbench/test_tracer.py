"""Tests of the benchmark's tracer and output checks on a tiny scenario.

Run from the repository root: `PYTHONPATH=src python -m pytest -q perfbench`.
"""

import os
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402

TINY = {
    "run": {"workers": "1"},
    "lesc": {"rounds": "3", "round_time_s": "300.0", "delta_d_km": "1800.0"},
    "train": {"local_epochs": "2", "batch_size": "16", "hidden_size": "8"},
    "dataset": {
        "n_classes": "3", "n_features": "8", "train_per_class": "40",
        "test_per_class": "10", "samples_per_client": "30",
    },
}
TINY_SWEEP = {
    **TINY,
    "run": {"workers": "2"},
    "sweep": {"parameter": "lesc.delta_d_km", "values": "1500.0, 1800.0"},
}


@pytest.fixture
def installed(tmp_path):
    t = tracing.Tracer(str(tmp_path / "trace")).install()
    os.makedirs(t.out_dir)
    try:
        yield t
    finally:
        t.uninstall()


def run_traced(tmp_path, t, sections):
    from fello_sim import config, scenario

    out = tmp_path / "out"
    cfg_path = str(tmp_path / "scenario.cfg")
    bench.write_scenario(sections, 5, str(out), cfg_path)
    rc = scenario.run_scenario(config.load_config(cfg_path))
    t.dump()
    shape = bench.Shape("tiny", sections)
    checked = bench.check_outputs(shape, str(out), rc)
    assert checked["failures"] == []
    stats = bench.schedule_stats(shape, checked["rows"])
    return shape, stats, tracing.load_dir(t.out_dir)


def test_names_imported_by_value_are_patched(installed):
    from fello_sim import baselines, lesc, scenario

    assert installed.missing == []
    assert installed.unpatched() == []
    for module, name in [
        (lesc, "positions_at"), (lesc, "evaluate_link"), (baselines, "sgd_epoch"),
        (baselines, "corrupt_vector"), (baselines, "membership_schedule"),
        (baselines, "parallel_map"), (scenario, "run_fello"),
    ]:
        assert hasattr(getattr(module, name), "__wrapped__"), f"{module.__name__}.{name}"


def test_uninstall_restores_originals(tmp_path):
    from fello_sim import baselines, fl_engine

    original = fl_engine.sgd_epoch
    t = tracing.Tracer(str(tmp_path)).install()
    assert baselines.sgd_epoch is not original
    t.uninstall()
    assert baselines.sgd_epoch is original and fl_engine.sgd_epoch is original


def test_traced_counts_equal_counts_derived_from_metrics(tmp_path, installed):
    shape, stats, trace = run_traced(tmp_path, installed, TINY)
    assert stats["sample_steps"] > 0
    assert bench.trace_count_checks(shape, stats, trace, []) == []
    layers = trace["layers"]
    assert layers["fl_engine.sgd_epoch"]["counters"]["samples"] == stats["sample_steps"]
    assert layers["lesc.membership_schedule"]["calls"] == 3  # one per architecture


def test_spans_of_forked_sweep_workers_reach_the_trace(tmp_path, installed):
    shape, stats, trace = run_traced(tmp_path, installed, TINY_SWEEP)
    assert bench.trace_count_checks(shape, stats, trace, []) == []
    assert trace["layers"]["scenario.build_datasets"]["calls"] == len(shape.arms) == 6
    worker_pids = {pid for pid, label, _, _ in trace["roots"] if label == "scenario.run_one"}
    assert worker_pids and os.getpid() not in worker_pids
    # the span the parent had open when it forked is counted once, by the parent
    assert trace["layers"]["scenario.run_scenario"]["calls"] == 1


def test_each_thread_keeps_its_own_span_stack(tmp_path):
    t = tracing.Tracer(str(tmp_path))
    inner = t.wrap("x.inner", lambda: time.sleep(0.05))

    def spawn_inner():
        threads = [threading.Thread(target=inner) for _ in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=10)
        assert not any(th.is_alive() for th in threads)

    t.wrap("x.outer", spawn_inner)()
    t.wrap("x.nested", inner)()
    layers = t.snapshot()["layers"]
    assert layers["x.inner"]["calls"] == 3
    # other threads' spans are not children of the span open on this thread
    assert layers["x.outer"]["self_s"] >= 0.04
    # a span on the same thread is
    assert layers["x.nested"]["self_s"] < 0.01
    assert layers["x.inner"]["self_s"] >= 0.14


def test_parallel_map_busy_time_counts_pool_threads(tmp_path, installed):
    from fello_sim import lesc

    assert lesc.parallel_map(lambda x: time.sleep(0.02) or x, [1, 2, 3, 4], 2) == [1, 2, 3, 4]
    assert lesc.parallel_map(lambda x: x, [1, 2], 1) == [1, 2]
    counters = installed.snapshot()["layers"]["lesc.parallel_map"]["counters"]
    assert counters["pooled_calls"] == 1
    assert counters["busy_s"] >= 0.07
    assert 0.0 < counters["busy_s"] <= counters["capacity_s"] * 1.05


def test_tracing_overhead_is_traced_minus_plain_wall():
    empty = {"layers": {}, "roots": []}
    results = [
        {"traced": False, "wall_s": 2.0, "stats": None},
        {"traced": True, "wall_s": 2.5, "stats": None, "trace": empty},
        {"traced": False, "wall_s": 2.2, "stats": None},
    ]
    metrics, repeat, _ = bench.per_layer(results)
    assert repeat
    assert metrics["trace.overhead_s"]["value"] == pytest.approx(0.4)
    assert metrics["trace.overhead_share"]["value"] == pytest.approx(0.4 / 2.1)
