"""Scenario execution: runs, sweeps, metrics and report emission.

Every arm draws from one set of streams keyed by the master seed (common
random numbers), so a point's schedule, link draws, shards and initial
model depend on its resolved config alone: the architectures at a point
share them, and a sweep point writes the rows of a single run at its value,
wherever the value stands in sweep.values. run_one builds an arm's round
plan (the schedule and shards) and passes it to the arm's runner.

run_scenario runs the arms point by point, inline or, with workers > 1, on
forked processes, all on one OpenBLAS thread (blas.one_thread), so
metrics.csv does not follow the caller's BLAS thread count. The parent
builds a point's datasets, which depend on the master seed alone, before its
arms start, drawing synthetic classes on up to workers threads that are
joined before any fork, and workers inherit them, as the pool forks at its
first submit. A pooled sweep forks before its later points exist, so its
arms build their own, each on one thread, as the pool already holds the
cores; perfbench pins that count until ROADMAP item 4. Outputs: manifest.cfg
and overhead.txt/overhead.csv before any arm runs, then metrics.csv with
every completed arm's rows, plus a FAILED marker, replacing an earlier
run's, with one traceback per failed arm, in arm order (architecture first,
as in metrics.csv).
"""

import contextlib
import csv
import io
import math
import multiprocessing
import os
import traceback
from concurrent.futures import Future, ProcessPoolExecutor

from . import baselines, blas, overhead
from .config import ScenarioConfig, format_sweep_value, serialize_config
from .datasets import load_mnist, synthetic_split
from .lesc import round_plan, run_fello
from .seeding import Substreams, derive_seed

METRICS_VERSION = "# fello-sim metrics v1"
METRICS_COLUMNS = (
    "architecture", "sweep_value", "round", "accuracy", "loss", "cluster_size",
    "reclustered", "handover", "mean_snr_db", "cumulative_delay_s",
)


def build_datasets(cfg: ScenarioConfig, threads: int = 1) -> tuple:
    """(train, test) datasets; synthetic data depends only on the master seed.

    threads draws synthetic classes in parallel without changing a byte.
    """
    if cfg.dataset_kind == "mnist":
        train = load_mnist(cfg.dataset_train_images, cfg.dataset_train_labels)
        test = load_mnist(cfg.dataset_test_images, cfg.dataset_test_labels)
        return train, test
    return synthetic_split(
        cfg.dataset_n_classes,
        cfg.dataset_n_features,
        cfg.dataset_train_per_class,
        cfg.dataset_test_per_class,
        Substreams(cfg.master_seed),
        cfg.dataset_spread,
        threads,
    )


def run_one(cfg: ScenarioConfig, arch: str, train_set=None, test_set=None) -> list:
    """One architecture at one sweep point; cfg must already be resolved."""
    if arch not in overhead.MODES:
        raise ValueError(f"unknown architecture {arch!r}")
    if train_set is None or test_set is None:
        train_set, test_set = build_datasets(cfg)
    # One stream set for every arm and sweep point: a point's numbers depend on
    # its resolved config alone, and a single run keeps the bytes of this key.
    streams = Substreams(derive_seed(cfg.master_seed, "fello", 0))
    train_cfg = cfg.train()
    plan = round_plan(
        cfg.lesc(), cfg.walker(), cfg.isl_optics(), cfg.gsl_optics(), train_set,
        cfg.dataset_samples_per_client, streams, train_cfg.local_epochs,
    )
    if arch == "dl":
        return baselines.run_dl(plan, train_cfg, train_set, test_set, streams)
    args = (plan, train_cfg, cfg.corruption(), train_set, test_set, streams)
    if arch == "cl":
        return baselines.run_cl(*args)
    fixed = train_set.n_samples if cfg.paper_literal else None
    return run_fello(*args, fixed_total=fixed)


def _csv_float(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return repr(float(value))


def render_metrics(cfg: ScenarioConfig, points, results: dict) -> str:
    """The metrics CSV: one row per (architecture, sweep value, round), in points' order."""
    buf = io.StringIO()
    buf.write(METRICS_VERSION + "\n")
    writer = csv.writer(buf)
    writer.writerow(METRICS_COLUMNS)
    for arch in cfg.architectures:
        for value in points:
            if (arch, value) not in results:
                continue
            cell = "" if cfg.sweep_parameter is None else format_sweep_value(value)
            cumulative = 0.0
            for log in results[(arch, value)]:
                cumulative += log.round_delay_s
                writer.writerow([
                    arch, cell, log.round_index,
                    _csv_float(log.accuracy), _csv_float(log.global_loss), log.cluster_size,
                    int(log.reclustered), int(log.handover),
                    _csv_float(log.mean_link_snr_db), _csv_float(cumulative),
                ])
    return buf.getvalue()


def emit_overhead_report(cfg: ScenarioConfig) -> list:
    """Write overhead.txt and overhead.csv; returns the reports."""
    reports = cfg.overhead()
    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(os.path.join(cfg.output_dir, "overhead.txt"), "w") as f:
        f.write(overhead.render_text(reports))
    with open(os.path.join(cfg.output_dir, "overhead.csv"), "w", newline="") as f:
        f.write(overhead.render_csv(reports))
    return reports


# The current point's (train, test) datasets, or None when each arm builds
# its own. Forked pool workers inherit what it holds at the first submit.
_datasets = None


def _run_arm(cfg: ScenarioConfig, arch: str) -> list:
    return run_one(cfg, arch, *(_datasets or ()))


def _settle(fn, *args) -> Future:
    """A done future holding fn(*args)'s result or exception, run here."""
    future = Future()
    try:
        future.set_result(fn(*args))
    except Exception as exc:
        future.set_exception(exc)
    return future


@blas.one_thread()
def run_scenario(cfg: ScenarioConfig) -> int:
    """Execute all (architecture, sweep point) runs and write all outputs.

    Returns 0, or 2 when any arm raised; the other arms still run.
    """
    global _datasets
    os.makedirs(cfg.output_dir, exist_ok=True)
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(cfg.output_dir, "FAILED"))
    with open(os.path.join(cfg.output_dir, "manifest.cfg"), "w") as f:
        f.write(serialize_config(cfg))
    emit_overhead_report(cfg)
    points = cfg.points()
    arms = [(arch, value) for arch in cfg.architectures for value in points]
    pool = None
    if cfg.workers > 1 and len(arms) > 1:
        # A forked pool starts all of its processes at the first submit.
        pool = ProcessPoolExecutor(
            max_workers=min(cfg.workers, len(arms)),
            mp_context=multiprocessing.get_context("fork"),
        )
    outcomes = {}
    with pool or contextlib.nullcontext():
        submit = pool.submit if pool else _settle
        for value, cfg_point in points.items():
            # Workers fork before a later point could be built here, so a
            # pooled sweep's arms build their own datasets, on one thread
            # each. The parent builds before any arm runs, on workers threads.
            built = (None if pool and len(points) > 1
                     else _settle(build_datasets, cfg_point, cfg.workers))
            if built is not None and built.exception():
                outcomes.update(((arch, value), built) for arch in cfg.architectures)
                continue
            _datasets = built and built.result()
            for arch in cfg.architectures:
                outcomes[(arch, value)] = submit(_run_arm, cfg_point, arch)
    _datasets = None
    results = {}
    failures = []
    for arch, value in arms:
        failed = outcomes[(arch, value)].exception()
        if failed is None:
            results[(arch, value)] = outcomes[(arch, value)].result()
        else:
            name = arch if cfg.sweep_parameter is None else (
                f"{arch} at {cfg.sweep_parameter} = {format_sweep_value(value)}")
            failed = "".join(traceback.format_exception(failed))
            failures.append(f"arm {name} failed:\n{failed}\n")
    with open(os.path.join(cfg.output_dir, "metrics.csv"), "w", newline="") as f:
        f.write(render_metrics(cfg, points, results))
    if failures:
        with open(os.path.join(cfg.output_dir, "FAILED"), "w") as f:
            f.write("".join(failures))
        return 2
    return 0
