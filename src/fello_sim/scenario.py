"""Scenario execution: runs, sweeps, metrics and report emission.

Every arm draws from one set of streams keyed by the master seed (common
random numbers), so a point's schedule, link draws, shards and initial
model depend on its resolved config alone: the architectures at a point
share them, and a sweep point writes the rows of a single run at its value,
wherever the value stands in sweep.values. run_one builds an arm's round
plan (the schedule and shards) and passes it to the arm's runner. The
dataset depends on the master seed alone. Outputs land in the config's
output directory: manifest.cfg and overhead.txt/overhead.csv, from the
config before any arm runs, then metrics.csv, plus a FAILED marker when
any arm raised, which replaces an earlier run's. A failed arm does not
stop the others: metrics.csv keeps every completed arm's rows, and FAILED
holds one traceback per failed arm, headed by the arm's name.
"""

import contextlib
import csv
import io
import math
import multiprocessing
import os
import traceback
from concurrent.futures import ProcessPoolExecutor

from . import baselines, overhead
from .config import ScenarioConfig, apply_sweep, serialize_config
from .datasets import load_mnist, synthetic_split
from .lesc import round_plan, run_fello
from .seeding import Substreams, derive_seed

METRICS_VERSION = "# fello-sim metrics v1"
METRICS_COLUMNS = (
    "architecture", "sweep_value", "round", "accuracy", "loss", "cluster_size",
    "reclustered", "handover", "mean_snr_db", "cumulative_delay_s",
)


def build_datasets(cfg: ScenarioConfig) -> tuple:
    """(train, test) datasets; synthetic data depends only on the master seed."""
    if cfg.dataset_kind == "mnist":
        train = load_mnist(cfg.dataset_train_images, cfg.dataset_train_labels)
        test = load_mnist(cfg.dataset_test_images, cfg.dataset_test_labels)
        return train, test
    rng = Substreams(cfg.master_seed).derive("dataset")
    return synthetic_split(
        cfg.dataset_n_classes,
        cfg.dataset_n_features,
        cfg.dataset_train_per_class,
        cfg.dataset_test_per_class,
        rng,
        cfg.dataset_spread,
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


def _sweep_cell(value) -> str:
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, float) else str(value)


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
            cumulative = 0.0
            for log in results[(arch, value)]:
                cumulative += log.round_delay_s
                writer.writerow(
                    [
                        arch,
                        _sweep_cell(value),
                        log.round_index,
                        _csv_float(log.accuracy),
                        _csv_float(log.global_loss),
                        log.cluster_size,
                        int(log.reclustered),
                        int(log.handover),
                        _csv_float(log.mean_link_snr_db),
                        _csv_float(cumulative),
                    ]
                )
    return buf.getvalue()


def emit_overhead_report(cfg: ScenarioConfig) -> list:
    """Write overhead.txt and overhead.csv; returns the reports."""
    reports = overhead.build_reports(
        rounds=cfg.lesc_rounds,
        local_epochs=cfg.train_local_epochs,
        accounting=cfg.overhead_accounting,
        arch=(cfg.dataset_n_features, cfg.train_hidden_size, cfg.dataset_n_classes),
        samples_per_client=cfg.dataset_samples_per_client,
        cluster_size=cfg.overhead_cluster_size,
        device_flops=cfg.overhead_device_flops,
        link_rate_bps=cfg.overhead_link_rate_bps,
    )
    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(os.path.join(cfg.output_dir, "overhead.txt"), "w") as f:
        f.write(overhead.render_text(reports))
    with open(os.path.join(cfg.output_dir, "overhead.csv"), "w", newline="") as f:
        f.write(overhead.render_csv(reports))
    return reports


def _arm_name(cfg: ScenarioConfig, arch: str, value) -> str:
    if cfg.sweep_parameter is None:
        return arch
    return f"{arch} at {cfg.sweep_parameter} = {_sweep_cell(value)}"


# The datasets a pool worker was started with: a single point's (train, test)
# pair, or None when each task builds its own.
_worker_datasets = None


def _share_datasets(datasets):
    global _worker_datasets
    _worker_datasets = datasets


def _pool_task(cfg: ScenarioConfig, arch: str) -> list:
    return run_one(cfg, arch, *(_worker_datasets or ()))


def _run_pooled(cfg: ScenarioConfig, points: dict, arms: list, results: dict, failures: list):
    """Run each (architecture, sweep point) arm as one task on forked processes.

    A single point builds its datasets once, here; forked workers inherit
    them through the initializer's arguments, which fork does not pickle.
    Sweep tasks build their own. The pool never holds more processes than
    arms, because a forked pool starts all of them at the first submit.
    """
    datasets = None
    if len(points) == 1:
        try:
            datasets = build_datasets(*points.values())
        except Exception:
            failed = traceback.format_exc()
            failures.extend((*arm, failed) for arm in arms)
            return
    with ProcessPoolExecutor(
        max_workers=min(cfg.workers, len(arms)),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_share_datasets,
        initargs=(datasets,),
    ) as pool:
        futures = {
            (arch, value): pool.submit(_pool_task, points[value], arch)
            for arch, value in arms
        }
        for arm, future in futures.items():
            try:
                results[arm] = future.result()
            except Exception:
                failures.append((*arm, traceback.format_exc()))


def run_scenario(cfg: ScenarioConfig) -> int:
    """Execute all (architecture, sweep point) runs and write all outputs.

    Returns 0, or 2 when any arm raised; the other arms still run.
    """
    os.makedirs(cfg.output_dir, exist_ok=True)
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(cfg.output_dir, "FAILED"))
    with open(os.path.join(cfg.output_dir, "manifest.cfg"), "w") as f:
        f.write(serialize_config(cfg))
    emit_overhead_report(cfg)
    # Sweep value -> resolved config; validate_config rejects repeated values.
    points = {None: cfg}
    if cfg.sweep_parameter is not None:
        points = {value: apply_sweep(cfg, value) for value in cfg.sweep_values}
    results = {}
    failures = []
    arms = [(arch, value) for arch in cfg.architectures for value in points]
    if cfg.workers > 1 and len(arms) > 1:
        _run_pooled(cfg, points, arms, results, failures)
    else:
        for value, cfg_point in points.items():
            try:
                train_set, test_set = build_datasets(cfg_point)
            except Exception:
                failed = traceback.format_exc()
                failures.extend((arch, value, failed) for arch in cfg.architectures)
                continue
            for arch in cfg.architectures:
                try:
                    results[(arch, value)] = run_one(cfg_point, arch, train_set, test_set)
                except Exception:
                    failures.append((arch, value, traceback.format_exc()))
    with open(os.path.join(cfg.output_dir, "metrics.csv"), "w", newline="") as f:
        f.write(render_metrics(cfg, points, results))
    if failures:
        with open(os.path.join(cfg.output_dir, "FAILED"), "w") as f:
            for arch, value, failed in failures:
                f.write(f"arm {_arm_name(cfg, arch, value)} failed:\n{failed}\n")
        return 2
    return 0
