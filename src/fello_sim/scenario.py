"""Scenario execution: runs, sweeps, metrics and report emission.

Each (architecture, sweep point) pair runs with its own seed derived from
the master seed, while the dataset itself is derived from the master seed
alone so every arm trains on identical data. Outputs land in the config's
output directory: metrics.csv, overhead.txt/overhead.csv, and manifest.cfg,
plus a FAILED marker when any arm raised. A failed arm does not stop the
others: metrics.csv keeps every completed arm's rows, and FAILED holds one
traceback per failed arm, headed by the arm's name.
"""

import csv
import io
import math
import os
import traceback
from concurrent.futures import ProcessPoolExecutor

from . import baselines, overhead
from .config import ScenarioConfig, apply_sweep, serialize_config
from .datasets import load_mnist, synthetic_split
from .lesc import run_fello
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


def run_one(
    cfg: ScenarioConfig,
    arch: str,
    sweep_index: int,
    train_set=None,
    test_set=None,
    workers: int = 1,
) -> list:
    """One architecture at one sweep point; cfg must already be resolved."""
    if train_set is None or test_set is None:
        train_set, test_set = build_datasets(cfg)
    streams = Substreams(derive_seed(cfg.master_seed, arch, sweep_index))
    kwargs = dict(
        cfg=cfg.lesc(),
        walker=cfg.walker(),
        isl=cfg.isl_optics(),
        gsl=cfg.gsl_optics(),
        train_cfg=cfg.train(),
        corruption=cfg.corruption(),
        train_set=train_set,
        test_set=test_set,
        samples_per_client=cfg.dataset_samples_per_client,
        streams=streams,
    )
    if arch == "fello":
        fixed = train_set.n_samples if cfg.paper_literal else None
        return run_fello(fixed_total=fixed, workers=workers, **kwargs)
    if arch == "cl":
        return baselines.run_cl(**kwargs)
    if arch == "dl":
        return baselines.run_dl(workers=workers, **kwargs)
    raise ValueError(f"unknown architecture {arch!r}")


def _csv_float(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return repr(float(value))


def _sweep_cell(value) -> str:
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, float) else str(value)


def render_metrics(cfg: ScenarioConfig, points: list, results: dict) -> str:
    """The metrics CSV: one row per (architecture, sweep point, round)."""
    buf = io.StringIO()
    buf.write(METRICS_VERSION + "\n")
    writer = csv.writer(buf)
    writer.writerow(METRICS_COLUMNS)
    for arch in cfg.architectures:
        for index, value in enumerate(points):
            if (arch, index) not in results:
                continue
            cumulative = 0.0
            for log in results[(arch, index)]:
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


def run_scenario(cfg: ScenarioConfig) -> int:
    """Execute all (architecture, sweep point) runs and write all outputs.

    Returns 0, or 2 when any arm raised; the other arms still run.
    """
    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(os.path.join(cfg.output_dir, "manifest.cfg"), "w") as f:
        f.write(serialize_config(cfg))
    if cfg.sweep_parameter is not None:
        points = list(cfg.sweep_values)
        resolved = [apply_sweep(cfg, value) for value in points]
    else:
        points = [None]
        resolved = [cfg]
    results = {}
    failures = []
    if cfg.sweep_parameter is not None and cfg.workers > 1:
        # Each task rebuilds its datasets deterministically in its worker.
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = {
                (arch, index): pool.submit(run_one, resolved[index], arch, index)
                for arch in cfg.architectures
                for index in range(len(points))
            }
            for (arch, index), future in futures.items():
                try:
                    results[(arch, index)] = future.result()
                except Exception:
                    failures.append((arch, index, traceback.format_exc()))
    else:
        for index, cfg_point in enumerate(resolved):
            try:
                train_set, test_set = build_datasets(cfg_point)
            except Exception:
                failed = traceback.format_exc()
                failures.extend((arch, index, failed) for arch in cfg.architectures)
                continue
            for arch in cfg.architectures:
                try:
                    results[(arch, index)] = run_one(
                        cfg_point, arch, index, train_set, test_set,
                        workers=cfg.workers,
                    )
                except Exception:
                    failures.append((arch, index, traceback.format_exc()))
    with open(os.path.join(cfg.output_dir, "metrics.csv"), "w", newline="") as f:
        f.write(render_metrics(cfg, points, results))
    if failures:
        with open(os.path.join(cfg.output_dir, "FAILED"), "w") as f:
            for arch, index, failed in failures:
                f.write(f"arm {_arm_name(cfg, arch, points[index])} failed:\n{failed}\n")
        return 2
    emit_overhead_report(cfg)
    return 0
