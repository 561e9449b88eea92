"""fello-sim benchmark: run one workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper --seed 42 --seconds 42 --trace 0

Each iteration spawns `perfbench/workload.py` as a fresh process with BLAS
pinned to one thread. `--trace 0` runs plain iterations for `--seconds`
and prints the end-to-end metrics; `--trace 1` alternates plain and traced
iterations and prints the per-layer metrics. Every iteration's outputs
are checked. The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it,
prefixed `perfbench-record`, holds every sample, digest, check and the
environment. See perfbench/README.md.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402  (benchmark-local module)

METRICS_HEADER = "# fello-sim metrics v1"
ARCHITECTURES = ("fello", "cl", "dl")
BLAS_THREADS = 1
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
}
STATE_DIR = os.path.join(".perfbench", "state")
ITERATION_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0

# Scenario files, by INI section. Keys not listed keep ScenarioConfig's
# defaults: 720 satellites, 784 features, 60k training samples, 2208
# samples per client, 2 local epochs of batch 32 on a 784-64-10 MLP.
WORKLOADS = {
    "paper": {
        "run": {"workers": "2"},
        "lesc": {"rounds": "2", "round_time_s": "300.0"},
    },
    "churn": {
        "run": {"workers": "1"},
        "lesc": {
            "threshold_mode": "snr", "delta_gamma": "50.0", "rounds": "60",
            "round_time_s": "60.0",
        },
        "corruption": {"kind": "packet"},
        "dataset": {"n_features": "32", "samples_per_client": "64"},
        "train": {"hidden_size": "32"},
    },
    "sweep": {
        "run": {"workers": "2"},
        "lesc": {"rounds": "1", "round_time_s": "60.0"},
        "dataset": {"train_per_class": "3000"},
        "sweep": {"parameter": "lesc.delta_d_km", "values": "2000.0, 2600.0, 3200.0"},
    },
}
DEFAULT_EPOCHS = 2
DEFAULT_SAMPLES_PER_CLIENT = 2208

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "train_samples_per_s": "1/s", "acc_fello": "fraction", "acc_cl": "fraction",
    "ok_share": "ratio",
}


class Shape:
    """What one workload scenario file implies for its outputs and counts."""

    def __init__(self, name: str, sections: dict = None):
        sections = WORKLOADS[name] if sections is None else sections
        self.name = name
        self.rounds = int(sections["lesc"]["rounds"])
        self.workers = int(sections["run"]["workers"])
        values = sections.get("sweep", {}).get("values")
        self.points = [float(v) for v in values.split(",")] if values else [None]
        self.sweep = values is not None
        self.pooled_sweep = self.sweep and self.workers > 1
        self.epochs = int(sections.get("train", {}).get("local_epochs", DEFAULT_EPOCHS))
        self.samples_per_client = int(
            sections.get("dataset", {}).get("samples_per_client", DEFAULT_SAMPLES_PER_CLIENT)
        )

    @property
    def arms(self) -> list:
        return [(arch, i) for arch in ARCHITECTURES for i in range(len(self.points))]


def write_scenario(sections: dict, seed: int, out_dir: str, path: str, workers: int = None):
    sections = {k: dict(v) for k, v in sections.items()}
    sections["run"].update(
        {"architectures": ",".join(ARCHITECTURES), "master_seed": str(seed),
         "output_dir": out_dir}
    )
    if workers is not None:
        sections["run"]["workers"] = str(workers)
    with open(path, "w") as f:
        for section, keys in sections.items():
            f.write(f"[{section}]\n")
            for key, value in keys.items():
                f.write(f"{key} = {value}\n")
            f.write("\n")


# ---------------------------------------------------------------- processes

def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env.pop("PYTHONPATH", None)
    return env


def run_child(argv: list, log_path: str, timeout_s: float) -> dict:
    """Spawn, wait with `wait4`, and return exit code, rusage and spawn time.

    The child leads its own process group so that a timeout can stop the
    sweep's pool workers along with it.
    """
    with open(log_path, "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            argv, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )
        deadline = spawned + timeout_s
        timed_out = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline and not timed_out:
                timed_out = True
                os.killpg(proc.pid, signal.SIGKILL)
            time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "spawned": spawned,
        "rc": proc.returncode,
        "timed_out": timed_out,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        # Linux reports ru_maxrss in KiB; wait4 covers the child's reaped children
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def read_marks(path: str) -> list:
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


# ------------------------------------------------------------------ outputs

def parse_metrics(path: str) -> tuple:
    """(header line, rows as dicts, sha256 of the file)."""
    with open(path, "rb") as f:
        raw = f.read()
    text = raw.decode()
    header, _, body = text.partition("\n")
    rows = list(csv.DictReader(body.splitlines()))
    return header, rows, hashlib.sha256(raw).hexdigest()


def arm_key(shape: Shape, row: dict):
    if not shape.sweep:
        return row["architecture"], 0
    return row["architecture"], shape.points.index(float(row["sweep_value"]))


def check_outputs(shape: Shape, out_dir: str, rc: int) -> dict:
    """Output checks of one iteration.

    A failure that concerns one (architecture, sweep point) arm fails that
    arm; any other failure fails every arm of the iteration.
    """
    failures = []
    arms = shape.arms
    metrics_path = os.path.join(out_dir, "metrics.csv")
    if rc != 0:
        failures.append(f"exit code {rc}")
    if os.path.exists(os.path.join(out_dir, "FAILED")):
        failures.append("FAILED file written")
    if not os.path.exists(metrics_path):
        failures.append("no metrics.csv")
        return {"failures": failures, "failed_arms": len(arms), "digest": None, "rows": []}
    header, rows, digest = parse_metrics(metrics_path)
    if header != METRICS_HEADER:
        failures.append(f"header {header!r}")
    by_arm = {arm: [] for arm in arms}
    for row in rows:
        try:
            by_arm[arm_key(shape, row)].append(row)
        except (KeyError, ValueError):
            failures.append(f"unexpected row {row}")
    bad_arms = set()
    for arm, got in by_arm.items():
        if len(got) != shape.rounds:
            failures.append(f"arm {arm}: {len(got)} rows, expected {shape.rounds}")
            bad_arms.add(arm)
        for row in got:
            try:
                acc = float(row["accuracy"])
            except ValueError:
                acc = math.nan
            if not 0.0 <= acc <= 1.0:
                failures.append(f"arm {arm} round {row['round']}: accuracy {row['accuracy']!r}")
                bad_arms.add(arm)
    arm_only = len(failures) == len(bad_arms) == sum(
        1 for f in failures if f.startswith("arm ")
    )
    failed_arms = len(bad_arms) if arm_only else len(arms)
    return {"failures": failures, "failed_arms": failed_arms, "digest": digest, "rows": rows}


def schedule_stats(shape: Shape, rows: list) -> dict:
    """Counts derived from metrics.csv alone, independent of the tracer."""
    stats = {
        "handovers": {a: 0 for a in ARCHITECTURES},
        "reclusters": {a: 0 for a in ARCHITECTURES},
        "members": {a: 0 for a in ARCHITECTURES},
        "rows": {a: 0 for a in ARCHITECTURES},
        "cl_training_rounds": 0,
        "last_acc": {a: [] for a in ARCHITECTURES},
    }
    last = {}
    for row in rows:
        arch = row["architecture"]
        size = int(row["cluster_size"])
        stats["handovers"][arch] += int(row["handover"])
        stats["reclusters"][arch] += int(row["reclustered"])
        stats["members"][arch] += size
        stats["rows"][arch] += 1
        if arch == "cl" and size > 0:
            stats["cl_training_rounds"] += 1
        key = arm_key(shape, row)
        if key not in last or int(row["round"]) > int(last[key]["round"]):
            last[key] = row
    for (arch, _), row in sorted(last.items()):
        stats["last_acc"][arch].append(float(row["accuracy"]))
    per_sample = shape.samples_per_client * shape.epochs
    stats["sample_steps"] = sum(stats["members"].values()) * per_sample
    stats["sgd_epoch_calls"] = shape.epochs * (
        stats["members"]["fello"] + stats["members"]["dl"] + stats["cl_training_rounds"]
    )
    stats["evaluate_calls"] = stats["rows"]["fello"] + stats["rows"]["cl"] + stats["members"]["dl"]
    return stats


def shape_guards(shape: Shape, stats: dict, built: list, main_pid: int, pooled: bool) -> list:
    """Failures when a workload stops doing what it was chosen for."""
    failures = []
    if shape.name == "churn":
        for arch in ARCHITECTURES:
            if stats["handovers"][arch] < 1 or stats["reclusters"][arch] < 1:
                failures.append(
                    f"churn guard: {arch} has {stats['handovers'][arch]} handovers and "
                    f"{stats['reclusters'][arch]} re-clusterings, need > 0 each"
                )
    if shape.name == "paper":
        for arch in ARCHITECTURES:
            if stats["handovers"][arch] < 1:
                failures.append(f"paper guard: {arch} has no handover")
    if pooled:
        pool_builds = [m for m in built if m["pid"] != main_pid]
        if len(pool_builds) != len(shape.arms):
            failures.append(
                f"sweep guard: {len(pool_builds)} dataset builds in pool workers, "
                f"expected {len(shape.arms)}"
            )
    return failures


# --------------------------------------------------------------- iterations

class Bench:
    def __init__(self, root: str, args):
        self.root = root
        self.args = args
        self.shape = Shape(args.workload)
        self.src = os.path.join(root, "src")
        self.work = os.path.join(root, ".perfbench", f"run-{args.workload}-{os.getpid()}")
        self.state = os.path.join(root, STATE_DIR)
        self.workload_py = os.path.join(HERE, "workload.py")
        self.started = time.monotonic()
        self.count = 0

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def iteration(self, traced: bool, workers: int = None) -> dict:
        """One fresh workload process and the checks of its outputs."""
        self.count += 1
        d = os.path.join(self.work, f"it{self.count}")
        out_dir = os.path.join(d, "out")
        os.makedirs(out_dir)
        cfg_path = os.path.join(d, "scenario.cfg")
        marks_path = os.path.join(d, "marks.jsonl")
        write_scenario(WORKLOADS[self.args.workload], self.args.seed, out_dir, cfg_path, workers)
        argv = [sys.executable, self.workload_py, "--src", self.src,
                "--config", cfg_path, "--marks", marks_path]
        trace_dir = None
        if traced:
            trace_dir = os.path.join(d, "trace")
            os.makedirs(trace_dir)
            argv += ["--trace-dir", trace_dir]
        timeout = max(1.0, min(ITERATION_TIMEOUT_S, self.remaining()))
        proc = run_child(argv, os.path.join(d, "log.txt"), timeout)
        marks = read_marks(marks_path)
        result = {"traced": traced, "rc": proc["rc"], "cpu_s": proc["cpu_s"],
                  "peak_rss_mb": proc["peak_rss_mb"]}
        checked = check_outputs(self.shape, out_dir, proc["rc"])
        failures = checked["failures"]
        if proc["timed_out"]:
            failures.append(f"timed out after {timeout:.0f} s")
        done = [m for m in marks if m["event"] == "done"]
        built = [m for m in marks if m["event"] == "built"]
        blas = [m["threads"] for m in marks if m["event"] == "blas"]
        result["blas_threads"] = blas[0] if blas else None
        if result["blas_threads"] != BLAS_THREADS:
            failures.append(f"BLAS pin not in effect: {result['blas_threads']} threads")
        if done and built:
            result["wall_s"] = done[0]["t"] - proc["spawned"]
            result["setup_s"] = min(m["t"] for m in built) - proc["spawned"]
        else:
            failures.append("workload process wrote no timestamps")
        result["digest"] = checked["digest"]
        result["stats"] = schedule_stats(self.shape, checked["rows"]) if checked["rows"] else None
        if result["stats"] is not None and done:
            pooled = self.shape.pooled_sweep and workers in (None, self.shape.workers)
            failures += shape_guards(self.shape, result["stats"], built, done[0]["pid"], pooled)
        if traced:
            patched = [m for m in marks if m["event"] == "patched"]
            if patched and patched[0]["unpatched"]:
                failures.append(f"tracer left unpatched: {patched[0]['unpatched']}")
            result["missing"] = patched[0]["missing"] if patched else []
            result["trace"] = tracer.load_dir(trace_dir)
            if result["stats"] is not None:
                failures += trace_count_checks(self.shape, result["stats"], result["trace"],
                                               result["missing"])
        result["failures"] = failures
        if len(failures) == len(checked["failures"]):
            result["failed_arms"] = checked["failed_arms"]
        else:
            result["failed_arms"] = len(self.shape.arms)
        if failures:
            with open(os.path.join(d, "log.txt"), errors="replace") as f:
                sys.stderr.write(f"perfbench: iteration {self.count} failed; log tail:\n")
                sys.stderr.writelines(f.readlines()[-20:])
        return result

    def measure(self) -> list:
        """Iterations until the next one would end after `--seconds`."""
        traced_mode = bool(self.args.trace)
        results = []
        begin = time.monotonic()
        while True:
            traced = traced_mode and len(results) % 2 == 1
            t0 = time.monotonic()
            res = self.iteration(traced)
            res["elapsed_s"] = time.monotonic() - t0
            results.append(res)
            plain = [r for r in results if not r["traced"]]
            tr = [r for r in results if r["traced"]]
            if len(plain) < 2 and not traced_mode:
                continue
            if traced_mode and not tr:
                continue
            spent = time.monotonic() - begin
            next_traced = traced_mode and len(results) % 2 == 1
            pool = tr if next_traced else plain
            estimate = statistics.median(r["elapsed_s"] for r in pool)
            if spent + estimate > self.args.seconds or estimate > self.remaining():
                return results

    def warm_up(self) -> bool:
        """One unmeasured iteration the first time a checkout runs a workload."""
        marker = os.path.join(self.state, f"warm-{self.args.workload}")
        if os.path.exists(marker):
            return False
        self.iteration(traced=False)
        with open(marker, "w") as f:
            f.write("warm\n")
        return True

    def serial_sweep_check(self, parallel_digest: str, src_digest: str) -> dict:
        """Digest of the sweep with workers = 1, once per source tree.

        The verdict is kept in .perfbench/state so later runs of the same
        code reuse it instead of paying for a serial sweep again.
        """
        path = os.path.join(self.state, f"sweep-serial-{src_digest[:16]}.json")
        if os.path.exists(path):
            with open(path) as f:
                verdict = json.load(f)
            verdict["cached"] = True
            return verdict
        res = self.iteration(traced=False, workers=1)
        verdict = {
            "seed": self.args.seed,
            "parallel_digest": parallel_digest,
            "serial_digest": res["digest"],
            "ok": res["digest"] == parallel_digest and not res["failures"],
        }
        with open(path, "w") as f:
            json.dump(verdict, f)
        verdict["cached"] = False
        return verdict


def trace_count_checks(shape: Shape, stats: dict, trace: dict, missing: list) -> list:
    """Traced counts against counts derived from metrics.csv and the config."""
    layers = trace["layers"]
    n_arms = len(shape.arms)
    expected = {
        ("fl_engine.sgd_epoch", "samples"): stats["sample_steps"],
        ("fl_engine.sgd_epoch", "calls"): stats["sgd_epoch_calls"],
        ("fl_engine.train_local", "calls"): stats["members"]["fello"],
        ("fl_engine.evaluate", "calls"): stats["evaluate_calls"],
        ("lesc.membership_schedule", "calls"): n_arms,
        ("scenario.run_one", "calls"): n_arms,
        ("scenario.build_datasets", "calls"): n_arms if shape.pooled_sweep else len(shape.points),
    }
    failures = []
    for (label, key), want in expected.items():
        if label in missing:
            continue
        stat = layers.get(label, {"calls": 0, "counters": {}})
        got = stat["calls"] if key == "calls" else stat["counters"].get(key, 0)
        if got != want:
            failures.append(f"trace count {label}.{key} = {got}, derived {want}")
    if shape.pooled_sweep:
        worker_tasks = [r for r in trace["roots"] if r[1] == "scenario.run_one"]
        if len(worker_tasks) != n_arms:
            failures.append(
                f"trace: {len(worker_tasks)} run_one spans from pool workers, expected {n_arms}"
            )
    return failures


# ------------------------------------------------------------------ metrics

def median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(plain: list, attempted: int, failed: int) -> dict:
    ok = [r for r in plain if "wall_s" in r and r["stats"] is not None]
    acc = {}
    for arch in ("fello", "cl"):
        lasts = ok[0]["stats"]["last_acc"][arch] if ok else []
        acc[arch] = statistics.fmean(lasts) if lasts else 0.0
    values = {
        "wall_s": median([r["wall_s"] for r in ok]),
        "setup_s": median([r["setup_s"] for r in ok]),
        "cpu_s": median([r["cpu_s"] for r in ok]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in ok]),
        "train_samples_per_s": median([r["stats"]["sample_steps"] / r["wall_s"] for r in ok]),
        "acc_fello": acc["fello"],
        "acc_cl": acc["cl"],
        "ok_share": 1.0 - failed / attempted,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def percentile_ms(durations: list, decile: int) -> float:
    if len(durations) < 2:
        return sum(durations) * 1e3
    return statistics.quantiles(durations, n=10, method="inclusive")[decile - 1] * 1e3


def layer_metrics(trace: dict) -> dict:
    """Per-layer numbers of one traced iteration, named module.function.stat."""
    layers = trace["layers"]
    empty = {"calls": 0, "span_s": 0.0, "self_s": 0.0, "durations": [], "counters": {}}

    def get(label):
        return layers.get(label, empty)

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for label, stats in (
        ("fl_engine.sgd_epoch", ("calls", "self_s")),
        ("fl_engine.train_local", ("calls",)),
        ("fl_engine.corrupt_vector", ("calls", "self_s")),
        ("fl_engine.aggregate", ("calls", "self_s")),
        ("fl_engine.evaluate", ("calls", "self_s")),
        ("fl_engine.partition_data", ("calls", "self_s")),
        ("seeding.substream", ("calls", "self_s")),
        ("optical_link.evaluate_link", ("calls", "self_s")),
        ("orbits.positions_at", ("calls", "self_s")),
        ("lesc.membership_schedule", ("calls", "self_s")),
        ("lesc.cluster", ("calls", "self_s")),
        ("lesc.run_fello", ("self_s",)),
        ("baselines.run_cl", ("self_s",)),
        ("baselines.run_dl", ("self_s",)),
        ("datasets.synthetic_split", ("calls", "self_s")),
        ("scenario.build_datasets", ("calls",)),
        ("scenario.run_one", ("calls",)),
        ("config.load_config", ("self_s",)),
        ("overhead.build_reports", ("self_s",)),
    ):
        for stat in stats:
            unit = "count" if stat == "calls" else "s"
            put(f"{label}.{stat}", get(label)[stat], unit)

    sgd = get("fl_engine.sgd_epoch")
    gflop = sgd["counters"].get("gflop", 0.0)
    put("fl_engine.sgd_epoch.samples", sgd["counters"].get("samples", 0), "count")
    put("fl_engine.sgd_epoch.p50_ms", percentile_ms(sgd["durations"], 5), "ms")
    put("fl_engine.sgd_epoch.p90_ms", percentile_ms(sgd["durations"], 9), "ms")
    put("fl_engine.sgd_epoch.gflop", gflop, "GFLOP_computed")
    put("fl_engine.sgd_epoch.gflop_per_s", gflop / sgd["span_s"] if sgd["span_s"] else 0.0,
        "GFLOP/s")
    put("fl_engine.corrupt_vector.values",
        get("fl_engine.corrupt_vector")["counters"].get("values", 0), "values_computed")
    put("fl_engine.partition_data.bytes",
        get("fl_engine.partition_data")["counters"].get("bytes", 0), "bytes_computed")
    put("datasets.synthetic_split.bytes",
        get("datasets.synthetic_split")["counters"].get("bytes", 0), "bytes_computed")

    pm = get("lesc.parallel_map")["counters"]
    capacity = pm.get("capacity_s", 0.0)
    put("lesc.parallel_map.wall_s", pm.get("wall_s", 0.0), "s")
    put("lesc.parallel_map.busy_s", pm.get("busy_s", 0.0), "s")
    put("lesc.parallel_map.busy_share", pm.get("busy_s", 0.0) / capacity if capacity else 0.0,
        "ratio")

    tasks = [r for r in trace["roots"] if r[1] == "scenario.run_one"]
    task_s = sum(end - start for _, _, start, end in tasks)
    busy_share = 0.0
    if tasks:
        window = max(r[3] for r in tasks) - min(r[2] for r in tasks)
        n_workers = len({r[0] for r in tasks})
        busy_share = task_s / (n_workers * window) if window > 0 else 0.0
    put("scenario.pool.task_s", task_s, "s")
    put("scenario.pool.busy_share", busy_share, "ratio")
    put("scenario.outputs.self_s",
        get("scenario.render_metrics")["self_s"] + get("scenario.emit_overhead_report")["self_s"],
        "s")

    modules = {}
    for label, stat in layers.items():
        module = label.split(".")[0]
        modules[module] = modules.get(module, 0.0) + stat["self_s"]
    for module in tracer.LAYERS:
        put(f"{module}.self_s", modules.get(module, 0.0), "s")
    put("trace.self_s", sum(modules.values()), "s")
    return out


def per_layer(results: list) -> tuple:
    """Medians over traced iterations, plus tracing overhead and design checks."""
    traced = [r for r in results if r["traced"] and "trace" in r]
    plain = [r for r in results if not r["traced"] and "wall_s" in r]
    tables = [layer_metrics(r["trace"]) for r in traced]
    out = {}
    for name, (_, unit) in tables[0].items():
        out[name] = {"value": median([t[name][0] for t in tables]), "unit": unit}
    traced_wall = median([r["wall_s"] for r in traced if "wall_s" in r])
    plain_wall = median([r["wall_s"] for r in plain])
    out["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    out["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    out["trace.overhead_share"] = {
        "value": (traced_wall - plain_wall) / plain_wall if plain_wall else 0.0, "unit": "ratio"}
    stats = traced[0]["stats"] if traced[0]["stats"] else None
    if stats:
        out["shape.handovers_min"] = {"value": min(stats["handovers"].values()), "unit": "count"}
        out["shape.reclusters_min"] = {"value": min(stats["reclusters"].values()), "unit": "count"}
        out["shape.acc_dl"] = {"value": statistics.fmean(stats["last_acc"]["dl"]),
                               "unit": "fraction"}
    counts = [{k: v[0] for k, v in t.items() if v[1] in ("count", "values_computed",
                                                          "bytes_computed", "GFLOP_computed")}
              for t in tables]
    repeat = all(c == counts[0] for c in counts)
    return out, repeat, design_checks(out)


def design_checks(layer: dict) -> dict:
    """What the trace says about each workload's reason to exist."""
    v = {k: m["value"] for k, m in layer.items()}
    functions = {k: val for k, val in v.items()
                 if k.endswith(".self_s") and k.count(".") == 2}
    geometry = sum(v[f"{m}.self_s"] for m in ("seeding", "optical_link", "lesc", "orbits"))
    return {
        "sgd_epoch_largest_self_s": max(functions, key=functions.get) == "fl_engine.sgd_epoch.self_s",
        "links_seeding_lesc_orbits_share": geometry / v["trace.self_s"] if v["trace.self_s"] else 0.0,
        "build_datasets_calls": v["scenario.build_datasets.calls"],
        "parallel_map_busy_s": v["lesc.parallel_map.busy_s"],
    }


# -------------------------------------------------------------- environment

def source_digest(src: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(src, "fello_sim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def cgroup_cpu_limit():
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        try:
            with open(path) as f:
                return f.read().strip()
        except OSError:
            continue
    return None


def git_revision(root: str):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(bench: Bench) -> dict:
    log = os.path.join(bench.work, "probe.txt")
    argv = [sys.executable, bench.workload_py, "--src", bench.src, "--probe"]
    proc = run_child(argv, log, 60.0)
    with open(log) as f:
        lines = f.read().splitlines()
    facts = json.loads(lines[-1]) if proc["rc"] == 0 and lines else {}
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cgroup_cpu_limit": cgroup_cpu_limit(),
        "machine": platform.machine(),
        "blas_threads_pinned": BLAS_THREADS,
        "git_revision": git_revision(bench.root),
        "source_sha256": source_digest(bench.src),
        "seed": bench.args.seed,
        **facts,
    }


# --------------------------------------------------------------------- main

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="fello-sim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fello_sim", "scenario.py")):
        print("perfbench: run from the repository root; src/fello_sim is missing",
              file=sys.stderr)
        return 2
    bench = Bench(root, args)
    os.makedirs(bench.work)
    os.makedirs(bench.state, exist_ok=True)
    try:
        return report(bench)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)


def report(bench: Bench) -> int:
    args = bench.args
    env = environment(bench)
    run_failures = []
    if env.get("threads_after_matmul") != BLAS_THREADS:
        run_failures.append(f"BLAS pin not in effect in probe: {env.get('threads_after_matmul')}")
    warmed = bench.warm_up()
    results = bench.measure()

    digests = {r["digest"] for r in results}
    if len(digests) != 1:
        run_failures.append(f"metrics.csv differs between iterations: {sorted(map(str, digests))}")
    digest = results[0]["digest"]
    serial = None
    if bench.shape.pooled_sweep and digest is not None:
        serial = bench.serial_sweep_check(digest, env["source_sha256"])
        if not serial["ok"]:
            run_failures.append(f"sweep with workers = 1 differs: {serial}")

    plain = [r for r in results if not r["traced"]]
    attempted = len(results) * len(bench.shape.arms)
    failed = sum(r["failed_arms"] for r in results) + len(run_failures)
    design = None
    if args.trace:
        metrics, repeat, design = per_layer(results)
        if not repeat:
            run_failures.append("traced counts differ between traced iterations")
            failed += 1
    else:
        metrics = end_to_end(plain, attempted, failed)
    failed = min(failed, attempted)
    correct = failed == 0

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "warm_up_iteration": warmed,
        "metrics_sha256": digest,
        "serial_sweep_check": serial,
        "design_checks": design,
        "run_failures": run_failures,
        "iterations": [
            {k: r.get(k) for k in ("traced", "rc", "wall_s", "setup_s", "cpu_s",
                                   "peak_rss_mb", "blas_threads", "failures", "elapsed_s")}
            for r in results
        ],
        "samples": len(plain) if not args.trace else len(results) - len(plain),
        "schedule": {k: results[0]["stats"][k] for k in ("handovers", "reclusters",
                                                          "sample_steps")}
        if results[0]["stats"] else None,
        "environment": env,
    }
    for name, m in sorted(metrics.items()):
        print(f"{args.workload:6s} {name:42s} {m['value']:>16.6g} {m['unit']}")
    for r in results:
        for failure in r["failures"]:
            print(f"FAILED: {failure}")
    for failure in run_failures:
        print(f"FAILED: {failure}")
    print("perfbench-record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
