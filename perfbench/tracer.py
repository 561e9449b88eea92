"""Span tracer that wraps fello_sim's layer functions from the outside.

`Tracer.install()` replaces each function named in `LAYERS` with a timing
wrapper, in its own module and in every fello_sim module that imported it
by value (`from .fl_engine import sgd_epoch` binds a second name that a
patch of `fl_engine` alone would miss). Nothing under `src/` changes.

Each thread keeps its own span stack, so work that `lesc.parallel_map` runs
on pool threads is charged to those threads' spans, not to whatever span
the main thread has open. A span's self time is its duration minus the
durations of its child spans on the same thread.

Forked processes (the sweep's process pool) start with empty tables and
write their spans to `<out_dir>/spans-<pid>-<n>.json` each time a root
span closes; `dump()` writes the calling process's tables the same way.
`load_dir()` merges every file of a run.
"""

import functools
import importlib
import json
import os
import pkgutil
import sys
import threading
import time

PACKAGE = "fello_sim"

# module -> functions traced as layer boundaries
LAYERS = {
    "orbits": ("positions_at",),
    "optical_link": ("evaluate_link",),
    "seeding": ("substream",),
    "lesc": ("membership_schedule", "cluster", "run_fello", "parallel_map"),
    "fl_engine": (
        "sgd_epoch", "train_local", "corrupt_vector", "aggregate", "evaluate",
        "partition_data",
    ),
    "baselines": ("run_cl", "run_dl"),
    "datasets": ("synthetic_split",),
    "scenario": (
        "run_scenario", "build_datasets", "run_one", "render_metrics",
        "emit_overhead_report",
    ),
    "config": ("load_config",),
    "overhead": ("build_reports",),
}

# per-call durations are kept only where percentiles are reported
KEEP_DURATIONS = {"fl_engine.sgd_epoch"}

FLOAT_BYTES = 8


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_sgd_epoch(args, kwargs):
    model = _arg(args, kwargs, 0, "model")
    data = _arg(args, kwargs, 1, "data")
    n = data.n_samples
    flops = 0
    dims = model.arch
    for layer, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        # forward matmul and weight gradient per layer, plus the input
        # gradient of every layer above the first
        matmuls = 2 if layer == 0 else 3
        flops += matmuls * 2 * n * fan_in * fan_out
    return {"samples": n, "gflop": flops / 1e9}


def _count_corrupt_vector(args, kwargs):
    return {"values": int(_arg(args, kwargs, 0, "vec").size)}


def _count_partition_data(args, kwargs):
    full = _arg(args, kwargs, 0, "full")
    clients = _arg(args, kwargs, 1, "clients")
    per_client = _arg(args, kwargs, 2, "samples_per_client")
    row = (full.n_features + 1) * FLOAT_BYTES
    return {"bytes": len(clients) * per_client * row}


def _count_synthetic_split(args, kwargs):
    n_classes = _arg(args, kwargs, 0, "n_classes")
    n_features = _arg(args, kwargs, 1, "n_features")
    train = _arg(args, kwargs, 2, "train_per_class")
    test = _arg(args, kwargs, 3, "test_per_class")
    return {"bytes": n_classes * (train + test) * (n_features + 1) * FLOAT_BYTES}


COUNTERS = {
    "fl_engine.sgd_epoch": _count_sgd_epoch,
    "fl_engine.corrupt_vector": _count_corrupt_vector,
    "fl_engine.partition_data": _count_partition_data,
    "datasets.synthetic_split": _count_synthetic_split,
}


class _Stat:
    __slots__ = ("calls", "span_s", "self_s", "durations", "counters")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.span_s = 0.0
        self.self_s = 0.0
        self.durations = [] if keep_durations else None
        self.counters = {}

    def to_dict(self) -> dict:
        return {
            "calls": self.calls,
            "span_s": self.span_s,
            "self_s": self.self_s,
            "durations": self.durations or [],
            "counters": self.counters,
        }


class Tracer:
    """Per-thread span stacks and per-layer tables for one process tree."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.missing = []
        self._patches = []
        self._root_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self):
        self._pid = os.getpid()
        self._forked = self._pid != self._root_pid
        self._local = threading.local()
        self._tables = []
        self._tables_lock = threading.Lock()
        self._roots = []
        self._flushes = 0

    def _after_fork(self):
        # the child inherits the parent's tables and open spans; drop both
        self._reset()

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.table = {}
            with self._tables_lock:
                self._tables.append(local.table)
        return local

    def _stat(self, table: dict, label: str) -> _Stat:
        stat = table.get(label)
        if stat is None:
            stat = table[label] = _Stat(label in KEEP_DURATIONS)
        return stat

    def add(self, label: str, counter: str, value: float):
        """Add to a counter of `label` in the calling thread's table."""
        counters = self._stat(self._thread_state().table, label).counters
        counters[counter] = counters.get(counter, 0) + value

    def wrap(self, label: str, fn):
        """`fn` wrapped to record one span named `label` per call."""
        tracer = self
        count = COUNTERS.get(label)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._thread_state()
            stack = state.stack
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stat = tracer._stat(state.table, label)
                stat.calls += 1
                stat.span_s += duration
                stat.self_s += duration - frame[0]
                if stat.durations is not None:
                    stat.durations.append(duration)
                if count is not None:
                    for key, value in count(args, kwargs).items():
                        stat.counters[key] = stat.counters.get(key, 0) + value
                if not stack:
                    tracer._root_closed(label, start, duration)

        return traced

    def wrap_parallel_map(self, label: str, fn):
        """Like `wrap`, plus busy and wall time of calls that use the pool.

        A call uses the pool when it has more than one worker and more than
        one item; `busy_s` sums the item calls' durations on every thread.
        """
        traced = self.wrap(label, fn)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def pool_map(item_fn, items, workers=1):
            if workers <= 1 or len(items) < 2:
                return traced(item_fn, items, workers)

            def timed(item):
                start = clock()
                try:
                    return item_fn(item)
                finally:
                    tracer.add(label, "busy_s", clock() - start)

            start = clock()
            try:
                return traced(timed, items, workers)
            finally:
                wall = clock() - start
                tracer.add(label, "pooled_calls", 1)
                tracer.add(label, "wall_s", wall)
                tracer.add(label, "capacity_s", workers * wall)

        return pool_map

    def _modules(self) -> list:
        pkg = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"{PACKAGE}.{info.name}")
        return [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self):
        """Wrap every function of `LAYERS` wherever a fello_sim module binds it."""
        modules = self._modules()
        for mod_name, names in LAYERS.items():
            home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for name in names:
                label = f"{mod_name}.{name}"
                original = getattr(home, name, None)
                if original is None:
                    self.missing.append(label)
                    continue
                if name == "parallel_map":
                    wrapper = self.wrap_parallel_map(label, original)
                else:
                    wrapper = self.wrap(label, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))
        return self

    def unpatched(self) -> list:
        """`module.attr` names still bound to an original traced function."""
        originals = {id(orig) for _, _, orig in self._patches}
        return [
            f"{module.__name__}.{attr}"
            for module in self._modules()
            for attr, value in vars(module).items()
            if id(value) in originals
        ]

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def _root_closed(self, label: str, start: float, duration: float):
        if not self._forked:
            return
        self._roots.append((label, start, start + duration))
        self._flushes += 1
        self.dump(os.path.join(self.out_dir, f"spans-{self._pid}-{self._flushes}.json"))

    def snapshot(self) -> dict:
        """This process's merged tables, as `load_dir` reads them."""
        merged = {}
        with self._tables_lock:
            tables = list(self._tables)
        for table in tables:
            for label, stat in list(table.items()):
                merge_stat(merged, label, stat.to_dict())
        return {"pid": self._pid, "forked": self._forked, "roots": self._roots,
                "layers": merged}

    def dump(self, path: str = None):
        """Write this process's spans and start a fresh table."""
        if path is None:
            path = os.path.join(self.out_dir, f"spans-{self._pid}-main.json")
        data = self.snapshot()
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(data, f)
        os.replace(tmp, path)
        with self._tables_lock:
            for table in self._tables:
                table.clear()
        self._roots = []


def merge_stat(merged: dict, label: str, stat: dict):
    into = merged.setdefault(
        label, {"calls": 0, "span_s": 0.0, "self_s": 0.0, "durations": [],
                "counters": {}}
    )
    into["calls"] += stat["calls"]
    into["span_s"] += stat["span_s"]
    into["self_s"] += stat["self_s"]
    into["durations"].extend(stat["durations"])
    for key, value in stat["counters"].items():
        into["counters"][key] = into["counters"].get(key, 0) + value


def load_dir(out_dir: str) -> dict:
    """Merge every span file of one traced run.

    Returns {"layers": merged tables, "roots": [(pid, label, start, end)]
    for root spans of forked processes}.
    """
    layers = {}
    roots = []
    for name in sorted(os.listdir(out_dir)):
        if not (name.startswith("spans-") and name.endswith(".json")):
            continue
        with open(os.path.join(out_dir, name)) as f:
            data = json.load(f)
        for label, stat in data["layers"].items():
            merge_stat(layers, label, stat)
        roots.extend((data["pid"], *root) for root in data["roots"])
    return {"layers": layers, "roots": roots}
