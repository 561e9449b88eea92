"""One workload process: load a scenario file, run it, record timestamps.

Usage:
    python3 perfbench/workload.py --src SRC --config FILE --marks FILE [--trace-dir DIR]
    python3 perfbench/workload.py --src SRC --probe

Timestamps are `time.monotonic()` values, comparable with the parent's
clock. The marks file gets one JSON line per event:

    {"event": "blas", "threads": N}          threads after a warm matmul
    {"event": "patched", ...}                traced runs: names left unpatched, missing
    {"event": "built", "pid": P, "t": T}     a build_datasets call returned
    {"event": "done", "pid": P, "t": T, "rc": RC}   outputs are written

`built` lines come from the sweep's forked pool workers too, which inherit
the patched `scenario.build_datasets`. `--probe` prints the software and
BLAS facts as JSON instead of running anything.
"""

import argparse
import json
import os
import platform
import sys
import time


def _thread_count() -> int:
    return len(os.listdir("/proc/self/task"))


def _warm_blas(np) -> int:
    """Threads of this process after a matmul large enough to start BLAS threads."""
    a = np.ones((512, 512))
    (a @ a).sum()
    return _thread_count()


def _append(path: str, record: dict):
    line = json.dumps(record) + "\n"
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, line.encode())
    finally:
        os.close(fd)


def probe(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "threads_after_matmul": _warm_blas(np),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding fello_sim")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--config")
    parser.add_argument("--marks")
    parser.add_argument("--trace-dir")
    args = parser.parse_args()

    import numpy as np

    if args.probe:
        print(json.dumps(probe(np)))
        return 0
    _append(args.marks, {"event": "blas", "threads": _warm_blas(np)})

    sys.path.insert(0, args.src)
    from fello_sim import config, scenario

    tracer = None
    if args.trace_dir:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer(args.trace_dir).install()
        _append(args.marks, {"event": "patched", "unpatched": tracer.unpatched(),
                             "missing": tracer.missing})

    build_datasets = scenario.build_datasets

    def marked_build_datasets(*a, **kw):
        result = build_datasets(*a, **kw)
        _append(args.marks, {"event": "built", "pid": os.getpid(), "t": time.monotonic()})
        return result

    scenario.build_datasets = marked_build_datasets

    cfg = config.load_config(args.config)
    rc = scenario.run_scenario(cfg)
    _append(args.marks, {"event": "done", "pid": os.getpid(), "t": time.monotonic(),
                         "rc": rc})
    if tracer is not None:
        tracer.dump()
    return rc


if __name__ == "__main__":
    sys.exit(main())
