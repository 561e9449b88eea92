"""The loaded OpenBLAS's kernel and thread count, read and set through ctypes.

numpy links OpenBLAS dynamically, so the library is found among this
process's mapped files and its own entry points are called, threadpoolctl's
method (https://github.com/joblib/threadpoolctl), under its six symbol
spellings [scipy_]openblas_*[64_|_64]. With no recognised OpenBLAS, info() is
empty and the setters do nothing.
"""

import contextlib
import ctypes
import os

_SYMBOLS = tuple(f"{p}openblas_{{}}{s}" for p in ("", "scipy_") for s in ("", "64_", "_64"))
# entry point -> (argtypes, restype)
_SIGNATURES = {
    "get_corename": ([], ctypes.c_char_p),
    "get_num_threads": ([], ctypes.c_int),
    "set_num_threads": ([ctypes.c_int], None),
}


def _openblas():
    """The first loaded OpenBLAS (by path) with a known spelling's entry points, or None."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f}
    except OSError:
        return None
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        if entries := _entries(ctypes.CDLL(path)):
            return entries
    return None


def _entries(lib):
    """lib's typed entry points by name under the first spelling it exports, or None."""
    for symbol in _SYMBOLS:
        if hasattr(lib, symbol.format("set_num_threads")):
            entries = {name: getattr(lib, symbol.format(name)) for name in _SIGNATURES}
            for name, entry in entries.items():
                entry.argtypes, entry.restype = _SIGNATURES[name]
            return entries
    return None


def info() -> dict:
    """{"core": kernel name, "threads": thread count} of the loaded OpenBLAS, or {}."""
    entries = _openblas()
    if entries is None:
        return {}
    return {"core": entries["get_corename"]().decode(),
            "threads": entries["get_num_threads"]()}


def set_threads(n: int):
    """Set the loaded OpenBLAS to n threads; returns the count it had, or None."""
    entries = _openblas()
    if entries is None:
        return None
    before = entries["get_num_threads"]()
    entries["set_num_threads"](n)
    return before


@contextlib.contextmanager
def one_thread():
    """Run the body on one OpenBLAS thread, then restore the caller's count.

    A matrix product's summation order can follow the thread count, so this
    fixes a run's bytes; processes forked inside inherit the setting.
    """
    before = set_threads(1)
    try:
        yield
    finally:
        if before is not None:
            set_threads(before)
