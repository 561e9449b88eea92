"""The loaded OpenBLAS's kernel and thread count, read and set through ctypes.

numpy links OpenBLAS dynamically, so the library is found among this
process's mapped files and its own entry points are called, threadpoolctl's
method (https://github.com/joblib/threadpoolctl). Symbols are tried under
numpy's wheel names (scipy_openblas_*64_) and a system build's (openblas_*).
With no recognised OpenBLAS, info() is empty and the setters do nothing.
"""

import contextlib
import ctypes
import os

_SYMBOLS = ("scipy_openblas_{}64_", "openblas_{}")
# entry point -> (argtypes, restype)
_SIGNATURES = {
    "get_corename": ([], ctypes.c_char_p),
    "get_num_threads": ([], ctypes.c_int),
    "set_num_threads": ([ctypes.c_int], None),
}


def _openblas():
    """The loaded OpenBLAS's typed entry points by name, or None."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f}
    except OSError:
        return None
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        lib = ctypes.CDLL(path)
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
