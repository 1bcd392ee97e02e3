"""Thread count of the OpenBLAS library that numpy's LAPACK calls run on.

The library is found among the shared objects mapped into this process
(``/proc/self/maps``) and driven through ctypes.  Where no OpenBLAS with
a known thread-count entry point is loaded, the helpers do nothing and
report None.
"""

import ctypes
from contextlib import contextmanager
from functools import lru_cache

import numpy  # noqa: F401  (loads the BLAS library that is looked up below)

# (getter, setter) entry points: scipy-openblas 64-bit builds as shipped in
# numpy wheels, then a plain OpenBLAS.
_ENTRY_POINTS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@lru_cache(maxsize=None)
def _openblas():
    """(get, set) ctypes functions of the first OpenBLAS found, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _ENTRY_POINTS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


def threads() -> int | None:
    """Current OpenBLAS thread count, or None without OpenBLAS."""
    fns = _openblas()
    return None if fns is None else fns[0]()


def set_threads(n: int) -> None:
    """Set the OpenBLAS thread count (no-op without OpenBLAS)."""
    fns = _openblas()
    if fns is not None:
        fns[1](n)


@contextmanager
def limited(n: int):
    """Run the block with OpenBLAS on `n` threads, then restore the count."""
    before = threads()
    if before is None:
        yield
        return
    set_threads(n)
    try:
        yield
    finally:
        set_threads(before)
