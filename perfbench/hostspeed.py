"""A fixed reference computation that gauges how fast the host runs right now.

On a shared host the speed of one core can swing by a third for seconds to
minutes at a time, which moves every wall time with it. The benchmark times
this computation right before and right after each operation and each
set-up, and scales the measured time by ``REFERENCE_S`` over the mean of the
two reference times. The result is the time the work would take on a host on
which the reference takes ``REFERENCE_S``: the host's swings cancel, and a
change to the toolkit still moves it in full, because the reference runs none
of the toolkit's code.

The reference mixes interpreter work (float formatting and an integer loop)
with matrix products that OpenBLAS spreads over its threads, like the toolkit
does: on a shared host the other tenants slow the two kinds of work by
different amounts. The products run on the thread count OpenBLAS had when
this module was imported; if the toolkit sets another, it is restored after
each reference, so the setting changes the toolkit's times and not the
reference.
"""

from __future__ import annotations

import ctypes
import glob
import os
import time

import numpy as np

REFERENCE_S = 0.09          # nominal duration of one reference computation

_RNG = np.random.Generator(np.random.Philox(0))
_FLOATS = _RNG.standard_normal(40000).tolist()
_SQUARE = _RNG.standard_normal((800, 800)) / 30.0


def _work():
    lines = []
    for j in range(0, len(_FLOATS), 56):
        lines.append(",".join(repr(v) for v in _FLOATS[j:j + 56]))
    total = 0
    for i in range(100000):
        total += i * i
    m = _SQUARE
    for _ in range(3):
        m = _SQUARE @ np.tanh(m)
    return lines, total, m


def _openblas():
    """Get and set functions of numpy's bundled OpenBLAS thread count, or Nones."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None, None


_GET_THREADS, _SET_THREADS = _openblas()
BLAS_THREADS = _GET_THREADS() if _GET_THREADS else None


def blas_threads():
    """OpenBLAS's current thread count, or None if it cannot be queried."""
    return _GET_THREADS() if _GET_THREADS else None


def reference_s():
    """Wall time of one reference computation, in seconds."""
    current = blas_threads()
    if current != BLAS_THREADS:
        _SET_THREADS(BLAS_THREADS)
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if current != BLAS_THREADS:
            _SET_THREADS(current)


def scaled(elapsed_s, *refs_s):
    """``elapsed_s`` on a host on which the reference takes ``REFERENCE_S``.

    ``refs_s`` are reference times measured around the elapsed time.
    """
    return elapsed_s * REFERENCE_S * len(refs_s) / sum(refs_s)
