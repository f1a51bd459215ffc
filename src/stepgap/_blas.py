"""The OpenBLAS thread count of numpy's and scipy's libraries.

Most solves of this package are small: batched 2 x 2 ``eigh``, 256-wide
``eigvalsh``, 2n x 2n Schur forms, Krylov steps over a few vectors.  On
two cores a second OpenBLAS thread slows them, or keeps a core spinning
without saving wall time, while dense and Lanczos solves of wide Pauli
blocks gain from it.  So :func:`limited` runs a block at one thread, and
:func:`unlimited` re-enters, inside it, the counts in force outside it;
outside :func:`limited` neither changes anything.  The command line runs
every command limited, and the wide solves that
:func:`stepgap.spectra.solve_threads` names unlimited.

The libraries are found once, on first use, among those the numpy and
scipy wheels bundle (``numpy.libs``, ``scipy.libs``, or ``.dylibs`` on
macOS), by their ``[scipy_]openblas_{get,set}_num_threads[64_]``
symbols.  Where none is found every function here is a no-op and the
count reads None.  The count is one per process: threads that enter these
blocks at once set it for each other.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from contextvars import ContextVar
from pathlib import Path

_NAMES = tuple((f"{prefix}_get_num_threads{suffix}",
                f"{prefix}_set_num_threads{suffix}")
               for prefix in ("scipy_openblas", "openblas")
               for suffix in ("64_", ""))

#: each library's count outside every :func:`limited` block, inside one
_starting: ContextVar[tuple[int, ...] | None] = ContextVar(
    "starting", default=None)


@functools.cache
def _libraries() -> tuple:
    """``(get, set)`` of each OpenBLAS bundled with numpy or scipy."""
    import numpy
    import scipy
    found = []
    for package in (numpy, scipy):
        root = Path(package.__file__).parent
        for path in sorted([*root.parent.glob(f"{root.name}.libs/*openblas*"),
                            *root.glob(".dylibs/*openblas*")]):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for names in _NAMES:
                get, put = (getattr(lib, name, None) for name in names)
                if get and put:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    found.append((get, put))
                    break
    return tuple(found)


def _counts() -> tuple[int, ...]:
    return tuple(get() for get, _ in _libraries())


def _set(counts) -> None:
    for (_, put), count in zip(_libraries(), counts):
        put(count)


def threads() -> int | None:
    """The largest thread count in force among the libraries found, or
    None where none is."""
    return max(_counts(), default=None)


@contextlib.contextmanager
def limited():
    """One thread in every library for the block; the counts in force at
    entry are restored on exit, after an exception too."""
    entry = _counts()
    token = _starting.set(_starting.get() or entry)
    _set((1,) * len(entry))
    try:
        yield
    finally:
        _starting.reset(token)
        _set(entry)


@contextlib.contextmanager
def unlimited():
    """Inside :func:`limited`, the counts in force outside it for the
    block, and on exit those at entry; elsewhere, nothing."""
    start = _starting.get()
    if not start:
        yield
        return
    entry = _counts()
    _set(start)
    try:
        yield
    finally:
        _set(entry)
