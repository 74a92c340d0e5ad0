"""The three numeric kernels, compiled from `_dp.c` or in numpy.

The one shared library holds three kernels: the alignment dynamic
program behind `alignment.dissimilarity_table` and
`alignment.alignment_cost_rows`, one sweep of the SVM solver
`classifiers.smo_solve`, and the Parzen kernel exponents of one column
for `entropy.column_scores`.  It is compiled with the system C compiler
on the first kernel call, never at import.  It is cached under a name
keyed by a checksum of the source and the compiler flags, first in the
package's `__pycache__` directory and, when that is not writable, in
`~/.cache/odse`.  Each build writes a temporary file and moves it into
place with `os.replace`, so a concurrent process never loads a partial
library.  A build in the package's own directory removes the libraries
of earlier sources there; `~/.cache/odse` is left alone, since installs
of other versions share it.

Only this module picks the kernels: `load` returns the compiled ones,
or `NUMPY` when no library builds or loads.  The numpy twins do the
same floating-point operations in the same order, so they are the
reference the compiled kernels are tested against.  Only this module
speaks C: `_open` alone writes out the argument order, pointers, sizes,
stride, status and bias out-parameter.
"""

from __future__ import annotations

import ctypes
import logging
import os
import re
import shutil
import subprocess
import tempfile
import threading
import zlib
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np

SOURCE = Path(__file__).with_name("_dp.c")
# -ffp-contract=off keeps every multiply and add separate, as numpy does
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
COMPILERS = ("cc", "gcc", "clang")

_log = logging.getLogger(__name__)
_lock = threading.Lock()
_kernel = None


def compiler() -> str | None:
    """Path of the first C compiler found on PATH, or None."""
    for name in COMPILERS:
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def library_name() -> str:
    # CRC-32 of the even and of the odd bytes, as cffi names its modules:
    # zlib is loaded with numpy, where hashlib would load OpenSSL
    key = SOURCE.read_bytes() + " ".join(FLAGS).encode()
    return f"_dp-{zlib.crc32(key[0::2]):08x}{zlib.crc32(key[1::2]):08x}.so"


def cache_dirs() -> tuple[Path, ...]:
    return (SOURCE.parent / "__pycache__", Path.home() / ".cache" / "odse")


# a cached library, not a build's temporary file (which has a suffix
# after the hash)
_LIBRARY = re.compile(r"_dp-[0-9a-f]{16}\.so")


def _remove_stale(directory: Path, keep: Path) -> None:
    for path in directory.iterdir():
        if path != keep and _LIBRARY.fullmatch(path.name):
            try:
                path.unlink()
            except OSError:
                pass


def _build(cc: str, target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=target.stem, suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        subprocess.run(
            [cc, *FLAGS, "-o", tmp, str(SOURCE)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class Kernels(NamedTuple):
    """The three kernels, called with numpy arrays of each C parameter's
    dtype, C-contiguous except for the strided Parzen column, and plain
    scalars.  `cost_table` raises MemoryError when the compiled kernel
    cannot allocate its scratch; `smo_sweep` returns the new bias and
    the number of pair steps."""

    cost_table: Callable[..., None]
    smo_sweep: Callable[..., tuple[float, int]]
    parzen_exponents: Callable[..., None]


def numpy_cost_rows(query, proto_mat, proto_lens, sub_cost, gap) -> np.ndarray:
    """Global-alignment costs of one encoded query against a batch of
    encoded, padded targets, in numpy.

    Runs the classic dynamic program one query symbol at a time across the
    whole batch.  The within-row insertion recurrence
    cur[j] = min(m[j], cur[j-1] + gap) is solved as a prefix minimum of
    m[k] - k*gap, which keeps every step vectorized.  Padded columns never
    influence the value gathered at each target's true length.
    """
    n_targets, width = proto_mat.shape
    jg = gap * np.arange(width + 1, dtype=np.float64)
    state = np.tile(jg, (n_targets, 1))
    cand = np.empty((n_targets, width + 1), dtype=np.float64)
    for i, a in enumerate(query):
        np.minimum(
            state[:, :-1] + sub_cost[a, proto_mat],
            state[:, 1:] + gap,
            out=cand[:, 1:],
        )
        cand[:, 0] = (i + 1) * gap
        np.minimum.accumulate(cand - jg, axis=1, out=state)
        state += jg
    return state[np.arange(n_targets), proto_lens]


def numpy_cost_table(codes, starts, targets, lens, sub, gap, cols, out):
    """The raw cost of query q, codes[starts[q]:starts[q + 1]], to target
    k, written to out[q, cols[k]]: one `numpy_cost_rows` call per query."""
    for q, (lo, hi) in enumerate(zip(starts, starts[1:])):
        out[q, cols] = numpy_cost_rows(codes[lo:hi], targets, lens, sub, gap)


def numpy_smo_sweep(k, y, eta, c, tol, step_eps, alphas, errors, b):
    """One sweep of `classifiers.smo_solve` over i = 0..n-1, where
    eta[i, j] is pair (i, j)'s curvature.  A clipped step below
    step_eps makes a partner infeasible.

    alphas and errors are updated in place; returns the new bias and the
    number of pair steps taken.
    """
    n = y.shape[0]
    changed = 0
    for i in range(n):
        e_i = errors[i]
        r_i = e_i * y[i]
        if not ((r_i < -tol and alphas[i] < c) or (r_i > tol and alphas[i] > 0)):
            continue
        # every partner at once, in the operand order of the pair update
        a_i = alphas[i]
        same = y == y[i]
        lo = np.maximum(0.0, np.where(same, (a_i + alphas) - c, alphas - a_i))
        hi = np.minimum(c, np.where(same, a_i + alphas, (c + alphas) - a_i))
        eta_i = eta[i]
        # infeasible partners may divide by zero or overflow; they are masked
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a_new = np.minimum(np.maximum(alphas + y * (e_i - errors) / eta_i, lo), hi)
        feasible = (lo < hi) & (eta_i > 0.0) & ~(np.abs(a_new - alphas) < step_eps)
        feasible[i] = False
        if not feasible.any():
            continue
        j = int(np.argmax(np.where(feasible, np.abs(errors - e_i), -1.0)))
        a_j, a_j_new = alphas[j], a_new[j]
        a_i_new = a_i + y[i] * y[j] * (a_j - a_j_new)
        d_i = y[i] * (a_i_new - a_i)
        d_j = y[j] * (a_j_new - a_j)
        b1 = b - e_i - d_i * k[i, i] - d_j * k[i, j]
        b2 = b - errors[j] - d_i * k[i, j] - d_j * k[j, j]
        if 0.0 < a_i_new < c:
            b_new = b1
        elif 0.0 < a_j_new < c:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)
        errors += d_i * k[:, i] + d_j * k[:, j] + (b_new - b)
        alphas[i], alphas[j] = a_i_new, a_j_new
        b = b_new
        changed += 1
    return b, changed


def numpy_parzen_exponents(column, scale, out):
    """out[a, b] = (column[a] - column[b])**2 / scale."""
    np.subtract(column[:, None], column[None, :], out=out)
    np.multiply(out, out, out=out)
    np.divide(out, scale, out=out)


NUMPY = Kernels(numpy_cost_table, numpy_smo_sweep, numpy_parzen_exponents)


def _open(path: Path) -> Kernels:
    lib = ctypes.CDLL(str(path))
    ptr, size, real = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double
    cost_table = lib.odse_cost_table
    cost_table.argtypes = (ptr, ptr, size, ptr, ptr, size, size, ptr, size, real, ptr, size, ptr)
    cost_table.restype = ctypes.c_int
    smo_sweep = lib.odse_smo_sweep
    smo_sweep.argtypes = (ptr, ptr, ptr, size, real, real, real, ptr, ptr, ctypes.POINTER(real))
    smo_sweep.restype = size
    parzen_exponents = lib.odse_parzen_exponents
    parzen_exponents.argtypes = (ptr, size, size, real, ptr)
    parzen_exponents.restype = None

    # .ctypes.data, not ndpointer argtypes, which cost more per call
    def table(codes, starts, targets, lens, sub, gap, cols, out):
        if cost_table(codes.ctypes.data, starts.ctypes.data, len(starts) - 1, targets.ctypes.data,
                      lens.ctypes.data, *targets.shape, sub.ctypes.data, len(sub), float(gap),
                      cols.ctypes.data, out.shape[1], out.ctypes.data):
            raise MemoryError("alignment kernel could not allocate its scratch")

    def sweep(k, y, eta, c, tol, step_eps, alphas, errors, b):
        bias = real(b)
        changed = smo_sweep(
            k.ctypes.data, y.ctypes.data, eta.ctypes.data, len(y), float(c), float(tol),
            step_eps, alphas.ctypes.data, errors.ctypes.data, ctypes.byref(bias),
        )
        return bias.value, changed

    def parzen(column, scale, out):
        stride = column.strides[0] // column.itemsize
        parzen_exponents(column.ctypes.data, stride, len(column), scale, out.ctypes.data)

    return Kernels(table, sweep, parzen)


def _find_or_build():
    cc = compiler()
    failures = []
    dirs = cache_dirs()
    for directory in dirs:
        try:
            path = directory / library_name()
            if not path.exists():
                if cc is None:
                    continue
                _build(cc, path)
                if directory == dirs[0]:
                    _remove_stale(directory, path)
            return _open(path)
        except (OSError, subprocess.SubprocessError) as exc:
            stderr = getattr(exc, "stderr", None) or b""
            failures.append(f"{directory}: {exc} {stderr.decode(errors='replace').strip()}")
    if failures:
        _log.warning("compiled kernels unavailable, using the numpy loops: %s", "; ".join(failures))
    elif cc is None:
        _log.debug("no C compiler on PATH; using the numpy loops")
    return NUMPY


def load() -> Kernels:
    """The kernels every caller runs, picked on the first call: the
    compiled ones, built if need be, or `NUMPY` when they cannot be
    built or loaded."""
    global _kernel
    if _kernel is None:
        with _lock:
            if _kernel is None:
                _kernel = _find_or_build()
    return _kernel
