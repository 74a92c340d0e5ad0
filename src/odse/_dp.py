"""Build, cache and load the compiled kernels in `_dp.c`.

The one shared library holds three kernels: the alignment dynamic
program behind `alignment.dissimilarity_table` and
`alignment.alignment_cost_rows`, one sweep of the SVM solver
`classifiers.smo_solve`, and the Parzen kernel exponents of one column
for `entropy.column_scores`.  It is compiled with the system C compiler
on the first kernel call, never at import.  It is cached under a name
keyed by a hash of the source and the compiler flags, first in the
package's `__pycache__` directory and, when that is not writable, in
`~/.cache/odse`.  Each build writes a temporary file and moves it into
place with `os.replace`, so a concurrent process never loads a partial
library.  A build in the package's own directory removes the libraries
of earlier sources there; `~/.cache/odse` is left alone, since installs
of other versions share it.  When no compiler is found or no build
succeeds, `load` returns None and each caller runs its numpy loop
instead.

Only this module speaks C: callers pass each kernel C-contiguous arrays
of its C parameter's dtype, and `_open` alone writes out the argument
order, pointers, sizes, stride, status and bias out-parameter.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import re
import shutil
import subprocess
import tempfile
import threading
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

SOURCE = Path(__file__).with_name("_dp.c")
# -ffp-contract=off keeps every multiply and add separate, as numpy does
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
COMPILERS = ("cc", "gcc", "clang")

_log = logging.getLogger(__name__)
_lock = threading.Lock()
_UNSET = object()
_kernel = _UNSET


def compiler() -> str | None:
    """Path of the first C compiler found on PATH, or None."""
    for name in COMPILERS:
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def library_name() -> str:
    digest = hashlib.sha256(SOURCE.read_bytes() + " ".join(FLAGS).encode()).hexdigest()
    return f"_dp-{digest[:16]}.so"


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
    """The kernels of one loaded library, called with numpy arrays of
    each C parameter's dtype, C-contiguous except for the strided Parzen
    column, and plain scalars.  `cost_table` raises MemoryError when the
    kernel cannot allocate its scratch; `smo_sweep` returns the new bias
    and the number of pair steps."""

    cost_table: Callable[..., None]
    smo_sweep: Callable[..., tuple[float, int]]
    parzen_exponents: Callable[..., None]


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
    return None


def load() -> Kernels | None:
    """The compiled kernels, built on the first call; None when they
    cannot be built or loaded."""
    global _kernel
    if _kernel is _UNSET:
        with _lock:
            if _kernel is _UNSET:
                _kernel = _find_or_build()
    return _kernel
