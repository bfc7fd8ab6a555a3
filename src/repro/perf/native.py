"""The native Brandes kernel: compiled on first use, loaded with ctypes.

``brandes.c`` beside this module accumulates weighted Brandes
dependencies for a slice of sources, bit-identical to the numpy loop
in :mod:`repro.core.betweenness` (the C file says why).  Nothing
happens at import: the first :func:`library` call in a process

1. hashes the C source, the compiler flags and the machine type into a
   file name under ``$XDG_CACHE_HOME/domainnet/`` (default
   ``~/.cache/domainnet/``) and loads that library if it exists;
2. otherwise compiles the source with the system C compiler (``cc``,
   ``gcc`` or ``clang``, the first on ``PATH``) into a temporary file
   in that directory and publishes it by atomic rename, so servers
   started together race safely;
3. loads it with :class:`ctypes.CDLL`, which releases the GIL for the
   length of every call.

A process tries once.  With no compiler, a failed compile or an
unwritable cache directory :func:`library` returns ``None`` from then
on and the ``"brandes"`` kernel keeps running the numpy loop;
:func:`status` says what happened.  The first load is serialized by a
lock, which a forked child replaces, so a pool forked while another
thread loads cannot inherit it held.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Dict, Optional

import numpy as np

#: The kernel's C source, shipped as package data.
SOURCE = Path(__file__).with_name("brandes.c")
#: Compiler flags.  ``-ffp-contract=off`` keeps every multiply and add
#: separately rounded, as numpy's are; the flags are part of the cache
#: key.
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
#: Compiler names looked up on ``PATH``, in order; the first found is
#: the one used.
COMPILERS = ("cc", "gcc", "clang")
#: Seconds a compile may take before the process falls back.
COMPILE_TIMEOUT = 120
#: Work one native call may do, in nodes plus twice the CSR entries
#: per source: a chunk's sources run in slices of this much, so Ctrl-C
#: is noticed between slices (each took 7-40 ms on a 2-CPU host).
SLICE_WORK = 1 << 24


class _Loader:
    """What this process knows about the native library."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.attempts = 0
        self.done = False
        self.compiled = False
        self.path: Optional[Path] = None
        self.error: Optional[str] = None
        self.functions = None

    def reset_lock(self) -> None:
        """Give a forked child a lock no other thread can be holding."""
        self.lock = threading.Lock()


_LOADER = _Loader()
if hasattr(os, "register_at_fork"):  # POSIX; elsewhere nothing forks
    os.register_at_fork(after_in_child=_LOADER.reset_lock)


def cache_dir() -> Path:
    """The directory compiled kernels are cached in.

    ``$XDG_CACHE_HOME/domainnet`` when that variable holds an absolute
    path (the XDG base-directory rule), else ``~/.cache/domainnet``.
    """
    base = os.environ.get("XDG_CACHE_HOME", "")
    root = Path(base) if os.path.isabs(base) else Path.home() / ".cache"
    return root / "domainnet"


def find_compiler() -> Optional[str]:
    """Path of the C compiler :func:`library` would use, or ``None``."""
    import shutil

    for name in COMPILERS:
        found = shutil.which(name)
        if found is not None:
            return found
    return None


def library_name() -> str:
    """File name of the compiled kernel: a digest of what built it.

    Computed from the source text, :data:`FLAGS` and the machine type;
    no compiler runs.
    """
    import hashlib
    import platform

    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update("\0".join(FLAGS + (platform.machine(),)).encode())
    return f"brandes-{digest.hexdigest()[:16]}.so"


def library():
    """The loaded kernel functions, or ``None`` if they cannot be had.

    The first call in a process finds, compiles and loads the library
    (see the module docstring); every later call returns the same
    answer without trying again.
    """
    loader = _LOADER
    if not loader.done:
        with loader.lock:
            if not loader.done:
                loader.attempts += 1
                try:
                    loader.functions = _load(loader)
                except Exception as error:  # any failure: use numpy
                    loader.error = f"{type(error).__name__}: {error}"
                loader.done = True
    return loader.functions


def status() -> Dict[str, object]:
    """What the loader did in this process (diagnostics; loads nothing).

    ``attempts`` is 0 until the first kernel call and 1 after it;
    ``loaded`` says whether the native kernel runs, ``compiled``
    whether this process built the library, ``path`` where it lives
    and ``error`` why it did not load.
    """
    loader = _LOADER
    return {
        "attempts": loader.attempts,
        "loaded": loader.functions is not None,
        "compiled": loader.compiled,
        "path": None if loader.path is None else str(loader.path),
        "error": loader.error,
    }


def _load(loader: _Loader):
    """Find or build the library and bind its two functions."""
    import ctypes

    directory = cache_dir()
    target = directory / library_name()
    if not target.is_file():
        directory.mkdir(parents=True, exist_ok=True)
        compiler = find_compiler()
        if compiler is None:
            raise RuntimeError(
                "no C compiler on PATH (looked for "
                f"{', '.join(COMPILERS)})"
            )
        _compile(compiler, target)
        loader.compiled = True
    loader.path = target
    lib = ctypes.CDLL(str(target))
    pointer, int64 = ctypes.c_void_p, ctypes.c_int64
    check = lib.brandes_check
    check.argtypes = (pointer, pointer, int64, int64)
    check.restype = ctypes.c_int
    accumulate = lib.brandes_accumulate
    accumulate.argtypes = (
        pointer, pointer, int64, pointer, pointer, int64, int64, pointer,
    )
    accumulate.restype = ctypes.c_int
    return check, accumulate


def _compile(compiler: str, target: Path) -> None:
    """Compile into a private temporary file, then rename it into place."""
    import subprocess
    import tempfile

    fd, temporary = tempfile.mkstemp(
        prefix=f".{target.name}.", suffix=".tmp", dir=target.parent
    )
    os.close(fd)
    try:
        result = subprocess.run(
            [compiler, *FLAGS, "-o", temporary, str(SOURCE)],
            stdin=subprocess.DEVNULL, capture_output=True, text=True,
            timeout=COMPILE_TIMEOUT,
        )
        if result.returncode != 0:
            raise RuntimeError(
                f"{compiler} exited {result.returncode}: "
                f"{result.stderr.strip()[-500:]}"
            )
        os.replace(temporary, target)
    finally:
        if os.path.exists(temporary):
            os.unlink(temporary)


def _csr_array(array, name: str) -> np.ndarray:
    """Check one CSR array is a flat int64 buffer C can index."""
    if not isinstance(array, np.ndarray) or array.dtype != np.int64:
        raise TypeError(
            f"{name} must be an int64 numpy array, got "
            f"{getattr(array, 'dtype', type(array).__name__)}"
        )
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not (array.flags.c_contiguous and array.flags.aligned):
        raise ValueError(f"{name} must be C-contiguous and aligned")
    return array


def accumulate(
    functions, ctx, sources, weights, n_targets: int
) -> np.ndarray:
    """``sum(weights[i] * dependency(sources[i]))`` by the native loop.

    ``functions`` is what :func:`library` returned and ``ctx`` a
    :class:`~repro.perf.kernels.GraphContext` with a symmetric CSR
    whose rows ascend.  Pairs run in order, as ``zip`` pairs them;
    nodes below ``n_targets`` are targets.  Arrays the C loop cannot
    read safely raise ``TypeError``/``ValueError`` and a source outside
    the graph ``IndexError``, before any native call.
    """
    check, run = functions
    n = int(ctx.num_nodes)
    indptr = _csr_array(ctx.indptr, "indptr")
    indices = _csr_array(ctx.indices, "indices")
    m = indices.shape[0]
    if n < 0 or indptr.shape[0] != n + 1:
        raise ValueError(
            f"indptr has {indptr.shape[0]} entries for {n} nodes"
        )
    if check(indptr.ctypes.data, indices.ctypes.data, n, m):
        raise ValueError(
            "CSR arrays are inconsistent: indptr must run from 0 to "
            "len(indices) without decreasing, and every neighbor id lie "
            "in [0, num_nodes)"
        )
    sources = np.ascontiguousarray(sources, dtype=np.int64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    if sources.ndim != 1 or weights.ndim != 1:
        raise ValueError("sources and weights must be one-dimensional")
    k = min(sources.shape[0], weights.shape[0])
    sources, weights = sources[:k], weights[:k]
    if k and (int(sources.min()) < 0 or int(sources.max()) >= n):
        raise IndexError(f"source ids must lie in [0, {n})")
    acc = np.zeros(n, dtype=np.float64)
    step = max(1, SLICE_WORK // (n + 2 * m + 1))
    for lo in range(0, k, step):
        hi = min(lo + step, k)
        if run(indptr.ctypes.data, indices.ctypes.data, n,
               sources[lo:hi].ctypes.data, weights[lo:hi].ctypes.data,
               hi - lo, int(n_targets), acc.ctypes.data):
            raise MemoryError("native Brandes kernel: out of memory")
    return acc
