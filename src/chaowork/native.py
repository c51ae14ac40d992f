"""Build and load the compiled engine, ``_engine.c``, through ctypes.

The shared library is built on first use, never at import, by the C
compiler ``gcc`` with the flags in ``FLAGS``: ``-O2 -ffp-contract=off`` and
neither ``-march=native`` nor ``-ffast-math``, so every floating-point
operation is the one the source spells out.  It is cached in the package's
``__pycache__`` directory under a name that hashes the C source, the
resolved compiler path and the flags, and written to a temporary file in
that directory first and renamed into place, so processes that build at
the same time each leave a complete library.  A new build unlinks the
libraries of other sources, flags or compilers from the cache.  A missing
compiler, a failed build or a cache directory that cannot be written raises
``BuildError`` naming it; there is no other engine to fall back on.

``load`` returns the library, with every argument type declared.  Its
trace carries four rays at a time, one per lane of a GCC vector, and a
lane whose ray stops takes the next.  It is linked with ``-lm``.  Its
``sqrt`` takes two lanes per SSE2 instruction, correctly rounded as the C
library's is.  On x86_64 with glibc 2.35 or later its ``hypot`` is glibc's
algorithm on four lanes, with glibc's bits, and calls the C library's
``hypot`` only for a lane outside that algorithm's common case; elsewhere
it calls the C library's, lane by lane.  On those systems glibc's
``libm.so`` pulls in its vector math library, libmvec, so ``-lm`` links it,
and when the CPU has AVX2 the engine runs its loop compiled for AVX2 and
takes ``erf`` and ``exp`` from libmvec's four-lane ``_ZGVdN4v_erf`` and
``_ZGVdN4v_exp``: it checks once per call, and ``FLAGS`` stay the same.
Elsewhere the same loop runs as compiled for the baseline target, with the
scalar ``erf`` and ``exp`` of the C library.  The geometry is the same on
both; the integrals differ by a few units in the last place, and the
library's ``math_lanes()`` returns 4 on the first and 1 on the second.
Its ``phase_sums``, which takes one request's phase sums of a traced chunk,
follows the same path: libmvec's four-lane ``_ZGVdN4v_cos`` and
``_ZGVdN4v_sin`` on the first, glibc's scalar ``sincos`` on the second,
again a few units in the last place apart.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import hashlib
import os
import shutil
import subprocess
import tempfile

import numpy as np

COMPILER = "gcc"
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(PACKAGE_DIR, "_engine.c")
CACHE_DIR = os.path.join(PACKAGE_DIR, "__pycache__")

_double_p = ctypes.POINTER(ctypes.c_double)
_int64_p = ctypes.POINTER(ctypes.c_int64)
_DTYPES = {ctypes.c_double: np.dtype(np.float64), ctypes.c_int64: np.dtype(np.int64)}


class BuildError(RuntimeError):
    """The compiled engine cannot be built or loaded here."""


class Bumps(ctypes.Structure):
    """``bumps_t``: the quench potential's Gaussian bumps."""

    _fields_ = [
        ("sigma", ctypes.c_double),
        ("n", ctypes.c_int64),
        ("centers", _double_p),
        ("signs", _double_p),
    ]


class Walls(ctypes.Structure):
    """``walls_t``: the quarter stadium and the geometry tolerances."""

    _fields_ = [
        ("r", ctypes.c_double),
        ("l", ctypes.c_double),
        ("tol_geom", ctypes.c_double),
        ("tol_grazing", ctypes.c_double),
        ("wall_nudge", ctypes.c_double),
    ]


def find_compiler() -> str:
    """Resolved path of the C compiler; BuildError when it is not on PATH."""
    path = shutil.which(COMPILER)
    if path is None:
        raise BuildError(f"the compiled engine needs the C compiler {COMPILER!r}, not on PATH")
    return os.path.realpath(path)


def cache_key(source: bytes, compiler: str, flags=FLAGS) -> str:
    """sha256 over the C source, the compiler path and the flags."""
    h = hashlib.sha256()
    for part in (source, compiler.encode(), "\0".join(flags).encode()):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _source() -> bytes:
    with open(SOURCE, "rb") as fh:
        return fh.read()


def library_key() -> str:
    """The cache key of the library this installation builds (no build)."""
    return cache_key(_source(), find_compiler())


def build(compiler: str, source: bytes, target: str, flags=FLAGS) -> None:
    """Compile ``source`` into the shared library ``target``, atomically."""
    directory = os.path.dirname(target)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=directory)
    except OSError as exc:
        raise BuildError(f"cannot write the engine cache directory {directory}: {exc}") from exc
    os.close(fd)
    try:
        try:
            proc = subprocess.run(
                [compiler, *flags, "-x", "c", "-o", tmp, "-", "-lm"],
                input=source,
                capture_output=True,
            )
        except OSError as exc:
            raise BuildError(f"cannot run the C compiler {compiler}: {exc}") from exc
        if proc.returncode != 0:
            err = proc.stderr.decode(errors="replace")
            raise BuildError(f"{compiler} could not build the engine:\n{err}")
        os.chmod(tmp, 0o644)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.cache
def load() -> ctypes.CDLL:
    """The engine library, built into the cache first if it is not there."""
    source = _source()
    compiler = find_compiler()
    path = os.path.join(CACHE_DIR, f"_engine.{cache_key(source, compiler)}.so")
    if not os.path.exists(path):
        build(compiler, source, path)
        _remove_stale(path)
    return open_library(path)


def _remove_stale(current: str) -> None:
    """Unlink every engine library next to ``current`` but ``current`` itself.

    Builds in flight are ``.build-*`` files, which the pattern leaves alone.
    """
    for path in glob.glob(os.path.join(os.path.dirname(current), "_engine.*.so")):
        if path != current:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)


def open_library(path: str) -> ctypes.CDLL:
    """Load a built engine library and declare its functions' signatures."""
    lib = ctypes.CDLL(path)
    lib.segment_integrals.argtypes = [
        ctypes.POINTER(Bumps),
        ctypes.c_int64,
        _double_p,
        _double_p,
        _double_p,
        _double_p,
        _double_p,
    ]
    lib.segment_integrals.restype = ctypes.c_int
    lib.trace.argtypes = [
        ctypes.POINTER(Walls),
        ctypes.POINTER(Bumps),
        ctypes.c_int64,
        _double_p,
        _double_p,
        ctypes.c_int64,
        _double_p,
        ctypes.c_int64,
        _double_p,
        _int64_p,
        _int64_p,
        _int64_p,
    ]
    lib.trace.restype = ctypes.c_int
    lib.phase_sums.argtypes = [
        ctypes.c_int64,
        ctypes.c_int64,
        _double_p,
        ctypes.c_int64,
        _int64_p,
        ctypes.c_double,
        _double_p,
        _double_p,
        _double_p,
    ]
    lib.phase_sums.restype = ctypes.c_int64
    lib.math_lanes.argtypes = []
    lib.math_lanes.restype = ctypes.c_int
    return lib


def pointer(a: np.ndarray, ctype=ctypes.c_double):
    """Typed pointer into a C-contiguous array the caller keeps alive."""
    if a.dtype != _DTYPES[ctype] or not a.flags.c_contiguous:
        raise ValueError(f"engine arrays must be C-contiguous {ctype.__name__}, got {a.dtype}")
    return a.ctypes.data_as(ctypes.POINTER(ctype))
