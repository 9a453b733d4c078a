"""Record of the machine and software a benchmark run measured.

Everything here only reads: the CPU cache sizes come from sysfs, the commit
from the ``.git`` directory when the checkout has one.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path


def nproc() -> int:
    """Processors this process may run on, as ``nproc`` reports them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not Linux
        return os.cpu_count() or 1


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def set_blas_threads(env, threads: int):
    """Pin the BLAS thread count; must happen before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        env[var] = str(threads)


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines()
             if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _caches():
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    out = {}
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            out[f"L{level}" if kind == "Unified" else f"L{level}d"] = size
    return out


def _git_commit(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """sha256 over the package's source files: identifies the code measured
    also where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path, src: Path) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": nproc(),
        "blas": {
            "vendor": blas.get("name"),
            "version": blas.get("version"),
            "threads_requested": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
            "threads_reported": _openblas_threads(),
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "caches": _caches(),
        "git_commit": _git_commit(root),
        "source_digest": source_digest(src),
        "machine": platform.machine(),
    }
