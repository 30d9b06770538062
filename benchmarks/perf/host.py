"""Host block carried by every result, and the thread-pinning proof."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path


def omp_max_threads() -> int:
    """The *effective* OpenMP thread count of this process.

    Read from the libgomp the generated kernels link against (``dlopen`` of
    an already-loaded soname returns the loaded instance), so it is what a
    ``#pragma omp parallel`` in a kernel would really get — the proof that
    ``OMP_NUM_THREADS=1`` was in the environment before the interpreter
    started.  A host whose kernels were built without OpenMP has no
    libgomp: one thread.
    """
    try:
        gomp = ctypes.CDLL("libgomp.so.1")
    except OSError:
        return 1
    gomp.omp_get_max_threads.restype = ctypes.c_int
    gomp.omp_get_max_threads.argtypes = []
    return int(gomp.omp_get_max_threads())


def _cache_size(level: int) -> str:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == str(level) and (
                index / "type"
            ).read_text().strip() in ("Unified", "Data"):
                return (index / "size").read_text().strip()
        except OSError:
            continue
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _compiler() -> str:
    try:
        out = subprocess.run(
            [os.environ.get("CC", "cc"), "--version"],
            capture_output=True, text=True, timeout=10,
        )
        return out.stdout.splitlines()[0] if out.stdout else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "missing"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "missing"


def host_block() -> dict:
    """Where the numbers were taken; ``noisy`` flags a busy host at start."""
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "cpu": _cpu_model(),
        "l2": _cache_size(2),
        "l3": _cache_size(3),
        "compiler": _compiler(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "sympy": _version("sympy"),
        "load1": load1,
        "noisy": load1 > 0.5 * nproc,
    }
