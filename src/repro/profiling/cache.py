"""Process-wide compiled-kernel cache keyed on kernel structure.

The paper's workflow compiles every generated kernel exactly once and then
reuses the binary for the whole run (waLBerla caches sweep functors the same
way).  Our reproduction used to recompile each kernel for every solver
instance — a parameter study with S solvers paid S× the code-generation
cost.  This module fixes that: compiled kernels are cached per process,
keyed on ``(backend, structural fingerprint of the Kernel IR)``, so two
solvers built from the same (or a structurally identical) kernel set share
one compiled object.  Compiled kernels keep no call state — all arrays and
parameters arrive per call, and what a C kernel remembers of an array set
it has validated is immutable and held by weak reference — which makes the
sharing safe, between solvers and between threads.

Hit/miss counters make the behaviour observable (and testable).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from time import perf_counter

import sympy as sp
from sympy.printing.repr import ReprPrinter

from ..ir.kernel import Kernel
from ..observability.log import get_logger, kv
from ..observability.metrics import get_registry
from ..observability.recorder import get_recorder
from ..symbolic.ordering import CanonicalTermOrder

_log = get_logger("profiling.cache")

__all__ = [
    "kernel_fingerprint",
    "compile_cached",
    "kernel_cache_stats",
    "clear_kernel_cache",
    "CacheStats",
]

_LOCK = threading.Lock()
_CACHE: dict[tuple[str, str], object] = {}
_HITS = 0
_MISSES = 0


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of the cache counters."""

    hits: int
    misses: int
    size: int

    def __str__(self):
        return f"kernel cache: {self.size} entries, {self.hits} hits, {self.misses} misses"


class _Repr(CanonicalTermOrder, ReprPrinter):
    """``srepr`` whose sums do not reorder with ``PYTHONHASHSEED``."""


def kernel_fingerprint(kernel: Kernel) -> str:
    """Structural SHA-256 fingerprint of a lowered :class:`Kernel`.

    Covers everything the backends consume: the SSA program (``srepr`` of
    every assignment), loop order, ghost layers, hoist levels, types, field
    metadata (staggering decides write regions) and the codegen-relevant
    config (target, approximations, folded parameter values).
    Two independently generated kernel sets from identical model parameters
    hash equal, so the cache also deduplicates across regenerations.
    """
    cached = getattr(kernel, "_fingerprint", None)
    if cached is not None:
        return cached
    h = hashlib.sha256()

    def put(s: str) -> None:
        h.update(s.encode())
        h.update(b"\x00")

    put(kernel.name)
    put(str(kernel.dim))
    put(str(kernel.ghost_layers))
    put(str(kernel.loop_order))
    put(str(getattr(kernel, "reductions", ())))
    # iteration-space restriction changes the emitted loop bounds/slices
    put(str(getattr(kernel, "subspace", None)))
    srepr = _Repr().doprint
    for a in kernel.ac.all_assignments:
        put(srepr(a.lhs))
        put(srepr(a.rhs))
    put(str(sorted((s.name, lvl) for s, lvl in kernel.hoist_levels.items())))
    put(str(sorted((s.name, str(t)) for s, t in kernel.types.items())))
    for f in kernel.fields:
        put(
            f"{f.name}|{f.spatial_dimensions}|{f.index_shape}|{f.staggered}"
            f"|{getattr(f, 'slot_axes', None)}"
        )
    cfg = kernel.config
    values = cfg.parameter_values or {}
    folded = sorted(
        (k.name if isinstance(k, sp.Symbol) else str(k), repr(v))
        for k, v in values.items()
    )
    put(f"{cfg.target}|{cfg.approximations}|{folded}")
    digest = h.hexdigest()
    kernel._fingerprint = digest
    return digest


def _compile(kernel: Kernel, backend: str):
    if backend == "numpy":
        from ..backends.numpy_backend import compile_numpy_kernel

        return compile_numpy_kernel(kernel)
    if backend == "c":
        from ..backends.c_backend import compile_c_kernel

        return compile_c_kernel(kernel)
    raise ValueError(f"unknown backend {backend!r}; choose 'numpy' or 'c'")


def compile_cached(kernel: Kernel, backend: str = "numpy"):
    """Compile *kernel* for *backend*, reusing any structurally equal build.

    Lookup order is memory → disk → compile: a miss here falls through to
    the backend compiler, and for the C backend that consults the
    persistent cross-process disk tier (:mod:`repro.profiling.diskcache`)
    before invoking the toolchain — a warm process compiles nothing.
    """
    global _HITS, _MISSES
    registry = get_registry()
    with get_recorder().span(
        f"compile:{kernel.name}", category="backend", backend=backend
    ) as span:
        key = (backend, kernel_fingerprint(kernel))
        with _LOCK:
            compiled = _CACHE.get(key)
            if compiled is not None:
                _HITS += 1
                registry.counter(
                    "repro_kernel_cache_hits_total", "kernel cache hits"
                ).inc()
                span["cache"] = "hit"
                _log.debug(kv("cache_hit", kernel=kernel.name, backend=backend))
                return compiled
        # compile outside the lock: codegen is slow and reentrant-safe
        t0 = perf_counter()
        compiled = _compile(kernel, backend)
        with _LOCK:
            winner = _CACHE.setdefault(key, compiled)
            _MISSES += 1
            size = len(_CACHE)
        registry.counter(
            "repro_kernel_cache_misses_total", "kernel cache misses (compiles)"
        ).inc()
        registry.gauge(
            "repro_kernel_cache_size", "compiled kernels held by the cache"
        ).set(size)
        span["cache"] = "miss"
        _log.info(
            kv(
                "kernel_compiled",
                kernel=kernel.name,
                backend=backend,
                seconds=perf_counter() - t0,
                cache_size=size,
            )
        )
        return winner


def kernel_cache_stats() -> CacheStats:
    with _LOCK:
        return CacheStats(hits=_HITS, misses=_MISSES, size=len(_CACHE))


def clear_kernel_cache(disk: bool = False) -> None:
    """Drop all cached kernels and reset the counters (used by tests).

    With ``disk=True`` the persistent disk tier (resolved from the current
    ``REPRO_CACHE_DIR``/XDG environment) is purged too, and its per-process
    counters reset — tests no longer leak compiled artifacts between runs.
    """
    global _HITS, _MISSES
    with _LOCK:
        _CACHE.clear()
        _HITS = 0
        _MISSES = 0
    if disk:
        from .diskcache import KernelDiskCache, reset_disk_cache_stats

        KernelDiskCache().purge()
        reset_disk_cache_stats()
