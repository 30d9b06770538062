"""Machine models for analytic performance prediction (paper §3.6).

A :class:`MachineModel` captures "the most essential aspects of a compute
system": ALU throughput and the cache/memory hierarchy.  The two CPU systems
of the paper are provided:

* ``SKYLAKE_8174`` — one socket of SuperMUC-NG (Intel Xeon Platinum 8174,
  24 cores, AVX-512),
* ``HASWELL_2690V3`` — the Piz Daint host CPU (Xeon E5-2690 v3).

Values follow the published specifications and the paper's own artifact
appendix (``lscpu`` output).  The GPU model lives in :mod:`repro.gpu.model`.

Host auto-detection (:func:`detect_machine`, :func:`detect_host`) reads
physical core count, cache sizes and the cache line size from ``/sys``
(topology and cacheinfo), with documented fallbacks for containers that
hide them: ``os.cpu_count()`` for cores, 32 KiB/256 KiB/8 MiB for
L1/L2/L3 and 64 B lines — deliberately generic x86-era values, flagged by
``detected=False`` per field in the host stanza.  The stanza's ``key``
hashes only hardware identity (never the hostname: CI containers get a
fresh hostname every run), so the perf-history ledger can refuse to
compare records from different machines.
"""

from __future__ import annotations

import hashlib
import os
import platform
import re
import socket
from dataclasses import dataclass, replace
from pathlib import Path

__all__ = [
    "MachineModel",
    "CacheLevel",
    "SKYLAKE_8174",
    "HASWELL_2690V3",
    "detect_physical_cores",
    "detect_cache_hierarchy",
    "detect_host",
    "detect_machine",
]


@dataclass(frozen=True)
class CacheLevel:
    """One level of the memory hierarchy."""

    name: str
    size_bytes: int          # capacity visible to one core (L3: per-socket)
    bandwidth_bytes_per_cycle: float   # per core, towards the next level
    shared: bool = False     # shared across the socket (L3/memory)


@dataclass(frozen=True)
class MachineModel:
    """Parameters of one CPU socket for the ECM model."""

    name: str
    clock_ghz: float                 # sustained clock under AVX load
    cores_per_socket: int
    simd_doubles: int                # SIMD width in doubles
    fma_ports: int                   # superscalar FP pipelines
    cache_levels: tuple[CacheLevel, ...]
    mem_bandwidth_gbs: float         # saturated per-socket memory bandwidth
    mem_latency_penalty: float = 0.35  # utilization-dependent inflation factor
    cache_line_bytes: int = 64       # coherency line size (traffic unit)

    @property
    def flop_throughput_per_cycle(self) -> float:
        """Normalized-FLOP units retired per cycle per core.

        Normalized FLOPs already weight div/sqrt by their inverse
        throughput, so the ALU retires ``simd_doubles * fma_ports`` units
        per cycle.
        """
        return self.simd_doubles * self.fma_ports

    def mem_bandwidth_bytes_per_cycle(self) -> float:
        """Per-socket memory bandwidth expressed in bytes/cycle."""
        return self.mem_bandwidth_gbs / self.clock_ghz

    def level(self, name: str) -> CacheLevel:
        for lv in self.cache_levels:
            if lv.name == name:
                return lv
        raise KeyError(name)


SKYLAKE_8174 = MachineModel(
    name="Intel Xeon Platinum 8174 (SuperMUC-NG)",
    clock_ghz=2.3,                  # AVX-512 sustained clock
    cores_per_socket=24,
    simd_doubles=8,                 # AVX-512
    fma_ports=2,
    cache_levels=(
        CacheLevel("L1", 32 * 1024, 128.0),
        CacheLevel("L2", 1024 * 1024, 64.0),
        CacheLevel("L3", 33 * 1024 * 1024, 32.0, shared=True),
    ),
    mem_bandwidth_gbs=110.0,
)

HASWELL_2690V3 = MachineModel(
    name="Intel Xeon E5-2690 v3 (Piz Daint host)",
    clock_ghz=2.6,
    cores_per_socket=12,
    simd_doubles=4,                 # AVX2
    fma_ports=2,
    cache_levels=(
        CacheLevel("L1", 32 * 1024, 64.0),
        CacheLevel("L2", 256 * 1024, 32.0),
        CacheLevel("L3", 30 * 1024 * 1024, 16.0, shared=True),
    ),
    mem_bandwidth_gbs=60.0,
)


# ---------------------------------------------------------------------------
# host auto-detection

_SYS_CPU = Path("/sys/devices/system/cpu")

#: fallbacks when /sys hides the hierarchy (documented generic values)
_FALLBACK_CACHES = (("L1", 32 * 1024), ("L2", 256 * 1024), ("L3", 8 * 1024 * 1024))
_FALLBACK_LINE_BYTES = 64


def _read_sys(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _parse_size(text: str) -> int | None:
    """Parse a cacheinfo size string (``32K``, ``8192K``, ``1M``) to bytes."""
    m = re.fullmatch(r"(\d+)([KMG]?)", text.strip())
    if not m:
        return None
    value = int(m.group(1))
    return value * {"": 1, "K": 1024, "M": 1024**2, "G": 1024**3}[m.group(2)]


def detect_physical_cores() -> tuple[int, bool]:
    """(physical core count, detected?) — unique (package, core) pairs.

    Hyperthread siblings share a ``core_id`` within their
    ``physical_package_id``; counting distinct pairs gives physical cores.
    Fallback: ``os.cpu_count()`` (logical CPUs — an overcount on SMT
    hosts), flagged ``detected=False``.
    """
    pairs = set()
    try:
        for cpu in _SYS_CPU.glob("cpu[0-9]*"):
            pkg = _read_sys(cpu / "topology" / "physical_package_id")
            core = _read_sys(cpu / "topology" / "core_id")
            if pkg is None or core is None:
                continue
            pairs.add((pkg, core))
    except OSError:
        pass
    if pairs:
        return len(pairs), True
    return os.cpu_count() or 1, False


def detect_cache_hierarchy() -> tuple[tuple[tuple[str, int], ...], int, bool]:
    """((level name, size bytes), ...), line size, detected? — from cpu0.

    Reads ``/sys/devices/system/cpu/cpu0/cache/index*``; instruction-only
    caches are skipped, split L1 keeps the data side.  Fallback: the
    generic 32K/256K/8M hierarchy with 64-byte lines.
    """
    levels: dict[int, int] = {}
    line_bytes = None
    try:
        for index in sorted((_SYS_CPU / "cpu0" / "cache").glob("index[0-9]*")):
            ctype = _read_sys(index / "type")
            if ctype == "Instruction":
                continue
            level = _read_sys(index / "level")
            size = _read_sys(index / "size")
            if level is None or size is None:
                continue
            parsed = _parse_size(size)
            if parsed is None:
                continue
            levels[int(level)] = parsed
            coherency = _read_sys(index / "coherency_line_size")
            if coherency and coherency.isdigit():
                line_bytes = int(coherency)
    except OSError:
        pass
    if levels:
        hierarchy = tuple(
            (f"L{lv}", levels[lv]) for lv in sorted(levels)
        )
        return hierarchy, line_bytes or _FALLBACK_LINE_BYTES, True
    return _FALLBACK_CACHES, _FALLBACK_LINE_BYTES, False


def _cpu_model_name() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def detect_host() -> dict:
    """The perf-history host stanza: hardware identity plus a stable key.

    The ``key`` hashes only what identifies the *machine* — CPU model,
    physical cores, cache hierarchy, line size, architecture — and never
    the hostname: CI containers get a fresh hostname per run, and records
    that differ only by hostname must remain comparable.  ``hostname``
    stays in the stanza informationally.
    """
    cores, cores_detected = detect_physical_cores()
    caches, line_bytes, caches_detected = detect_cache_hierarchy()
    identity = {
        "cpu_model": _cpu_model_name(),
        "arch": platform.machine(),
        "physical_cores": cores,
        "caches": {name: size for name, size in caches},
        "cache_line_bytes": line_bytes,
    }
    digest = hashlib.sha256(
        repr(sorted(identity.items(), key=lambda kv: kv[0])).encode()
    ).hexdigest()[:16]
    return {
        **identity,
        "cores_detected": cores_detected,
        "caches_detected": caches_detected,
        "hostname": socket.gethostname(),   # informational, NOT in the key
        "key": digest,
    }


def detect_machine(base: MachineModel | None = None) -> MachineModel:
    """A :class:`MachineModel` describing *this* host, best effort.

    Starts from *base* (default ``HASWELL_2690V3`` — conservative AVX2
    throughput assumptions) and overrides what ``/sys`` actually exposes:
    physical cores, cache sizes, line size.  Clock and bandwidth keep the
    base values — there is no portable way to read sustained AVX clock or
    saturated bandwidth, and the ECM ratio column exists precisely to
    absorb that calibration error.
    """
    base = base or HASWELL_2690V3
    cores, _ = detect_physical_cores()
    caches, line_bytes, detected = detect_cache_hierarchy()
    cache_levels = base.cache_levels
    if detected:
        bandwidths = [lv.bandwidth_bytes_per_cycle for lv in base.cache_levels]
        while len(bandwidths) < len(caches):
            bandwidths.append(bandwidths[-1] / 2.0)
        cache_levels = tuple(
            CacheLevel(
                name,
                size,
                bandwidths[i],
                shared=(i == len(caches) - 1),
            )
            for i, (name, size) in enumerate(caches)
        )
    return replace(
        base,
        name=f"detected: {_cpu_model_name()}",
        cores_per_socket=max(1, cores),
        cache_levels=cache_levels,
        cache_line_bytes=line_bytes,
    )
