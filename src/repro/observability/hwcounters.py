"""Hardware performance counters with an explicit degradation chain.

The paper validates generated kernels against an ECM model (§5); the model
side lives in :mod:`repro.perfmodel`.  This module is the *measurement*
side: per-kernel cycles, instructions and cache traffic, read around every
measured operation, so the closure table can show measured-vs-predicted
cycles/LUP and bytes/LUP instead of wall clock alone.

Three rungs, probed in order, every one presenting the same
:class:`CounterSample` interface:

``perf``
    ``perf_event_open(2)`` via ctypes — one *group* of counters (cycles
    leader; instructions, cache references, cache misses, stalled cycles
    as siblings) read in a single ``read(2)``.  The group is opened with
    ``PERF_FORMAT_TOTAL_TIME_ENABLED/RUNNING`` so multiplexed counters are
    scaled by ``time_enabled / time_running`` the way ``perf stat`` does.
    Siblings that the PMU cannot host are dropped individually; the rung
    only needs the cycles leader.
``rusage``
    ``resource.getrusage(RUSAGE_THREAD)`` (``RUSAGE_SELF``, then
    ``/proc/thread-self/stat``, as inner fallbacks) — CPU seconds and page
    faults, no cycle-level detail.  This is what a locked-down container
    (``perf_event_paranoid``, seccomp, missing PMU) gets.
``time``
    ``perf_counter`` only — wall clock, nothing else.  The rung of last
    resort; every field except ``wall_seconds`` stays ``None``.

The chain is probed once (:func:`probe_capabilities`) and the selected
rung is visible as ``harness.source`` — reports print it as an explicit
provenance line so a closure table measured without counters can never be
mistaken for one with them.  ``REPRO_HWCOUNTERS=perf|rusage|time|off``
forces a rung (tests force each one; ``off`` disables sampling entirely).

Every :meth:`CounterHarness.sample` call times itself; the accumulated
cost (:attr:`CounterHarness.overhead_seconds`) is gated per sample
(10 µs) by the tier-1 tests.

The one caller on the step path is :meth:`SolverProfiler.measure
<repro.profiling.profiler.SolverProfiler.measure>`, which samples before
and after the block it times and adds the difference of the two samples
straight into the record: it covers the interval of the seconds it is
stored beside.  Backends do not sample; a kernel called outside a
measured block costs no sample.
"""

from __future__ import annotations

import ctypes
import errno
import os
import platform
import struct
import threading
from dataclasses import dataclass, fields as dataclass_fields
from time import perf_counter

__all__ = [
    "CounterSample",
    "CounterHarness",
    "PerfEventGroup",
    "counter_provenance_line",
    "get_counter_harness",
    "make_harness",
    "perf_events_available",
    "probe_capabilities",
    "set_counter_harness",
]

#: environment variable forcing a rung of the degradation chain
FORCE_ENV = "REPRO_HWCOUNTERS"

#: chain order, strongest first
CHAIN = ("perf", "rusage", "time")

# -- perf_event_open(2) plumbing ----------------------------------------------

#: __NR_perf_event_open per architecture (the syscall has no libc wrapper)
_SYSCALL_NR = {
    "x86_64": 298,
    "i686": 336,
    "i386": 336,
    "aarch64": 241,
    "arm64": 241,
    "armv7l": 364,
    "ppc64le": 319,
    "ppc64": 319,
    "s390x": 331,
    "riscv64": 241,
}

_PERF_TYPE_HARDWARE = 0

#: PERF_COUNT_HW_* config values, in group order (cycles must lead)
PERF_EVENTS = (
    ("cycles", 0),                # PERF_COUNT_HW_CPU_CYCLES
    ("instructions", 1),          # PERF_COUNT_HW_INSTRUCTIONS
    ("cache_references", 2),      # PERF_COUNT_HW_CACHE_REFERENCES
    ("cache_misses", 3),          # PERF_COUNT_HW_CACHE_MISSES
    ("stalled_cycles", 7),        # PERF_COUNT_HW_STALLED_CYCLES_FRONTEND
)

# read_format bits
_FORMAT_TOTAL_TIME_ENABLED = 1 << 0
_FORMAT_TOTAL_TIME_RUNNING = 1 << 1
_FORMAT_GROUP = 1 << 3

# attr.flags bits (first u64 bitfield word of perf_event_attr)
_FLAG_DISABLED = 1 << 0
_FLAG_EXCLUDE_KERNEL = 1 << 5
_FLAG_EXCLUDE_HV = 1 << 6

# ioctls (no arguments encoded beyond the flag)
_IOC_ENABLE = 0x2400
_IOC_RESET = 0x2403
_IOC_FLAG_GROUP = 1


class _PerfEventAttr(ctypes.Structure):
    """``struct perf_event_attr`` through PERF_ATTR_SIZE_VER1 (72 bytes).

    The kernel accepts any ``size`` it knows; fields beyond VER1 are not
    needed for plain counting events.
    """

    _fields_ = [
        ("type", ctypes.c_uint32),
        ("size", ctypes.c_uint32),
        ("config", ctypes.c_uint64),
        ("sample_period", ctypes.c_uint64),
        ("sample_type", ctypes.c_uint64),
        ("read_format", ctypes.c_uint64),
        ("flags", ctypes.c_uint64),
        ("wakeup_events", ctypes.c_uint32),
        ("bp_type", ctypes.c_uint32),
        ("config1", ctypes.c_uint64),
        ("config2", ctypes.c_uint64),
    ]


def _syscall_nr() -> int | None:
    return _SYSCALL_NR.get(platform.machine())


def _perf_event_open(config: int, group_fd: int) -> int:
    """Open one counting event on the calling thread; returns fd or -errno."""
    nr = _syscall_nr()
    if nr is None:
        return -errno.ENOSYS
    attr = _PerfEventAttr()
    attr.type = _PERF_TYPE_HARDWARE
    attr.size = ctypes.sizeof(_PerfEventAttr)
    attr.config = config
    attr.read_format = (
        _FORMAT_GROUP | _FORMAT_TOTAL_TIME_ENABLED | _FORMAT_TOTAL_TIME_RUNNING
    )
    flags = _FLAG_EXCLUDE_KERNEL | _FLAG_EXCLUDE_HV
    if group_fd == -1:
        flags |= _FLAG_DISABLED     # leader starts disabled, enabled as a group
    attr.flags = flags
    libc = _libc()
    if libc is None:
        return -errno.ENOSYS
    ctypes.set_errno(0)
    # pid=0 (this thread), cpu=-1 (any), flags=0
    fd = libc.syscall(nr, ctypes.byref(attr), 0, -1, group_fd, 0)
    if fd < 0:
        return -(ctypes.get_errno() or errno.EINVAL)
    return fd


_LIBC = None


def _libc():
    global _LIBC
    if _LIBC is None:
        try:
            _LIBC = ctypes.CDLL(None, use_errno=True)
        except OSError:
            _LIBC = False
    return _LIBC or None


class PerfEventGroup:
    """One perf_event group (cycles leader + siblings) on the calling thread.

    ``read()`` returns the scaled cumulative counts as a dict.  Counters
    run freely from :meth:`enable` on; deltas between successive reads
    attribute to whatever executed in between (the harness contract).
    """

    def __init__(self):
        self._fds: list[tuple[str, int]] = []
        leader = _perf_event_open(PERF_EVENTS[0][1], -1)
        if leader < 0:
            raise OSError(-leader, os.strerror(-leader), "perf_event_open")
        self._fds.append((PERF_EVENTS[0][0], leader))
        for name, config in PERF_EVENTS[1:]:
            fd = _perf_event_open(config, leader)
            if fd >= 0:
                # a PMU with few generic counters multiplexes; one that
                # rejects the event outright just loses this sibling
                self._fds.append((name, fd))
        self.names = tuple(name for name, _ in self._fds)
        self.enable()

    def enable(self) -> None:
        libc = _libc()
        leader = self._fds[0][1]
        libc.ioctl(leader, _IOC_RESET, _IOC_FLAG_GROUP)
        libc.ioctl(leader, _IOC_ENABLE, _IOC_FLAG_GROUP)

    def read(self) -> dict[str, float]:
        """Scaled cumulative counts since :meth:`enable`.

        Group read layout (``PERF_FORMAT_GROUP | TOTAL_TIME_*``)::

            u64 nr; u64 time_enabled; u64 time_running; u64 value[nr]

        When the PMU multiplexed the group, ``time_running < time_enabled``
        and every value is scaled by their ratio (the ``perf stat``
        convention), so deltas stay comparable across reads.
        """
        n = len(self._fds)
        buf = os.read(self._fds[0][1], 8 * (3 + n))
        words = struct.unpack(f"{3 + n}Q", buf)
        nr, enabled, running = words[0], words[1], words[2]
        scale = (enabled / running) if running else 0.0
        values = words[3:3 + min(nr, n)]
        return {
            name: value * scale
            for (name, _), value in zip(self._fds, values)
        }

    def close(self) -> None:
        for _, fd in self._fds:
            try:
                os.close(fd)
            except OSError:
                pass
        self._fds = []

    def __del__(self):
        self.close()


def perf_events_available() -> tuple[bool, str]:
    """Probe whether a perf_event counter group can be opened here.

    Returns ``(ok, reason)``; *reason* names the failing errno (ENOENT:
    no PMU exposed — typical VM/container; EACCES/EPERM:
    ``perf_event_paranoid``/seccomp; ENOSYS: unknown architecture).
    """
    fd = _perf_event_open(PERF_EVENTS[0][1], -1)
    if fd < 0:
        return False, errno.errorcode.get(-fd, str(-fd))
    os.close(fd)
    return True, "ok"


# -- samples -------------------------------------------------------------------


def _difference(a: float | None, b: float | None) -> float | None:
    return None if a is None or b is None else b - a


@dataclass(slots=True)
class CounterSample:
    """One cumulative counter reading; ``None`` marks an unavailable field.

    ``wall_seconds`` is always populated (``perf_counter``); ``cpu_seconds``
    and ``page_faults`` from the rusage rung up; the hardware fields only
    from the perf rung.  Subtraction yields a delta with the same ``None``
    semantics, field by field.
    """

    wall_seconds: float = 0.0
    cpu_seconds: float | None = None
    page_faults: float | None = None
    cycles: float | None = None
    instructions: float | None = None
    cache_references: float | None = None
    cache_misses: float | None = None
    stalled_cycles: float | None = None

    def delta(self, later: "CounterSample") -> "CounterSample":
        """Field-wise ``later - self``; ``None`` wherever either side is."""
        d = _difference
        return CounterSample(
            later.wall_seconds - self.wall_seconds,
            d(self.cpu_seconds, later.cpu_seconds),
            d(self.page_faults, later.page_faults),
            d(self.cycles, later.cycles),
            d(self.instructions, later.instructions),
            d(self.cache_references, later.cache_references),
            d(self.cache_misses, later.cache_misses),
            d(self.stalled_cycles, later.stalled_cycles),
        )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}


# -- the degradation-chain harness ---------------------------------------------


def _select_cpu_reader():
    """Pick the cheapest working thread-CPU reader, once per process.

    Inner fallback chain of the rusage rung: ``getrusage(RUSAGE_THREAD)``
    → ``/proc/thread-self/stat`` (utime+stime ticks) →
    ``getrusage(RUSAGE_SELF)`` → ``(None, None)``.  Selection happens one
    time; the returned closure is then a single ``getrusage`` call, which
    keeps per-sample cost inside the 10 µs gate.
    """
    try:
        import resource

        getrusage = resource.getrusage
        who = getattr(resource, "RUSAGE_THREAD", None)
        if who is not None:
            getrusage(who)

            def read_thread():
                ru = getrusage(who)
                return ru.ru_utime + ru.ru_stime, float(ru.ru_minflt + ru.ru_majflt)

            return read_thread
    except (ImportError, OSError, ValueError):
        pass

    def read_proc():
        try:
            with open("/proc/thread-self/stat", "rb") as fh:
                text = fh.read().decode("ascii", "replace")
            # field 2 (comm) may contain spaces; fields count from after ')'
            rest = text.rsplit(")", 1)[1].split()
            # utime/stime are fields 14/15 (1-based) -> rest[11]/rest[12]
            ticks = int(rest[11]) + int(rest[12])
            hz = os.sysconf("SC_CLK_TCK") or 100
            return ticks / hz, float(int(rest[7]) + int(rest[9]))
        except (OSError, IndexError, ValueError):
            return None, None

    if read_proc() != (None, None):
        return read_proc
    try:
        import resource

        getrusage = resource.getrusage
        self_who = resource.RUSAGE_SELF
        getrusage(self_who)

        def read_self():
            ru = getrusage(self_who)
            return ru.ru_utime + ru.ru_stime, float(ru.ru_minflt + ru.ru_majflt)

        return read_self
    except (ImportError, OSError, ValueError):
        return lambda: (None, None)


_CPU_READER = None


def _cpu_reader():
    """The process's thread-CPU reader, selected on first use."""
    global _CPU_READER
    if _CPU_READER is None:
        _CPU_READER = _select_cpu_reader()
    return _CPU_READER


class CounterHarness:
    """Per-kernel counter sampling behind one interface for every rung.

    ``sample()`` returns a cumulative :class:`CounterSample` (or ``None``
    when ``source == "off"``); ``delta(a, b)`` subtracts two samples.  The
    perf rung keeps its event group per *thread* (perf_event fds count the
    opening thread), created lazily on first sample from each thread.
    """

    def __init__(self, source: str):
        if source not in (*CHAIN, "off"):
            raise ValueError(f"unknown counter source {source!r}")
        self.source = source
        self._overhead = 0.0
        self._samples = 0
        self._groups = threading.local()
        self._read_cpu = _cpu_reader() if source in ("perf", "rusage") else None

    @property
    def active(self) -> bool:
        return self.source != "off"

    @property
    def counter_names(self) -> tuple[str, ...]:
        """The fields this rung populates beyond wall_seconds."""
        if self.source == "perf":
            group = self._group()
            if group is not None:
                return ("cpu_seconds", "page_faults", *group.names)
            return ("cpu_seconds", "page_faults")
        if self.source == "rusage":
            return ("cpu_seconds", "page_faults")
        return ()

    def _group(self) -> PerfEventGroup | None:
        group = getattr(self._groups, "group", None)
        if group is None and not getattr(self._groups, "failed", False):
            try:
                group = PerfEventGroup()
                self._groups.group = group
            except OSError:
                # a thread that cannot open the group (fd limits, races)
                # degrades to the rusage fields; the harness stays usable
                self._groups.failed = True
                return None
        return group

    def sample(self) -> CounterSample | None:
        """One cumulative reading; self-times into :attr:`overhead_seconds`."""
        source = self.source
        if source == "off":
            return None
        t0 = perf_counter()
        self._samples += 1
        if source == "rusage":
            # the hot path on counter-less hosts: keep it one reader call
            # (one getrusage) plus one positional dataclass construction
            cpu, faults = self._read_cpu()
            sample = CounterSample(t0, cpu, faults)
            self._overhead += perf_counter() - t0
            return sample
        if source == "time":
            sample = CounterSample(t0)
            self._overhead += perf_counter() - t0
            return sample
        cpu, faults = self._read_cpu()
        counts: dict[str, float] = {}
        group = self._group()
        if group is not None:
            try:
                counts = group.read()
            except OSError:
                counts = {}
        sample = CounterSample(
            wall_seconds=t0,
            cpu_seconds=cpu,
            page_faults=faults,
            cycles=counts.get("cycles"),
            instructions=counts.get("instructions"),
            cache_references=counts.get("cache_references"),
            cache_misses=counts.get("cache_misses"),
            stalled_cycles=counts.get("stalled_cycles"),
        )
        self._overhead += perf_counter() - t0
        return sample

    @staticmethod
    def delta(start: CounterSample | None, end: CounterSample | None):
        if start is None or end is None:
            return None
        return start.delta(end)

    @property
    def overhead_seconds(self) -> float:
        """Accumulated self-measured cost of every :meth:`sample` call."""
        return self._overhead

    @property
    def samples_taken(self) -> int:
        """Number of :meth:`sample` calls behind :attr:`overhead_seconds`."""
        return self._samples

    def publish_overhead(self, registry=None) -> float:
        """Export the accumulated sampling cost as a gauge; returns it."""
        from .metrics import get_registry

        registry = registry or get_registry()
        registry.gauge(
            "repro_counter_overhead_seconds",
            "self-measured hardware-counter sampling cost",
            source=self.source,
        ).set(self._overhead)
        return self._overhead

    def close(self) -> None:
        group = getattr(self._groups, "group", None)
        if group is not None:
            group.close()
            self._groups.group = None

    def __repr__(self):
        return f"CounterHarness(source={self.source!r})"


def probe_capabilities() -> dict:
    """What each rung of the chain can do on this host.

    Returns ``{"perf": {"available": bool, "reason": str},
    "rusage": {"available": bool}, "time": {"available": True},
    "selected": <rung auto would pick>}``.
    """
    perf_ok, reason = perf_events_available()
    cpu, _ = _cpu_reader()()
    rusage_ok = cpu is not None
    selected = "perf" if perf_ok else ("rusage" if rusage_ok else "time")
    return {
        "perf": {"available": perf_ok, "reason": reason},
        "rusage": {"available": rusage_ok},
        "time": {"available": True},
        "selected": selected,
    }


def make_harness(force: str | None = None) -> CounterHarness:
    """Build a harness, probing the chain (or forcing one rung).

    *force* (or ``$REPRO_HWCOUNTERS``): ``perf`` | ``rusage`` | ``time`` |
    ``off`` | ``auto``/``None``.  Forcing ``perf`` on a host without
    perf_event access raises ``RuntimeError`` — a forced rung must never
    silently degrade, that is what ``auto`` is for.
    """
    if force is None:
        force = os.environ.get(FORCE_ENV) or None
    if force in (None, "", "auto"):
        return CounterHarness(probe_capabilities()["selected"])
    force = force.lower()
    if force == "perf":
        ok, reason = perf_events_available()
        if not ok:
            raise RuntimeError(
                f"REPRO_HWCOUNTERS=perf forced, but perf_event_open failed "
                f"({reason}); use 'auto' to allow the fallback chain"
            )
    if force not in (*CHAIN, "off"):
        raise ValueError(
            f"unknown counter source {force!r}; "
            f"choose one of {', '.join((*CHAIN, 'off', 'auto'))}"
        )
    return CounterHarness(force)


_GLOBAL_HARNESS: CounterHarness | None = None
_HARNESS_LOCK = threading.Lock()


def get_counter_harness() -> CounterHarness:
    """The process-wide harness, built lazily (honouring the env override)."""
    global _GLOBAL_HARNESS
    if _GLOBAL_HARNESS is None:
        with _HARNESS_LOCK:
            if _GLOBAL_HARNESS is None:
                _GLOBAL_HARNESS = make_harness()
    return _GLOBAL_HARNESS


def set_counter_harness(harness: CounterHarness | None) -> CounterHarness | None:
    """Install *harness* process-wide (``None`` re-probes on next use)."""
    global _GLOBAL_HARNESS
    with _HARNESS_LOCK:
        previous = _GLOBAL_HARNESS
        _GLOBAL_HARNESS = harness
    return previous


def counter_provenance_line(harness: CounterHarness | None = None) -> str:
    """The provenance line every counter-bearing report must print.

    Makes the measurement rung explicit so a closure table produced
    without hardware counters can never be mistaken for one with them.
    """
    harness = harness or get_counter_harness()
    if harness.source == "perf":
        events = [n for n in harness.counter_names
                  if n not in ("cpu_seconds", "page_faults")]
        return f"counters: perf_event ({', '.join(events) or 'cycles'})"
    if harness.source in ("rusage", "time"):
        return f"counters: unavailable (fallback={harness.source})"
    return "counters: disabled"
