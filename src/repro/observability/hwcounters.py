"""Hardware performance counters where the host has a PMU, none where not.

The paper validates generated kernels against an ECM model (§5); the model
side lives in :mod:`repro.perfmodel`.  This module is the *measurement*
side: per-kernel cycles, instructions and cache traffic, read around every
measured operation, so the closure table can show measured-vs-predicted
cycles/LUP and bytes/LUP instead of wall clock alone.

Two states, decided once per process by opening one counter:

* ``perf_event_open(2)`` works: :func:`get_counter_harness` returns a
  :class:`CounterHarness`, one *group* of counters per thread (cycles
  leader; instructions, cache references, cache misses, stalled cycles as
  siblings) read in a single ``read(2)``.  The group is opened with
  ``PERF_FORMAT_TOTAL_TIME_ENABLED/RUNNING`` so multiplexed counters are
  scaled by ``time_enabled / time_running`` the way ``perf stat`` does.
  Siblings that the PMU cannot host are dropped individually; the group
  only needs the cycles leader.
* it does not (ENOENT: no PMU exposed, typical of VMs and containers;
  EACCES/EPERM: ``perf_event_paranoid`` or seccomp): there is no harness,
  :func:`get_counter_harness` returns ``None`` and a measured block takes
  no sample.  Thread CPU time is no substitute: it advances in scheduler
  ticks (4 ms on a 2-vCPU KVM guest), so around a sweep it reads 0.

Every counter-bearing report ends with :func:`counter_provenance_line` —
``counters: perf_event (cycles, …)`` or ``counters: unavailable
(perf_event_open: ENOENT)`` — so a closure table measured without counters
can never be mistaken for one with them.

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
from dataclasses import dataclass

__all__ = [
    "CounterSample",
    "CounterHarness",
    "PerfEventGroup",
    "counter_provenance_line",
    "get_counter_harness",
    "perf_events_available",
    "set_counter_harness",
]

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


# -- the harness ---------------------------------------------------------------


@dataclass(slots=True)
class CounterSample:
    """One cumulative reading of a counter group.

    The fields are the event names of :data:`PERF_EVENTS`; ``None`` marks a
    sibling the PMU rejected.
    """

    cycles: float | None = None
    instructions: float | None = None
    cache_references: float | None = None
    cache_misses: float | None = None
    stalled_cycles: float | None = None


class CounterHarness:
    """Counter sampling through one :class:`PerfEventGroup` per thread.

    perf_event fds count the thread that opened them, so each thread's
    group is opened on its first :meth:`sample`.  A thread that cannot open
    one (fd limits, races) samples ``None``, as does a failed read.
    """

    def __init__(self):
        self._groups = threading.local()

    @property
    def counter_names(self) -> tuple[str, ...]:
        """The events the calling thread's group counts."""
        group = self._group()
        return group.names if group is not None else ()

    def _group(self) -> PerfEventGroup | None:
        group = getattr(self._groups, "group", None)
        if group is None and not getattr(self._groups, "failed", False):
            try:
                group = self._groups.group = PerfEventGroup()
            except OSError:
                self._groups.failed = True
        return group

    def sample(self) -> CounterSample | None:
        """One cumulative reading of the calling thread's group."""
        group = self._group()
        if group is None:
            return None
        try:
            return CounterSample(**group.read())
        except OSError:
            return None

    def close(self) -> None:
        group = getattr(self._groups, "group", None)
        if group is not None:
            group.close()
            self._groups.group = None


_UNPROBED = object()
_HARNESS = _UNPROBED
_HARNESS_LOCK = threading.Lock()


def get_counter_harness() -> CounterHarness | None:
    """The process-wide harness, or ``None`` where perf_event_open fails.

    Probed on first use; the answer holds for the life of the process.
    """
    global _HARNESS
    harness = _HARNESS
    if harness is _UNPROBED:
        with _HARNESS_LOCK:
            if _HARNESS is _UNPROBED:
                _HARNESS = CounterHarness() if perf_events_available()[0] else None
            harness = _HARNESS
    return harness


def set_counter_harness(harness: CounterHarness | None) -> CounterHarness | None:
    """Install *harness* process-wide (``None`` re-probes on next use).

    Returns the harness it replaces (``None`` if there was none).
    """
    global _HARNESS
    with _HARNESS_LOCK:
        previous = _HARNESS
        _HARNESS = _UNPROBED if harness is None else harness
    return None if previous is _UNPROBED else previous


def counter_provenance_line() -> str:
    """The provenance line every counter-bearing report must print.

    Names what measured the counter columns, or why nothing did, so a
    closure table produced without hardware counters can never be mistaken
    for one with them.
    """
    harness = get_counter_harness()
    if harness is None:
        return f"counters: unavailable (perf_event_open: {perf_events_available()[1]})"
    return f"counters: perf_event ({', '.join(harness.counter_names) or 'cycles'})"
