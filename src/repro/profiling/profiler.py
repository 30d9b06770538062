"""Per-kernel runtime profiling (the paper's §5 performance accounting).

The evaluation of the paper reports MLUP/s per generated kernel and the
communication volume per time step; waLBerla exposes the same numbers to
Python as per-sweep timers.  :class:`SolverProfiler` is our equivalent: the
solvers wrap every kernel invocation, ghost exchange and boundary fill in a
:meth:`SolverProfiler.measure` block, and :meth:`SolverProfiler.report`
renders the aggregate — calls, total/mean wall time, MLUP/s, bytes moved —
in the table style of :mod:`repro.perfmodel.report`.

Profiling is always on, and it is not free.  The time loop makes one
measurement per scheduled operation when it lowers its schedule, and a
step enters them: one entry is a ``perf_counter`` pair, the
:class:`TimingRecord` update and the 0.9-1.0 us ``op`` event (on a 2-vCPU
Xeon guest), for a kernel of either backend as for a fill — the block is
the only instrument on the step path, no backend samples anything.  On a
host with a PMU it adds two counter-group reads.  That is noise next to a
millisecond sweep and comparable to the native projection sweep of a 64²
block — ``tests/test_distributed_observability.py::TestUnitCostGates``
pins the number of counter samples per step (10 with a PMU, 0 without),
so it cannot grow unseen.  What it buys: the per-kernel MLUP/s table
(with a PMU: cycles, instructions, cache misses over the very interval the
seconds span), and the one event per interval that the trace, the journal
and a crash post-mortem are made of.  Construct with ``enabled=False`` to
make ``measure`` a true no-op.

Every accepted timing is also recorded as one ``op`` event of the
:class:`repro.observability.recorder.FlightRecorder` — the profiler is the
single event source for the runtime loop, so a kernel sweep is measured
and stored exactly once; the :class:`TimingRecord` table is the O(1) live
fold of those events, the Chrome trace a rendering of them.

Hardware counters: where ``perf_event_open`` works,
:meth:`SolverProfiler.measure` samples the process-wide
:class:`repro.observability.hwcounters.CounterHarness` around every block,
so each :class:`TimingRecord` accumulates cycles, instructions and cache
references/misses.  The derived rates (cycles/LUP, IPC, measured bytes/LUP
from cache-miss counts × line size) feed the measured-vs-ECM closure
table.  Where it does not, there is no harness, a block takes no sample,
the counter fields stay zero and the report says so explicitly.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

from ..observability.hwcounters import counter_provenance_line, get_counter_harness
from ..observability.recorder import get_recorder
from ..perfmodel.report import format_table, report_header

__all__ = ["SolverProfiler", "TimingRecord"]

#: bytes per cache line assumed when deriving traffic from miss counts
#: (overridden by the detected machine's line size where one is known)
DEFAULT_LINE_BYTES = 64


@dataclass
class TimingRecord:
    """Aggregate timing of one named operation (kernel, exchange, fill)."""

    name: str
    calls: int = 0
    seconds: float = 0.0
    cells: int = 0
    bytes: int = 0
    messages: int = 0     # MPI messages behind this operation (exchanges)
    # -- hardware-counter aggregates (0.0 without a PMU) ------------------------
    cycles: float = 0.0
    instructions: float = 0.0
    cache_references: float = 0.0
    cache_misses: float = 0.0
    stalled_cycles: float = 0.0
    counted_calls: int = 0    # calls that carried hardware counter values

    _COUNTER_FIELDS = (
        "cycles", "instructions", "cache_references", "cache_misses", "stalled_cycles",
    )

    @property
    def mean_seconds(self) -> float:
        return self.seconds / self.calls if self.calls else 0.0

    @property
    def mlups(self) -> float:
        """Million lattice-cell updates per second (0 for non-kernel rows)."""
        if self.cells == 0 or self.seconds == 0.0:
            return 0.0
        return self.cells / self.seconds / 1e6

    @property
    def cycles_per_lup(self) -> float | None:
        """Measured cycles per lattice-site update (``None`` sans counters)."""
        if self.cycles <= 0.0 or self.cells == 0:
            return None
        return self.cycles / self.cells

    @property
    def ipc(self) -> float | None:
        """Instructions retired per cycle (``None`` without counters)."""
        if self.cycles <= 0.0 or self.instructions <= 0.0:
            return None
        return self.instructions / self.cycles

    def measured_bytes_per_lup(
        self, line_bytes: int = DEFAULT_LINE_BYTES
    ) -> float | None:
        """Memory traffic per LUP derived from cache-miss counts × line size."""
        if self.cache_misses <= 0.0 or self.cells == 0:
            return None
        return self.cache_misses * line_bytes / self.cells

    def absorb_counters(self, start, end) -> None:
        """Accumulate the counter delta ``end - start`` of two samples.

        Field by field, where both samples carry a value — the events the
        PMU accepted; written out, it runs once per measured operation.
        """
        if start.cycles is not None and end.cycles is not None:
            self.counted_calls += 1
            self.cycles += end.cycles - start.cycles
        if start.instructions is not None and end.instructions is not None:
            self.instructions += end.instructions - start.instructions
        if start.cache_references is not None and end.cache_references is not None:
            self.cache_references += end.cache_references - start.cache_references
        if start.cache_misses is not None and end.cache_misses is not None:
            self.cache_misses += end.cache_misses - start.cache_misses
        if start.stalled_cycles is not None and end.stalled_cycles is not None:
            self.stalled_cycles += end.stalled_cycles - start.stalled_cycles


class _Measurement:
    """A reusable ``measure`` block: the timer and, with a PMU, two counter samples.

    Made once per scheduled operation and entered on every step; it holds
    its :class:`TimingRecord` (resolved on the first exit after a
    :meth:`SolverProfiler.reset`) and the data of its ``op`` event, so an
    exit updates fields and records one event, and builds nothing else.
    Not re-entrant: one operation, one interval at a time.
    """

    __slots__ = ("_profiler", "_name", "_cells", "_nbytes", "_data",
                 "_record", "_epoch", "_harness", "_t0", "_s0")

    def __init__(self, profiler, name, cells, nbytes):
        self._profiler = profiler
        self._name = name
        self._cells = cells
        self._nbytes = nbytes
        self._data = {k: v for k, v in (("cells", cells), ("bytes", nbytes)) if v}
        self._epoch = -1    # no record resolved yet

    def __enter__(self):
        harness = self._harness = get_counter_harness()
        self._s0 = None if harness is None else harness.sample()
        self._t0 = perf_counter()

    def __exit__(self, *exc):
        seconds = perf_counter() - self._t0
        s0 = self._s0
        s1 = None if s0 is None else self._harness.sample()
        profiler = self._profiler
        if self._epoch != profiler._epoch:
            self._record = profiler._record_for(self._name)
            self._epoch = profiler._epoch
        rec = self._record
        rec.calls += 1
        rec.seconds += seconds
        rec.cells += self._cells
        rec.bytes += self._nbytes
        if s1 is not None:
            rec.absorb_counters(s0, s1)
        recorder = get_recorder()
        if recorder.enabled:
            recorder.record("op", self._name, seconds=seconds, **self._data)


class SolverProfiler:
    """Collects named wall-clock timings with cell and byte counters."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.records: dict[str, TimingRecord] = {}
        self._epoch = 0     # bumped by reset(): a measurement re-resolves its record

    def _record_for(self, name: str) -> TimingRecord:
        rec = self.records.get(name)
        if rec is None:
            rec = self.records[name] = TimingRecord(name)
        return rec

    def record(
        self,
        name: str,
        seconds: float,
        cells: int = 0,
        nbytes: int = 0,
        messages: int = 0,
    ) -> None:
        """Accumulate one timed interval under *name*.

        The interval ended just before this call: the timestamp of the
        ``op`` event it becomes stands for its end.  *messages* counts the
        MPI messages behind the interval, so exchange wait time is
        attributable to message count as well as volume.
        """
        rec = self._record_for(name)
        rec.calls += 1
        rec.seconds += seconds
        rec.cells += cells
        rec.bytes += nbytes
        rec.messages += messages
        # the profiler is the single event source for the flight
        # recorder: every kernel sweep, ghost-exchange phase and fill
        # becomes one "op" event in the ring (and the crash post-mortem)
        recorder = get_recorder()
        if recorder.enabled:
            data = {"seconds": seconds}
            if cells:
                data["cells"] = cells
            if nbytes:
                data["bytes"] = nbytes
            if messages:
                data["messages"] = messages
            recorder.record("op", name, **data)

    def measure(self, name: str, cells: int = 0, nbytes: int = 0):
        """Time the enclosed ``with`` block and accumulate it under *name*.

        The returned measurement may be kept and entered again for every
        later interval of the same operation — the time loop makes one per
        scheduled operation when it lowers its schedule.
        """
        if not self.enabled:
            return nullcontext()
        return _Measurement(self, name, cells, nbytes)

    # -- aggregation -----------------------------------------------------------

    def merge(self, other: "SolverProfiler") -> None:
        """Fold another profiler's records into this one (multi-rank reduce).

        Field-wise accumulation; merging a profiler into itself is a no-op
        (the snapshot plus the identity check keep ``merge(self)`` from
        corrupting the records it iterates).
        """
        for rec in list(other.records.values()):
            mine = self._record_for(rec.name)
            if mine is rec:
                continue
            mine.calls += rec.calls
            mine.seconds += rec.seconds
            mine.cells += rec.cells
            mine.bytes += rec.bytes
            mine.messages += rec.messages
            mine.counted_calls += rec.counted_calls
            for field in TimingRecord._COUNTER_FIELDS:
                setattr(mine, field, getattr(mine, field) + getattr(rec, field))

    def reset(self) -> None:
        self.records.clear()
        self._epoch += 1

    @property
    def total_seconds(self) -> float:
        return sum(r.seconds for r in self.records.values())

    # -- metrics export --------------------------------------------------------

    def export_metrics(self, registry=None, **labels) -> None:
        """Publish every record into a :class:`MetricsRegistry`.

        Per operation: ``repro_op_calls_total``, ``repro_op_seconds_total``,
        ``repro_op_bytes_total`` counters-as-gauges plus a
        ``repro_kernel_mlups`` gauge for cell-counted records.  Extra
        *labels* (e.g. ``solver="distributed"``, ``rank=0``) are attached to
        every sample.
        """
        from ..observability.metrics import get_registry

        registry = registry or get_registry()
        for rec in self.records.values():
            registry.gauge(
                "repro_op_calls_total", "profiled operation invocations",
                op=rec.name, **labels,
            ).set(rec.calls)
            registry.gauge(
                "repro_op_seconds_total", "profiled operation wall time",
                op=rec.name, **labels,
            ).set(rec.seconds)
            if rec.bytes:
                registry.gauge(
                    "repro_op_bytes_total", "bytes moved by operation",
                    op=rec.name, **labels,
                ).set(rec.bytes)
            if rec.messages:
                registry.gauge(
                    "repro_op_messages_total", "MPI messages behind operation",
                    op=rec.name, **labels,
                ).set(rec.messages)
            if rec.cells:
                registry.gauge(
                    "repro_kernel_mlups", "measured kernel rate",
                    kernel=rec.name, **labels,
                ).set(rec.mlups)
                if rec.cycles_per_lup is not None:
                    registry.gauge(
                        "repro_kernel_cycles_per_lup",
                        "measured cycles per lattice-site update",
                        kernel=rec.name, **labels,
                    ).set(rec.cycles_per_lup)
                if rec.ipc is not None:
                    registry.gauge(
                        "repro_kernel_ipc", "instructions retired per cycle",
                        kernel=rec.name, **labels,
                    ).set(rec.ipc)
                measured_bpl = rec.measured_bytes_per_lup()
                if measured_bpl is not None:
                    registry.gauge(
                        "repro_kernel_measured_bytes_per_lup",
                        "memory traffic per LUP from cache-miss counts",
                        kernel=rec.name, **labels,
                    ).set(measured_bpl)

    # -- reporting -------------------------------------------------------------

    def report(self, title: str = "solver profile") -> str:
        """Human-readable per-kernel table (calls, time, MLUP/s, MiB moved)."""
        lines = report_header(title)
        if not self.records:
            lines.append("(no timed operations yet)")
            return "\n".join(lines)
        have_counters = any(r.counted_calls for r in self.records.values())
        rows = []
        for rec in sorted(self.records.values(), key=lambda r: -r.seconds):
            row = [
                rec.name,
                rec.calls,
                f"{rec.seconds:.4f}",
                f"{rec.mean_seconds * 1e3:.3f}",
                f"{rec.mlups:.2f}" if rec.cells else "-",
                f"{rec.bytes / 2**20:.2f}" if rec.bytes else "-",
                f"{rec.messages}" if rec.messages else "-",
            ]
            if have_counters:
                cyl = rec.cycles_per_lup
                ipc = rec.ipc
                row.append(f"{cyl:.1f}" if cyl is not None else "-")
                row.append(f"{ipc:.2f}" if ipc is not None else "-")
            rows.append(tuple(row))
        headers = ["operation", "calls", "total s", "mean ms", "MLUP/s",
                   "MiB moved", "msgs"]
        if have_counters:
            headers += ["cy/LUP", "IPC"]
        lines.extend(format_table(headers, rows))
        lines.append(f"total timed: {self.total_seconds:.4f} s")
        lines.append(counter_provenance_line())
        return "\n".join(lines)
