"""Flight recorder: an always-on, bounded ring buffer of structured events.

Long multi-rank runs fail in ways the trace/metrics layers cannot explain
after the fact: the tracer is opt-in (and unbounded), the metrics are
aggregates, and a worker that dies under :mod:`repro.parallel.proc_comm`
takes its in-memory state with it.  The :class:`FlightRecorder` is the
production-forensics counterpart — waLBerla-class codes keep exactly this
kind of rolling event log so a crash at step 48 123 of a day-long run is
diagnosable from the artifacts alone:

* **always on** — the process-wide recorder is enabled by default and
  bounded (a ``deque(maxlen=...)`` ring), so it costs a few microseconds
  per event and a fixed amount of memory no matter how long the run is;
* **structured events** — step begin/end, kernel dispatch, every profiled
  operation (ghost-exchange pack/wait/unpack, boundary fills), health
  events and checkpoint writes, each a ``(seq, ts, kind, name, data)``
  record;
* **self-measured overhead** — every :meth:`~FlightRecorder.record` call
  times itself; the accumulated cost is exported as the
  ``repro_observability_overhead_seconds`` gauge and gated per event
  (12 µs) by the tier-1 tests;
* **JSONL journal** — :meth:`~FlightRecorder.open_journal` streams every
  event to a line-buffered ``journal.jsonl`` (one JSON object per line),
  the durable variant of the ring for post-run analysis and the HTML run
  report;
* **crash forensics** — the ring, the open-span stack and the current
  step position are what :func:`repro.observability.postmortem.capture_postmortem`
  snapshots into ``postmortem.json`` when a rank dies.

Like the tracer, the process-wide instance (:func:`get_recorder`) can be
shadowed per thread with :func:`set_thread_recorder` /
:func:`rank_recorder`, so simulated (thread-backed) MPI ranks each keep
their own event ring; forked process ranks get a private copy of the
global recorder for free.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from contextlib import contextmanager
from time import perf_counter

__all__ = [
    "FlightRecorder",
    "RecorderEvent",
    "get_recorder",
    "set_recorder",
    "set_thread_recorder",
    "rank_recorder",
]

#: default ring capacity — enough for several steps of a busy distributed
#: solver (each step emits ~10–20 events), small enough to pickle cheaply
DEFAULT_CAPACITY = 1024

#: name of the self-measured overhead gauge
OVERHEAD_GAUGE = "repro_observability_overhead_seconds"


def _plain(value):
    """Coerce *value* into a JSON/pickle-safe primitive (recursively)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    # numpy scalars expose item(); anything else degrades to repr
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return _plain(item())
        except Exception:
            pass
    return repr(value)


class RecorderEvent(tuple):
    """One recorded event: ``(seq, ts, kind, name, data)``.

    A thin tuple subclass so events stay cheap to create and pickle while
    offering named access and a dict form for JSON export.
    """

    __slots__ = ()

    def __new__(cls, seq: int, ts: float, kind: str, name: str, data: dict):
        return tuple.__new__(cls, (seq, ts, kind, name, data))

    def __getnewargs__(self):
        return tuple(self)

    @property
    def seq(self) -> int:
        return self[0]

    @property
    def ts(self) -> float:
        return self[1]

    @property
    def kind(self) -> str:
        return self[2]

    @property
    def name(self) -> str:
        return self[3]

    @property
    def data(self) -> dict:
        return self[4]

    def to_dict(self) -> dict:
        return {
            "seq": self[0],
            "ts": self[1],
            "kind": self[2],
            "name": self[3],
            "data": self[4],
        }

    def __repr__(self):
        return f"RecorderEvent(seq={self[0]}, kind={self[2]!r}, name={self[3]!r})"


class FlightRecorder:
    """Bounded ring of structured run events with an optional JSONL journal."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        enabled: bool = True,
        rank: int | None = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.enabled = enabled
        self.rank = rank
        self.capacity = int(capacity)
        self._ring: deque[RecorderEvent] = deque(maxlen=self.capacity)
        self._seq = 0
        self._overhead = 0.0
        self._open: list[RecorderEvent] = []
        self._position: dict = {}
        self._journal = None
        self._journal_path: str | None = None
        self._state_provider = None
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------------

    def record(self, kind: str, name: str = "", **data) -> RecorderEvent | None:
        """Append one event to the ring (and the journal, when open).

        Returns the event, or ``None`` when disabled.  The call times
        itself; the accumulated cost is :attr:`overhead_seconds`.
        """
        if not self.enabled:
            return None
        t0 = perf_counter()
        with self._lock:
            self._seq += 1
            event = RecorderEvent(self._seq, t0, kind, name, data)
            self._ring.append(event)
            if self._journal is not None:
                try:
                    self._journal.write(
                        json.dumps(event.to_dict(), default=_plain) + "\n"
                    )
                except (OSError, ValueError):
                    # a full disk or closed handle must never kill the run
                    self._journal = None
            self._overhead += perf_counter() - t0
        return event

    def begin(self, kind: str, name: str = "", **data) -> RecorderEvent | None:
        """Record a ``<kind>_begin`` event and push it on the open-span stack."""
        event = self.record(f"{kind}_begin", name, **data)
        if event is not None:
            with self._lock:
                self._open.append(event)
        return event

    def end(self, kind: str, name: str = "", **data) -> RecorderEvent | None:
        """Record a ``<kind>_end`` event and pop the matching open span."""
        event = self.record(f"{kind}_end", name, **data)
        if event is not None:
            with self._lock:
                if self._open:
                    self._open.pop()
        return event

    def step_begin(self, time_step: int, **data) -> RecorderEvent | None:
        """Open a time-step span; also updates :attr:`position`."""
        if self.enabled:
            self._position = {"time_step": int(time_step), **data}
        return self.begin("step", str(time_step), time_step=int(time_step), **data)

    def step_end(self, time_step: int, seconds: float | None = None) -> RecorderEvent | None:
        """Close the current time-step span, recording its wall time."""
        data = {"time_step": int(time_step)}
        if seconds is not None:
            data["seconds"] = float(seconds)
        return self.end("step", str(time_step), **data)

    # -- attached state --------------------------------------------------------

    def set_state_provider(self, provider) -> None:
        """Register ``provider() -> {name: ndarray}`` for crash field stats.

        The post-mortem path calls it (guarded) to compute per-field
        finite/min/max/NaN statistics at the moment of death.  Pass ``None``
        to detach.
        """
        self._state_provider = provider

    @property
    def state_provider(self):
        return self._state_provider

    @property
    def position(self) -> dict:
        """Last known run position (``time_step``, …) from :meth:`step_begin`."""
        return dict(self._position)

    # -- journal ---------------------------------------------------------------

    def open_journal(self, path) -> str:
        """Stream subsequent events to *path* as JSONL; returns the path.

        Line-buffered so a crashing process leaves a complete journal up to
        its last event.  Re-opening with a new path closes the old journal.
        """
        self.close_journal()
        with self._lock:
            self._journal = open(path, "w", buffering=1)
            self._journal_path = str(path)
        return str(path)

    def close_journal(self) -> None:
        with self._lock:
            if self._journal is not None:
                try:
                    self._journal.close()
                except OSError:
                    pass
            self._journal = None

    @property
    def journal_path(self) -> str | None:
        return self._journal_path

    # -- introspection ---------------------------------------------------------

    @property
    def events(self) -> list[RecorderEvent]:
        return list(self._ring)

    def last_events(self, n: int = 50) -> list[dict]:
        """The newest *n* events, oldest first, as JSON-safe dicts."""
        tail = list(self._ring)[-int(n):]
        return [_plain(e.to_dict()) for e in tail]

    def open_spans(self) -> list[dict]:
        """The currently open begin/end spans, outermost first."""
        return [_plain(e.to_dict()) for e in self._open]

    def last_of(self, *kinds: str) -> RecorderEvent | None:
        """Newest event whose kind is one of *kinds* (``None`` if absent)."""
        for event in reversed(self._ring):
            if event.kind in kinds:
                return event
        return None

    @property
    def overhead_seconds(self) -> float:
        """Accumulated self-measured cost of every :meth:`record` call."""
        return self._overhead

    @property
    def events_recorded(self) -> int:
        """Number of :meth:`record` calls behind :attr:`overhead_seconds`."""
        return self._seq

    def publish_overhead(self, registry=None) -> float:
        """Set the ``repro_observability_overhead_seconds`` gauge; returns it."""
        from .metrics import get_registry

        registry = registry or get_registry()
        labels = {} if self.rank is None else {"rank": self.rank}
        registry.gauge(
            OVERHEAD_GAUGE,
            "self-measured flight-recorder cost (ring + journal writes)",
            **labels,
        ).set(self._overhead)
        return self._overhead

    def reset(self) -> None:
        with self._lock:
            self._ring.clear()
            self._open.clear()
            self._position = {}
            self._seq = 0
            self._overhead = 0.0

    def __len__(self):
        return len(self._ring)

    # -- pickling ---------------------------------------------------------------

    def __getstate__(self) -> dict:
        # recorders cross the proc_comm worker -> parent hop inside crash
        # post-mortems; the journal handle, state provider and lock are
        # per-process and rebuilt (empty) on the other side
        with self._lock:
            return {
                "enabled": self.enabled,
                "rank": self.rank,
                "capacity": self.capacity,
                "ring": list(self._ring),
                "open": list(self._open),
                "position": dict(self._position),
                "seq": self._seq,
                "overhead": self._overhead,
            }

    def __setstate__(self, state: dict) -> None:
        self.enabled = state["enabled"]
        self.rank = state["rank"]
        self.capacity = state["capacity"]
        self._ring = deque(state["ring"], maxlen=self.capacity)
        self._open = list(state["open"])
        self._position = dict(state["position"])
        self._seq = state["seq"]
        self._overhead = state["overhead"]
        self._journal = None
        self._journal_path = None
        self._state_provider = None
        self._lock = threading.Lock()


_GLOBAL_RECORDER = FlightRecorder()
_THREAD_RECORDER = threading.local()


def get_recorder() -> FlightRecorder:
    """This thread's recorder: the thread-local override, else the global one."""
    override = getattr(_THREAD_RECORDER, "recorder", None)
    return override if override is not None else _GLOBAL_RECORDER


def set_recorder(recorder: FlightRecorder) -> FlightRecorder:
    """Install *recorder* as the process-wide one; returns the previous."""
    global _GLOBAL_RECORDER
    previous = _GLOBAL_RECORDER
    _GLOBAL_RECORDER = recorder
    return previous


def set_thread_recorder(recorder: FlightRecorder | None) -> FlightRecorder | None:
    """Install *recorder* for the current thread only; ``None`` removes it.

    Returns the previous thread-local recorder.  The thread-backed MPI
    simulator uses this (via :func:`rank_recorder`) so every rank keeps a
    private event ring while instrumented code calls plain
    :func:`get_recorder`.
    """
    previous = getattr(_THREAD_RECORDER, "recorder", None)
    _THREAD_RECORDER.recorder = recorder
    return previous


@contextmanager
def rank_recorder(rank: int, capacity: int = DEFAULT_CAPACITY, enabled: bool = True):
    """Install a rank-tagged recorder for the calling thread (one MPI rank).

    The flight-recorder counterpart of
    :func:`repro.observability.distributed.rank_tracer` — yields the new
    recorder; return it from the rank program to inspect per-rank rings
    after :func:`~repro.parallel.mpi_sim.run_ranks` returns.

    On an exception the recorder stays installed for the thread: the rank
    is unwinding toward the crash-capture handler in ``run_ranks``, which
    runs on this same thread *after* this context exits and must still see
    the rank's ring (not the process-global one).  Rank threads are
    one-shot, so nothing else ever reuses the thread-local slot.
    """
    recorder = FlightRecorder(capacity=capacity, enabled=enabled, rank=rank)
    previous = set_thread_recorder(recorder)
    try:
        yield recorder
    except BaseException:
        raise
    else:
        set_thread_recorder(previous)
