"""Flight recorder: the one event stream every layer writes to.

Every timed interval and every discrete occurrence of a run — codegen
pipeline spans, time steps, kernel dispatches, profiled operations,
diagnostics counter samples, fingerprints, health events, checkpoint
writes — is one ``(seq, ts, kind, name, data)`` event appended to a
:class:`FlightRecorder`.  Nothing else collects events: the Chrome /
Perfetto timeline (:func:`chrome_trace`), the multi-rank timeline (the
same function over several recorders), the health log and the step-time
chart of ``tools/run_report.py`` are views of this stream, and a crash
at step 48 123 of a day-long run is diagnosable from it alone:

* **always on** — the process-wide recorder is enabled by default and
  bounded (a ``deque(maxlen=...)`` ring), so an event costs 0.9 µs on a
  2-vCPU Xeon guest, 1.5 µs on its throttled vCPU (6.7–7.0 µs with a
  journal open; the ``step_begin`` + ``step_end`` pair 3.1 µs), and a
  fixed amount of memory no matter how long the run is; ``capacity=None``
  keeps every event instead, for a run whose whole timeline is wanted
  without a journal;
* **intervals are events that carry** ``seconds`` — ``op`` (recorded by
  the profiler after the interval), ``step_end``, ``fingerprint`` and the
  ``span_end`` closing a :meth:`~FlightRecorder.span`; the interval is
  ``[ts - seconds, ts]``;
* **self-measured overhead** — every :meth:`~FlightRecorder.record` call
  times itself; :class:`~repro.observability.rundir.RunDir` writes a run's
  share of the accumulated cost into its manifest, and the tier-1 tests
  gate it per event (12 µs);
* **JSONL journal** — :meth:`~FlightRecorder.open_journal` streams every
  event to a line-buffered ``journal.jsonl`` (one JSON object per line),
  the durable variant of the ring for post-run analysis and the HTML run
  report;
* **crash forensics** — the ring, the calling thread's open-span stack
  and step position are what
  :func:`repro.observability.postmortem.capture_postmortem` snapshots
  into ``postmortem.json`` when a rank dies.

The process-wide instance (:func:`get_recorder`) can be shadowed per
thread with :func:`set_thread_recorder` / :func:`rank_recorder`, so
simulated (thread-backed) MPI ranks each keep their own event ring;
forked process ranks get a private copy of the global recorder for free.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from contextlib import contextmanager
from time import perf_counter

__all__ = [
    "PIPELINE_LAYERS",
    "FlightRecorder",
    "RecorderEvent",
    "chrome_trace",
    "load_journal",
    "get_recorder",
    "set_recorder",
    "set_thread_recorder",
    "rank_recorder",
]

#: default ring capacity — enough for several steps of a busy distributed
#: solver (each step emits ~10–20 events), small enough to pickle cheaply
DEFAULT_CAPACITY = 1024

#: the pipeline layers used as span categories, in stack order; each is one
#: named thread track of :func:`chrome_trace`
PIPELINE_LAYERS = (
    "functional",
    "pde",
    "discretization",
    "simplification",
    "ir",
    "backend",
    "runtime",
)


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


class _ThreadState(threading.local):
    """Where the calling thread is: its open begin/end spans and step position.

    Per thread because simulated ranks may share one recorder: a shared
    stack lets rank 0's ``step_end`` pop rank 1's ``step_begin``, and a
    post-mortem then names the wrong rank and step.
    """

    def __init__(self):
        self.open: list[RecorderEvent] = []
        self.position: dict = {}


class FlightRecorder:
    """Ring of structured run events with an optional JSONL journal.

    *capacity* bounds the ring (the newest events are kept); ``None`` keeps
    every event.
    """

    def __init__(
        self,
        capacity: int | None = DEFAULT_CAPACITY,
        enabled: bool = True,
        rank: int | None = None,
    ):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None: keep every event)")
        self.enabled = enabled
        self.rank = rank
        self.capacity = capacity if capacity is None else int(capacity)
        self._ring: deque[RecorderEvent] = deque(maxlen=self.capacity)
        self._seq = 0
        self._overhead = 0.0
        self._thread = _ThreadState()
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
            event = tuple.__new__(RecorderEvent, (self._seq, t0, kind, name, data))
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
            self._thread.open.append(event)
        return event

    def end(self, kind: str, name: str = "", **data) -> RecorderEvent | None:
        """Record a ``<kind>_end`` event and pop this thread's innermost open span."""
        event = self.record(f"{kind}_end", name, **data)
        if event is not None and self._thread.open:
            self._thread.open.pop()
        return event

    @contextmanager
    def span(self, name: str, category: str = "", **args):
        """Time the enclosed block as a ``span_begin`` / ``span_end`` pair.

        *category* names the pipeline layer (the track of
        :func:`chrome_trace`).  Yields the dict that is attached to the end
        event — it starts as *args*; add what is known only after the work
        ran::

            with get_recorder().span("compile:phi", category="backend") as result:
                ...
                result["cache"] = "hit"
        """
        t0 = perf_counter()
        self.begin("span", name, category=category, **args)
        try:
            yield args
        finally:
            self.end("span", name, category=category, seconds=perf_counter() - t0, **args)

    def counter(self, name: str, values: dict[str, float]) -> RecorderEvent | None:
        """Record one sample of the named counter track (e.g. the diagnostics)."""
        return self.record("counter", name, **{k: float(v) for k, v in values.items()})

    # step_begin / step_end are begin("step") / end("step") written out:
    # they run twice per time step of every solver

    def step_begin(self, time_step: int, **data) -> RecorderEvent | None:
        """Open a time-step span; also updates :attr:`position`."""
        if not self.enabled:
            return None
        step = int(time_step)
        thread = self._thread
        thread.position = {"time_step": step, **data}
        event = self.record("step_begin", str(time_step), time_step=step, **data)
        thread.open.append(event)
        return event

    def step_end(self, time_step: int, seconds: float | None = None) -> RecorderEvent | None:
        """Close the current time-step span, recording its wall time."""
        if not self.enabled:
            return None
        data = {"time_step": int(time_step)}
        if seconds is not None:
            data["seconds"] = float(seconds)
        event = self.record("step_end", str(time_step), **data)
        open_spans = self._thread.open
        if open_spans:
            open_spans.pop()
        return event

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
        """This thread's run position (``time_step``, …) from :meth:`step_begin`."""
        return dict(self._thread.position)

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
            self._journal_path = None

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
        """The begin/end spans open on this thread, outermost first."""
        return [_plain(e.to_dict()) for e in self._thread.open]

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

    def reset(self) -> None:
        with self._lock:
            self._ring.clear()
            self._thread = _ThreadState()
            self._seq = 0
            self._overhead = 0.0

    def __len__(self):
        return len(self._ring)

    # -- pickling ---------------------------------------------------------------

    def __getstate__(self) -> dict:
        # recorders cross the proc_comm worker -> parent hop (crash
        # post-mortems, and rank recorders returned for chrome_trace); the
        # journal handle, state provider and lock are per-process and
        # rebuilt (empty) on the other side.  On Linux perf_counter is
        # CLOCK_MONOTONIC — system-wide — so the events of several
        # processes still align on one timeline.
        with self._lock:
            return {
                "enabled": self.enabled,
                "rank": self.rank,
                "capacity": self.capacity,
                "ring": list(self._ring),
                "open": list(self._thread.open),
                "position": dict(self._thread.position),
                "seq": self._seq,
                "overhead": self._overhead,
            }

    def __setstate__(self, state: dict) -> None:
        self.enabled = state["enabled"]
        self.rank = state["rank"]
        self.capacity = state["capacity"]
        self._ring = deque(state["ring"], maxlen=self.capacity)
        self._thread = _ThreadState()
        self._thread.open = list(state["open"])
        self._thread.position = dict(state["position"])
        self._seq = state["seq"]
        self._overhead = state["overhead"]
        self._journal = None
        self._journal_path = None
        self._state_provider = None
        self._lock = threading.Lock()


class _ThreadRecorder(threading.local):
    # a class default: a thread without an override reads None without the
    # AttributeError a getattr default costs (0.5 µs, several times a step)
    recorder: FlightRecorder | None = None


_GLOBAL_RECORDER = FlightRecorder()
_THREAD_RECORDER = _ThreadRecorder()


def get_recorder() -> FlightRecorder:
    """This thread's recorder: the thread-local override, else the global one."""
    override = _THREAD_RECORDER.recorder
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
    previous = _THREAD_RECORDER.recorder
    _THREAD_RECORDER.recorder = recorder
    return previous


@contextmanager
def rank_recorder(rank: int, capacity: int | None = DEFAULT_CAPACITY, enabled: bool = True):
    """Install a rank-tagged recorder for the calling thread (one MPI rank).

    Inside the block :func:`get_recorder` resolves to the new recorder on
    this thread only, so every event of the rank lands in its own ring.
    Yields the recorder — return it from the rank program to inspect the
    per-rank rings, or (with ``capacity=None``) to render all ranks as one
    timeline, after :func:`~repro.parallel.mpi_sim.run_ranks` returns::

        def rank_program(comm):
            with rank_recorder(comm.rank, capacity=None) as recorder:
                solver = DistributedSolver(kernels, forest, comm=comm)
                ...
            return recorder

        doc = chrome_trace(run_ranks(4, rank_program))

    On an exception the recorder stays installed for the thread: the rank
    is unwinding toward the crash-capture handler in ``run_ranks``, which
    runs on this same thread *after* this context exits and must still see
    the rank's ring (not the process-global one).  Rank threads are
    one-shot, so nothing else ever reuses the thread-local slot.  Either
    way the rank is over: a journal a solver opened on the recorder is
    closed (its lines are already on disk).
    """
    recorder = FlightRecorder(capacity=capacity, enabled=enabled, rank=rank)
    previous = set_thread_recorder(recorder)
    try:
        yield recorder
    except BaseException:
        raise
    else:
        set_thread_recorder(previous)
    finally:
        recorder.close_journal()


# -- views of the event stream ----------------------------------------------------


def load_journal(path, rank: int | None = None) -> FlightRecorder:
    """A JSONL journal's events as a detached, keep-everything recorder.

    The events are the tuples the writing process recorded, so everything
    that reads a live recorder (:func:`chrome_trace`, ``events``,
    ``last_of``) reads a finished — or crashed — run's journal the same way.
    """
    recorder = FlightRecorder(capacity=None, rank=rank)
    with open(path) as handle:
        for line in handle:
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # a crash can truncate the final line
            recorder._ring.append(
                RecorderEvent(
                    event["seq"], event["ts"], event["kind"], event["name"], event["data"]
                )
            )
    return recorder


def _lanes(intervals):
    """``(lane, event)`` for ``(start, end, event)`` intervals, lanes per ``cat``.

    Within a category, the intervals of one lane nest: each goes to the first
    lane whose innermost still-open interval encloses it (or that has none
    open), else to a new lane.  The intervals one thread records nest, so a
    single-threaded recording keeps a category on lane 0 — except where an
    interval's ``seconds`` reaches a few µs before its enclosing one's start
    (the two are timed by different clock reads), which a lane of its own
    renders correctly too.
    """
    open_ends: dict[str, list[list[float]]] = {}
    for start, end, event in sorted(intervals, key=lambda i: (i[0], -i[1])):
        lanes = open_ends.setdefault(event["cat"], [])
        for lane, stack in enumerate(lanes):
            while stack and stack[-1] <= start:
                stack.pop()
            if not stack or end <= stack[-1]:
                break
        else:
            lane, stack = len(lanes), []
            lanes.append(stack)
        stack.append(end)
        yield lane, event


def chrome_trace(recorders) -> dict:
    """The events of one or several recorders as ONE Chrome/Perfetto document.

    *recorders* are live recorders, rank recorders returned (pickled, under
    the process backend) from a rank program, or journals read back with
    :func:`load_journal`; ``None`` entries are skipped.  Track layout: each
    recorder is a named *process* (``rank N``, sorted by rank; ``repro`` for
    an untagged one, sorted first), and within it every pipeline layer —
    the ``category`` of a :meth:`~FlightRecorder.span`; ``runtime`` for
    steps, profiled operations and fingerprints — is a named *thread*, so
    the φ/µ sweeps, the exchange phases and the codegen layers of all
    ranks line up on a common timeline (all ranks share one
    ``perf_counter`` clock; timestamps are relative to the earliest
    event).  Every event that carries ``seconds`` becomes a complete
    (``"X"``) event over ``[ts - seconds, ts]``, every ``counter`` event a
    ``"C"`` sample.  Complete events on one thread must nest, so spans of
    one layer that overlap without nesting — kernels a solver compiles side
    by side on worker threads — go to extra tracks of that layer
    (``backend #2``, …; see :func:`_lanes`).  Write it with ``json.dump``; load the file in
    ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    recorders = [r for r in recorders if r is not None]
    if not recorders:
        raise ValueError("no recorders to render")
    ranks = [r.rank for r in recorders]
    duplicates = sorted({str(r) for r in ranks if ranks.count(r) > 1})
    if duplicates:
        # two recorders on one pid would silently interleave their tracks
        raise ValueError(f"duplicate rank ids in one trace: {duplicates}")
    main_pid = 1 + max((r for r in ranks if r is not None), default=-1)
    layer_tids = {layer: tid for tid, layer in enumerate(PIPELINE_LAYERS)}

    def meta(what, pid, tid, **args):
        return {"name": what, "ph": "M", "pid": pid, "tid": tid, "args": args}

    metadata: list[dict] = []
    spans: list[dict] = []
    counters: list[dict] = []
    for recorder, rank in zip(recorders, ranks):
        pid = main_pid if rank is None else rank
        metadata.append(
            meta("process_name", pid, 0, name="repro" if rank is None else f"rank {rank}")
        )
        metadata.append(
            meta("process_sort_index", pid, 0, sort_index=-1 if rank is None else rank)
        )
        intervals: list[tuple[float, float, dict]] = []
        for _seq, ts, kind, name, data in recorder.events:
            event = {"name": name, "cat": "runtime", "ts": ts, "pid": pid, "tid": 0}
            if kind == "counter":
                counters.append({**event, "cat": "counter", "ph": "C", "args": _plain(data)})
                continue
            if "seconds" not in data:
                continue
            args = {k: v for k, v in data.items() if k not in ("seconds", "category")}
            if kind == "span_end":
                event["cat"] = data.get("category") or "default"
            elif kind != "op":
                # step_end, fingerprint: the kind names the interval and the
                # event's name identifies it (the step number, the digest)
                event["name"], args["name"] = kind.removesuffix("_end"), name
            event.update(
                ph="X", ts=ts - data["seconds"], dur=round(data["seconds"] * 1e6, 3),
                args=_plain(args),
            )
            intervals.append((ts - data["seconds"], ts, event))
        used: dict[int, str] = {}
        for lane, event in _lanes(intervals):
            track = event["cat"] if lane == 0 else f"{event['cat']} #{lane + 1}"
            event["tid"] = layer_tids.setdefault(track, len(layer_tids))
            used[event["tid"]] = track
            spans.append(event)
        metadata += [
            meta("thread_name", pid, tid, name=track) for tid, track in sorted(used.items())
        ]
    epoch = min((e["ts"] for e in spans + counters), default=0.0)
    for event in spans + counters:
        event["ts"] = round((event["ts"] - epoch) * 1e6, 3)
    spans.sort(key=lambda e: (e["pid"], e["tid"], e["ts"], -e["dur"]))
    counters.sort(key=lambda e: (e["pid"], e["name"], e["ts"]))
    return {
        "traceEvents": metadata + spans + counters,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.observability"},
    }
