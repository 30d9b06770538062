"""The benchmark's own span recorder for the traced pass.

Spans are recorded *from outside*: public callables of the repo's layers
are replaced at run time (module attributes, instance attributes, two
methods of ``GhostExchange``) by wrappers that note name, start, end,
parent and the solver's step index.  No file under ``src/`` is edited and
the repo's own tracer, profiler and recorder are left as they are.

Spans stay in memory; :func:`chrome_trace` and :func:`self_time_table`
turn them into the two artefacts written when a workload ends.
"""

from __future__ import annotations

from time import perf_counter

# span tuple layout
NAME, START, END, PARENT, STEP = range(5)


class SpanRecorder:
    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: returns the step index stamped on new spans
        self.step_of = lambda: -1

    # -- recording ---------------------------------------------------------------

    def wrap(self, fn, name: str, label=None):
        """*fn* wrapped in a span called *name* (``name:label(*args)``)."""
        rec = self

        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            full = name if label is None else f"{name}:{label(*args, **kwargs)}"
            index = len(rec.spans)
            parent = rec._stack[-1] if rec._stack else -1
            span = [full, 0.0, 0.0, parent, rec.step_of()]
            rec.spans.append(span)
            rec._stack.append(index)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                rec._stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str, label=None, result=None) -> None:
        """Replace ``owner.attr`` by its traced version for the process's life.

        *result* post-processes the return value (used to hand the solvers
        traced kernels out of ``compile_cached``).
        """
        traced = self.wrap(getattr(owner, attr), name, label)
        if result is not None:
            inner = traced

            def traced(*args, **kwargs):
                return result(inner(*args, **kwargs))

        setattr(owner, attr, traced)

    def total(self, prefix: str) -> float:
        """Summed duration of spans whose name starts with *prefix*."""
        return sum(s[END] - s[START] for s in self.spans if s[NAME].startswith(prefix))


class TracedKernel:
    """A compiled kernel whose calls are spans named ``kernel:<name>``."""

    def __init__(self, compiled, recorder: SpanRecorder):
        self._compiled = compiled
        self._call = recorder.wrap(compiled, f"kernel:{compiled.name}")

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._compiled, attr)


class TimedComm:
    """Delegating communicator: point-to-point calls become spans.

    ``comm.isend`` / ``comm.send`` count the messages a rank posts,
    ``comm.recv`` and ``Request.wait`` are where it waits for the other
    rank.  Collectives and everything else go straight to the wrapped
    communicator (its collectives use its *own* send/recv, so they are not
    counted as exchange traffic).
    """

    def __init__(self, comm, recorder: SpanRecorder):
        self._comm = comm
        self._rec = recorder
        self.send = recorder.wrap(comm.send, "comm.send")
        self.isend = recorder.wrap(comm.isend, "comm.send")
        self.recv = recorder.wrap(comm.recv, "comm.wait")

    def irecv(self, source, tag=0):
        request = self._comm.irecv(source, tag=tag)
        request.wait = self._rec.wrap(request.wait, "comm.wait")
        return request

    def __getattr__(self, attr):
        return getattr(self._comm, attr)


# -- artefacts ---------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Duration of every span minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def self_time_table(spans_by_pid: dict, steps: int) -> str:
    """Per span name: calls, total and self time; per step for the rank rows.

    *steps* is the length of the traced window; set-up rows (codegen,
    compile) happen once and get no per-step columns.
    """
    rows: dict[tuple, list] = {}
    for pid, spans in sorted(spans_by_pid.items()):
        for span, own in zip(spans, self_times(spans)):
            row = rows.setdefault((pid, span[NAME]), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += span[END] - span[START]
            row[2] += own
    lines = [
        f"{'pid':8s} {'span':34s} {'calls':>8s} {'total ms':>11s} {'self ms':>11s} "
        f"{'total/step':>11s} {'self/step':>11s}"
    ]
    per = 1e3 / max(steps, 1)
    for (pid, name), (calls, total, own) in sorted(
        rows.items(), key=lambda kv: (kv[0][0], -kv[1][2])
    ):
        line = f"{pid:8s} {name:34s} {calls:8d} {total * 1e3:11.3f} {own * 1e3:11.3f}"
        if pid.startswith("rank"):
            line += f" {total * per:11.4f} {own * per:11.4f}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def chrome_trace(spans_by_pid: dict) -> dict:
    """``chrome://tracing`` / Perfetto document of complete ("X") events."""
    events = []
    for pid, (label, spans) in enumerate(sorted(spans_by_pid.items())):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "args": {"name": label},
        })
        for index, s in enumerate(spans):
            events.append({
                "name": s[NAME], "ph": "X", "pid": pid, "tid": 0,
                "ts": s[START] * 1e6, "dur": (s[END] - s[START]) * 1e6,
                "args": {"id": index, "parent": s[PARENT], "step": s[STEP]},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
