"""Distributed-run observability: comm matrix, imbalance, model closure.

The paper's headline results are *scaling* figures (Fig. 3) and the
communication-option study (Table 2); explaining them requires per-rank
timing, communication-volume accounting and load-imbalance analysis — the
same layer the waLBerla scaling studies lean on.  This module provides it
for the simulated-MPI runs of :mod:`repro.parallel` (the per-rank
*timeline* is :func:`repro.observability.recorder.chrome_trace` over the
ranks' :func:`~repro.observability.recorder.rank_recorder` rings):

* **communication matrix** — :class:`CommMatrix` accumulates per-
  ``(src, dst)`` bytes and message counts (fed by the ghost exchange,
  :class:`repro.parallel.ghostlayer.GhostExchange`, under either
  schedule), rendered as a heatmap-style text table;

* **imbalance + closure** — :func:`imbalance_factor` computes
  λ = max/mean of the per-rank step times, and
  :func:`comm_closure_report` joins the measured ghost-exchange time
  (wait vs copy split) with the analytic
  :class:`repro.parallel.comm_model.StepTimeModel` prediction, mirroring
  the ECM kernel closure of :mod:`repro.observability.report`.

Imports from :mod:`repro.parallel` are deferred to call time: the
parallel layer imports ``repro.observability`` at module level, so the
reverse edge must stay lazy to keep the import graph acyclic.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "CommMatrix",
    "imbalance_factor",
    "comm_closure_rows",
    "comm_closure_report",
    "overlap_closure_report",
]

#: shade ramp for the heatmap-style text rendering of :meth:`CommMatrix.render`
_SHADES = " ░▒▓█"


class CommMatrix:
    """Per-``(src, dst)`` communication accounting for one distributed run.

    Byte and message counts are attributed to the *sending* rank; each
    rank's matrix therefore holds one populated row, and the full picture
    emerges by :meth:`merge`-ing the per-rank matrices after the run (the
    counterpart of :meth:`repro.profiling.SolverProfiler.merge`).
    """

    def __init__(self, n_ranks: int):
        n = int(n_ranks)
        if n < 1:
            raise ValueError("CommMatrix needs at least one rank")
        self.n_ranks = n
        self.bytes = np.zeros((n, n), dtype=np.int64)
        self.messages = np.zeros((n, n), dtype=np.int64)

    def add(self, src: int, dst: int, nbytes: int, messages: int = 1) -> None:
        """Account one (or *messages*) message(s) of *nbytes* from src to dst."""
        self.bytes[src, dst] += int(nbytes)
        self.messages[src, dst] += int(messages)

    def merge(self, other: "CommMatrix") -> "CommMatrix":
        """Fold another rank's matrix into this one (element-wise sum)."""
        if other is self:
            return self
        if other.n_ranks != self.n_ranks:
            raise ValueError(
                f"cannot merge CommMatrix of {other.n_ranks} ranks "
                f"into one of {self.n_ranks}"
            )
        self.bytes += other.bytes
        self.messages += other.messages
        return self

    # -- aggregates ------------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        return int(self.bytes.sum())

    @property
    def total_messages(self) -> int:
        return int(self.messages.sum())

    def bytes_sent_per_rank(self) -> np.ndarray:
        """Row sums: bytes each rank injected into the network."""
        return self.bytes.sum(axis=1)

    def imbalance(self) -> float:
        """max/mean of per-rank sent bytes (1.0 = perfectly balanced)."""
        sent = self.bytes_sent_per_rank().astype(float)
        mean = sent.mean()
        return float(sent.max() / mean) if mean > 0 else float("nan")

    # -- rendering -------------------------------------------------------------

    def render(self, title: str = "communication matrix") -> str:
        """Heatmap-style text table: per-(src, dst) KiB, msgs, row totals."""
        lines = [f"== {title}: bytes sent per (src -> dst), KiB =="]
        peak = float(self.bytes.max())
        header = "   src\\dst " + "".join(f"{d:>10d}" for d in range(self.n_ranks))
        lines.append(header + f"{'Σ sent':>12}{'msgs':>8}")
        for src in range(self.n_ranks):
            cells = []
            for dst in range(self.n_ranks):
                b = float(self.bytes[src, dst])
                if b == 0:
                    cells.append(f"{'·':>10}")
                else:
                    shade = _SHADES[
                        min(len(_SHADES) - 1, 1 + int(3 * b / peak)) if peak else 0
                    ]
                    cells.append(f"{b / 1024:>9.1f}{shade}")
            row_bytes = self.bytes[src].sum() / 1024
            row_msgs = int(self.messages[src].sum())
            lines.append(
                f"   {src:>7d} " + "".join(cells)
                + f"{row_bytes:>11.1f} {row_msgs:>7d}"
            )
        lines.append(
            f"   total: {self.total_bytes / 1024:.1f} KiB in "
            f"{self.total_messages} messages, "
            f"byte imbalance max/mean = {self.imbalance():.3f}"
        )
        return "\n".join(lines)

    def __repr__(self):
        return (
            f"CommMatrix(n_ranks={self.n_ranks}, "
            f"bytes={self.total_bytes}, messages={self.total_messages})"
        )


# -- imbalance and model closure -------------------------------------------------


def imbalance_factor(per_rank_seconds) -> float:
    """Load-imbalance factor λ = max/mean of the per-rank step times.

    λ = 1 is a perfectly balanced run; the weak-scaling efficiency loss
    attributable to imbalance is (λ − 1)/λ (the slowest rank gates every
    step because the ghost exchange synchronizes the time loop).
    """
    times = np.asarray(list(per_rank_seconds), dtype=float)
    if times.size == 0 or times.mean() == 0:
        return float("nan")
    return float(times.max() / times.mean())


def comm_closure_rows(step_model, profiler, steps: int, nodes: int = 1) -> list[dict]:
    """Join measured ghost-exchange time with the analytic comm model.

    One dict per exchanged field (``exchange:<field>`` records) plus an
    aggregate ``total`` row.  Keys: ``field``, ``measured_s`` (per step),
    ``wait_s``/``copy_s`` (the deliver vs pack+unpack split),
    ``predicted_s`` (per step, from *step_model* — attributed to the
    total row only), ``ratio`` (measured/predicted).  A ratio far from 1
    on a laptop is expected — the model describes a cluster interconnect,
    not in-process queues — and the column is the calibration factor,
    exactly as in the ECM kernel closure.
    """
    steps = max(int(steps), 1)
    fields = sorted(
        name.split(":", 1)[1]
        for name in profiler.records
        if name.startswith("exchange:") and name.count(":") == 1
    )
    rows: list[dict] = []
    total_measured = total_wait = total_copy = 0.0
    for field in fields:
        rec = profiler.records[f"exchange:{field}"]
        # the exchange times its blocking phase as ":deliver", and as
        # ":wait" for the first axis of a start/finish split
        wait = getattr(
            profiler.records.get(f"exchange:{field}:deliver"), "seconds", 0.0
        ) + getattr(
            profiler.records.get(f"exchange:{field}:wait"), "seconds", 0.0
        )
        copy = getattr(
            profiler.records.get(f"exchange:{field}:pack"), "seconds", 0.0
        ) + getattr(
            profiler.records.get(f"exchange:{field}:unpack"), "seconds", 0.0
        )
        measured = rec.seconds / steps
        total_measured += measured
        total_wait += wait / steps
        total_copy += copy / steps
        rows.append(
            {
                "field": field,
                "measured_s": measured,
                "wait_s": wait / steps,
                "copy_s": copy / steps,
                "predicted_s": None,
                "ratio": None,
            }
        )
    predicted = float(step_model.comm_time_s(nodes)) if step_model is not None else None
    rows.append(
        {
            "field": "total",
            "measured_s": total_measured,
            "wait_s": total_wait,
            "copy_s": total_copy,
            "predicted_s": predicted,
            "ratio": (total_measured / predicted) if predicted else None,
        }
    )
    return rows


def comm_closure_report(
    step_model,
    profiler,
    steps: int,
    nodes: int = 1,
    title: str = "comm model closure (predicted vs measured, per step)",
) -> str:
    """Table 2-style closure: StepTimeModel prediction vs live exchange time."""
    from ..perfmodel.report import format_table, report_header

    rows = comm_closure_rows(step_model, profiler, steps, nodes=nodes)
    lines = report_header(title)
    if len(rows) == 1 and rows[0]["measured_s"] == 0.0:
        lines.append("(no ghost exchanges timed yet)")
        return "\n".join(lines)

    def fmt(value, scale=1e3):
        return f"{value * scale:.3f}" if value is not None else "-"

    lines.extend(
        format_table(
            ["exchange", "measured ms", "wait ms", "copy ms",
             "predicted ms", "measured/predicted"],
            [
                (
                    r["field"],
                    fmt(r["measured_s"]),
                    fmt(r["wait_s"]),
                    fmt(r["copy_s"]),
                    fmt(r["predicted_s"]),
                    f"{r['ratio']:.3f}" if r["ratio"] is not None else "-",
                )
                for r in rows
            ],
        )
    )
    lines.append(
        "(the model describes a cluster interconnect; off-cluster the ratio "
        "is a calibration factor, as in the ECM kernel closure)"
    )
    return "\n".join(lines)


def overlap_closure_report(
    step_model,
    measured_step_s: float | None = None,
    mode: str = "sync",
    nodes: int = 1,
    title: str = "communication-hiding closure (predicted vs measured step time)",
) -> str:
    """Predicted sync vs overlapped step time, joined with a measured run.

    *mode* names the schedule that produced *measured_step_s*
    (``"sync"`` or ``"overlap"``); the measured value is compared against
    the matching prediction of
    :meth:`repro.parallel.comm_model.StepTimeModel.overlap_closure`.
    """
    from ..perfmodel.report import report_header

    lines = report_header(title)
    if step_model is None:
        lines.append("(no step model calibrated; overlap closure unavailable)")
        return "\n".join(lines)
    closure = step_model.overlap_closure(
        nodes=nodes,
        measured_sync_s=measured_step_s if mode == "sync" else None,
        measured_overlap_s=measured_step_s if mode == "overlap" else None,
    )
    lines.append(
        f"   predicted step: sync {closure['predicted_sync_s'] * 1e3:.3f} ms, "
        f"overlapped {closure['predicted_overlap_s'] * 1e3:.3f} ms "
        f"(gain {closure['predicted_gain'] * 100.0:.1f}%)"
    )
    if measured_step_s is not None:
        ratio = closure.get("sync_ratio" if mode == "sync" else "overlap_ratio")
        lines.append(
            f"   measured step ({mode}): {measured_step_s * 1e3:.3f} ms"
            + (f", measured/predicted {ratio:.3f}" if ratio is not None else "")
        )
    else:
        lines.append("   (no measured step time yet)")
    return "\n".join(lines)
