"""Time-series sink for diagnostics: rows + CSV + gauges + counter events.

A :class:`DiagnosticsSeries` keeps every recorded row in memory (tests and
notebooks), optionally appends to a CSV file
(:class:`~repro.analysis.io.TimeSeriesWriter` schema: ``time_step,time,
<diagnostic...>``), mirrors the latest value of each diagnostic into the
metrics registry as ``repro_diagnostic{name="..."}`` gauges and records
every row as a ``counter`` event of the flight recorder (rendered by
``chrome_trace`` as stacked counter tracks in ``chrome://tracing`` /
Perfetto).
"""

from __future__ import annotations

from ..analysis.io import TimeSeriesWriter
from ..observability.metrics import get_registry
from ..observability.recorder import get_recorder

__all__ = ["DiagnosticsSeries"]


class DiagnosticsSeries:
    """Ordered record of diagnostic values over a run."""

    def __init__(
        self,
        names: list[str],
        csv_path=None,
        metrics: bool = True,
    ):
        self.names = list(names)
        self.columns = ["time_step", "time"] + self.names
        self.rows: list[dict] = []
        self.csv_path = str(csv_path) if csv_path is not None else None
        self._writer = (
            TimeSeriesWriter(csv_path, self.columns) if csv_path is not None else None
        )
        self._metrics = metrics

    def record(self, time_step: int, time: float, values: dict[str, float]) -> dict:
        """Append one row; mirrors into CSV, gauges and the event stream."""
        missing = set(self.names) - set(values)
        if missing:
            raise KeyError(f"missing diagnostics: {sorted(missing)}")
        row = {"time_step": int(time_step), "time": float(time)}
        row.update({n: float(values[n]) for n in self.names})
        self.rows.append(row)
        if self._writer is not None:
            self._writer.append(**row)
        if self._metrics:
            registry = get_registry()
            for n in self.names:
                registry.gauge(
                    "repro_diagnostic", "physics diagnostic value", name=n
                ).set(row[n])
        get_recorder().counter("diagnostics", {n: row[n] for n in self.names})
        return row

    def column(self, name: str) -> list[float]:
        """All recorded values of one column, in record order."""
        if name not in self.columns:
            raise KeyError(f"unknown column {name!r}; have {self.columns}")
        return [row[name] for row in self.rows]

    def last(self) -> dict | None:
        return self.rows[-1] if self.rows else None

    def __len__(self):
        return len(self.rows)
