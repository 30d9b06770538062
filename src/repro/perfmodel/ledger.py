"""Per-run perf ledger: ``repro-perf/1`` records, measured next to ECM.

``TimeLoop.export_perf`` appends one JSONL record per measured kernel to
``<rundir>/perf/perf.jsonl``: the measured side (MLUP/s, seconds, calls and
— when hardware counters ran — cycles/LUP, IPC, bytes/LUP) joined with the
ECM prediction for the same kernel.  :func:`records_from_profiler` is the
only such join; ``solver.profile_report()`` renders its records through
:func:`repro.perfmodel.report.model_accuracy_report`,
``tools/run_report.py`` renders the ledger and
``tools/check_observability.py RUNDIR --require perf`` schema-checks it.
It is the closure of *one* run, not a trajectory; numbers are compared
across commits by ``benchmarks/perf/run.py``.

Record shape (one JSON object per line)::

    {
      "schema": "repro-perf/1",
      "timestamp": "2026-08-08T12:00:00+00:00",
      "git_sha": "abc123..." | null,
      "bench": "quickstart",               # producing run
      "name": "kernels/phi_update",        # record name within the run
      "kernel": {"name": ..., "fingerprint": ...} | null,
      "options": {...},                    # codegen options of the variant
      "host": {... detect_host() stanza ..., "key": "hex16"},
      "measured": {
        "mlups": ..., "mean_seconds": ..., "calls": ...,
        "cycles_per_lup": null, "ipc": null, "bytes_per_lup": null,
        "counter_source": "unavailable"       # or "perf"
      },
      "predicted": {                          # ECM, one core
        "mlups": ..., "cycles_per_lup": ..., "bytes_per_lup": ...,
        "bound": "compute"                    # or "memory"
      } | null
    }

Counter-derived fields are ``null`` (not 0) on hosts without perf_event
access, where ``counter_source`` is ``"unavailable"``; the *time-derived*
fields are always populated, so the record stays useful on the 1-core CI
container.  The host ``key`` hashes hardware identity only — never the
hostname, which CI containers refresh every run; see
:func:`repro.perfmodel.machine.detect_host`.
"""

from __future__ import annotations

import math
from datetime import datetime, timezone

from ..observability.jsonl import JsonlLedger
from ..observability.rundir import git_sha
from .ecm import _LUPS_PER_UNIT, ECMModel
from .layer_condition import analyze_traffic
from .machine import SKYLAKE_8174, detect_host

__all__ = [
    "PERF_SCHEMA",
    "PerfSchemaError",
    "PerfLedger",
    "host_stanza",
    "perf_record",
    "records_from_profiler",
    "validate_perf_record",
]

PERF_SCHEMA = "repro-perf/1"


class PerfSchemaError(ValueError):
    """A ledger record does not conform to the ``repro-perf/1`` schema."""


def host_stanza() -> dict:
    """The host identity stanza (cached: hardware does not change mid-run)."""
    global _HOST_STANZA
    if _HOST_STANZA is None:
        _HOST_STANZA = detect_host()
    return dict(_HOST_STANZA)


_HOST_STANZA: dict | None = None


def _clean_metrics(metrics: dict, context: str) -> dict:
    """Validate a measured/predicted stanza: numbers or None, finite.

    A count stays an ``int`` (``"calls": 5`` in the JSON); any other number
    becomes a ``float``.
    """
    clean = {}
    for key, value in metrics.items():
        if value is None or isinstance(value, str):
            clean[key] = value
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise PerfSchemaError(f"{context}.{key}={value!r} is not a number")
        if not math.isfinite(value):
            raise PerfSchemaError(f"{context}.{key}={value!r} is not finite")
        clean[key] = value if isinstance(value, int) else float(value)
    return clean


def perf_record(
    bench: str,
    name: str,
    measured: dict,
    predicted: dict | None = None,
    kernel: dict | None = None,
    options: dict | None = None,
    timestamp: str | None = None,
) -> dict:
    """Build one validated ``repro-perf/1`` record."""
    record = {
        "schema": PERF_SCHEMA,
        "timestamp": timestamp
        or datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": git_sha(),
        "bench": bench,
        "name": name,
        "kernel": dict(kernel) if kernel else None,
        "options": dict(options or {}),
        "host": host_stanza(),
        "measured": _clean_metrics(measured, "measured"),
        "predicted": _clean_metrics(predicted, "predicted") if predicted else None,
    }
    return validate_perf_record(record)


def validate_perf_record(record) -> dict:
    """Raise :class:`PerfSchemaError` unless *record* is valid."""
    if not isinstance(record, dict):
        raise PerfSchemaError(f"record is {type(record).__name__}, expected object")
    if record.get("schema") != PERF_SCHEMA:
        raise PerfSchemaError(
            f"schema is {record.get('schema')!r}, expected {PERF_SCHEMA!r}"
        )
    for field in ("bench", "name", "timestamp"):
        if not isinstance(record.get(field), str) or not record[field]:
            raise PerfSchemaError(f"{field} missing or not a string")
    host = record.get("host")
    if not isinstance(host, dict) or not host.get("key"):
        raise PerfSchemaError("host stanza missing or without a key")
    measured = record.get("measured")
    if not isinstance(measured, dict) or not measured:
        raise PerfSchemaError("measured stanza missing or empty")
    kernel = record.get("kernel")
    if kernel is not None:
        if not isinstance(kernel, dict) or not kernel.get("fingerprint"):
            raise PerfSchemaError("kernel stanza must carry a fingerprint")
    _clean_metrics(measured, "measured")
    if record.get("predicted"):
        _clean_metrics(record["predicted"], "predicted")
    return record


class PerfLedger(JsonlLedger):
    """A :class:`~repro.observability.jsonl.JsonlLedger` of ``repro-perf/1`` records."""

    SchemaError = PerfSchemaError

    def validate(self, record) -> dict:
        return validate_perf_record(record)


def records_from_profiler(
    bench: str,
    kernels,
    profiler,
    machine=None,
    block_shape: tuple[int, ...] | None = None,
    options: dict | None = None,
) -> list[dict]:
    """One ledger record per cell-counted kernel the profiler timed.

    The one place where measured timings meet the ECM model: the measured
    side (MLUP/s, mean seconds, calls, and — when hardware counters ran —
    cycles/LUP, IPC, bytes/LUP) is joined with the single-core ECM
    prediction on *machine* (default Skylake 8174) for a block of
    *block_shape* (default 60 per axis).  Counter-less hosts get ``null``
    counter fields, never 0.  Kernels without a cell-counted timing are
    skipped: fills and exchanges have no LUP rate.
    """
    from ..observability.hwcounters import get_counter_harness
    from ..profiling.cache import kernel_fingerprint

    machine = machine or SKYLAKE_8174
    model = ECMModel(machine)
    llc = machine.cache_levels[-1]
    source = "unavailable" if get_counter_harness() is None else "perf"
    records = []
    for kernel in kernels:
        rec = profiler.records.get(kernel.name)
        if rec is None or rec.cells == 0 or rec.seconds == 0.0:
            continue
        shape = block_shape or (60,) * kernel.dim
        traffic = analyze_traffic(kernel, shape)
        prediction = model.predict(kernel, shape, traffic=traffic)
        measured = {
            "mlups": rec.mlups,
            "mean_seconds": rec.mean_seconds,
            "calls": rec.calls,
            "cycles_per_lup": rec.cycles_per_lup,
            "ipc": rec.ipc,
            "bytes_per_lup": rec.measured_bytes_per_lup(machine.cache_line_bytes),
            "counter_source": source,
        }
        predicted = {
            "mlups": prediction.mlups(1),
            "cycles_per_lup": prediction.t_single / _LUPS_PER_UNIT,
            "bytes_per_lup": traffic.total_bytes(llc.size_bytes),
            "bound": "compute" if prediction.is_compute_bound else "memory",
        }
        records.append(
            perf_record(
                bench,
                f"kernels/{kernel.name}",
                measured,
                predicted=predicted,
                kernel={
                    "name": kernel.name,
                    "fingerprint": kernel_fingerprint(kernel),
                },
                options=options,
            )
        )
    return records
