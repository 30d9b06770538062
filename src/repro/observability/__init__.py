"""End-to-end observability: one event stream, metrics, health, logging.

The paper's claim is quantitative — generated kernels run at predicted
MLUP/s — so the reproduction needs more than a final wall-clock table.
This subsystem makes every layer observable:

* :mod:`~repro.observability.recorder` — the one event collector: spans
  over the whole pipeline (functional → PDE → discretization →
  simplification → IR → backend → runtime), steps, kernel dispatches,
  profiled operations, diagnostics counters, fingerprints and health
  events are ``(seq, ts, kind, name, data)`` events of a
  :class:`FlightRecorder`; :func:`chrome_trace` renders one or several
  recorders (or their journals) as a Chrome-trace/Perfetto timeline,
* :mod:`~repro.observability.metrics` — counters/gauges/histograms with
  JSON and Prometheus text-format export (kernel-cache stats, exchanged
  bytes, per-kernel MLUP/s, step-latency histograms, health events),
* :mod:`~repro.observability.health` — NaN/Inf watchdog, phase-sum drift
  and field-bound alarms with a warn/record/raise policy,
* :mod:`~repro.observability.log` — structured ``key=value`` logging for
  the whole ``repro`` namespace,
* :mod:`~repro.observability.report` — the predicted-vs-measured model
  accuracy table joining :class:`repro.perfmodel.ecm.ECMModel` predictions
  with :class:`repro.profiling.SolverProfiler` measurements,
* :mod:`~repro.observability.distributed` — the scaling layer: the
  per-(src, dst) communication matrix, the λ = max/mean step-time
  imbalance factor and the comm-model closure against
  :class:`repro.parallel.comm_model.StepTimeModel`.

The recorder and the profiler are always on: an event costs 1.2–2.2 µs
into the bounded ring (7.5 µs with a journal open), a profiled operation
one ``perf_counter`` pair plus one such event.  The ring keeps the newest
1024 events; a run that wants its whole timeline either journals into a
:class:`RunDir` (``chrome_trace(rundir.journals())``) or installs
``set_recorder(FlightRecorder(capacity=None))`` before it starts.
Logging, health checks, diagnostics and fingerprints are opt-in.
"""

from .distributed import (
    CommMatrix,
    comm_closure_report,
    comm_closure_rows,
    imbalance_factor,
)
from .fingerprint import (
    FINGERPRINT_SCHEMA,
    FingerprintLedger,
    FingerprintSchemaError,
    FingerprintStream,
    block_key,
    combined_digest,
    digest_array,
    find_mismatches,
    fingerprint_record,
    parse_block_key,
    tiled_digests,
    validate_fingerprint_record,
)
from .health import HealthError, HealthEvent, HealthMonitor
from .hwcounters import (
    CounterHarness,
    CounterSample,
    counter_provenance_line,
    get_counter_harness,
    perf_events_available,
    set_counter_harness,
)
from .jsonl import JsonlLedger
from .log import configure_logging, get_logger, kv
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    find_sample,
    get_registry,
    parse_prometheus,
    reset_metrics,
    set_registry,
)
from .postmortem import (
    POSTMORTEM_SCHEMA,
    capture_postmortem,
    field_stats,
    install_excepthook,
    write_postmortem,
)
from .recorder import (
    PIPELINE_LAYERS,
    FlightRecorder,
    RecorderEvent,
    chrome_trace,
    get_recorder,
    load_journal,
    rank_recorder,
    set_recorder,
    set_thread_recorder,
)
from .report import export_accuracy_metrics, model_accuracy_report, model_accuracy_rows
from .rundir import MANIFEST_SCHEMA, RunDir, get_rundir, load_manifest, set_rundir

__all__ = [
    "CommMatrix",
    "Counter",
    "CounterHarness",
    "CounterSample",
    "DEFAULT_BUCKETS",
    "FINGERPRINT_SCHEMA",
    "FingerprintLedger",
    "FingerprintSchemaError",
    "FingerprintStream",
    "FlightRecorder",
    "Gauge",
    "HealthError",
    "HealthEvent",
    "HealthMonitor",
    "Histogram",
    "JsonlLedger",
    "MANIFEST_SCHEMA",
    "MetricsRegistry",
    "PIPELINE_LAYERS",
    "POSTMORTEM_SCHEMA",
    "RecorderEvent",
    "RunDir",
    "block_key",
    "capture_postmortem",
    "chrome_trace",
    "combined_digest",
    "comm_closure_report",
    "comm_closure_rows",
    "configure_logging",
    "counter_provenance_line",
    "digest_array",
    "export_accuracy_metrics",
    "field_stats",
    "find_mismatches",
    "find_sample",
    "fingerprint_record",
    "get_counter_harness",
    "get_logger",
    "get_recorder",
    "get_registry",
    "get_rundir",
    "imbalance_factor",
    "install_excepthook",
    "kv",
    "load_journal",
    "load_manifest",
    "model_accuracy_report",
    "model_accuracy_rows",
    "parse_block_key",
    "parse_prometheus",
    "perf_events_available",
    "rank_recorder",
    "reset_metrics",
    "set_counter_harness",
    "set_recorder",
    "set_registry",
    "set_rundir",
    "set_thread_recorder",
    "tiled_digests",
    "validate_fingerprint_record",
    "write_postmortem",
]
