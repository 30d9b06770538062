"""End-to-end observability: tracing, metrics, health, structured logging.

The paper's claim is quantitative — generated kernels run at predicted
MLUP/s — so the reproduction needs more than a final wall-clock table.
This subsystem makes every layer observable:

* :mod:`~repro.observability.tracing` — nested spans over the whole
  pipeline (functional → PDE → discretization → simplification → IR →
  backend → runtime) exported as Chrome-trace JSON,
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
* :mod:`~repro.observability.distributed` — the scaling layer: rank-tagged
  tracers merged into one multi-track Perfetto timeline, the per-(src, dst)
  communication matrix, the λ = max/mean step-time imbalance factor and
  the comm-model closure against
  :class:`repro.parallel.comm_model.StepTimeModel`.

Everything is off by default and zero-cost when disabled; the kernel cache
and the solvers are pre-wired, so ``enable_tracing()`` plus a run is enough
to get a ``trace.json``.
"""

from .distributed import (
    CommMatrix,
    comm_closure_report,
    comm_closure_rows,
    export_merged_trace,
    imbalance_factor,
    merge_rank_traces,
    rank_tracer,
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
    attribute_dispatch,
    attribution_scope,
    counter_provenance_line,
    get_counter_harness,
    make_harness,
    perf_events_available,
    probe_capabilities,
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
    FlightRecorder,
    RecorderEvent,
    get_recorder,
    rank_recorder,
    set_recorder,
    set_thread_recorder,
)
from .report import export_accuracy_metrics, model_accuracy_report, model_accuracy_rows
from .rundir import MANIFEST_SCHEMA, RunDir, get_rundir, load_manifest, set_rundir
from .tracing import (
    PIPELINE_LAYERS,
    Span,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_thread_tracer,
    set_tracer,
)

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
    "Span",
    "Tracer",
    "attribute_dispatch",
    "attribution_scope",
    "block_key",
    "capture_postmortem",
    "combined_digest",
    "comm_closure_report",
    "comm_closure_rows",
    "configure_logging",
    "counter_provenance_line",
    "digest_array",
    "disable_tracing",
    "enable_tracing",
    "export_accuracy_metrics",
    "export_merged_trace",
    "field_stats",
    "find_mismatches",
    "find_sample",
    "fingerprint_record",
    "get_counter_harness",
    "get_logger",
    "get_recorder",
    "get_registry",
    "get_rundir",
    "get_tracer",
    "imbalance_factor",
    "install_excepthook",
    "kv",
    "load_manifest",
    "make_harness",
    "merge_rank_traces",
    "model_accuracy_report",
    "model_accuracy_rows",
    "parse_block_key",
    "parse_prometheus",
    "perf_events_available",
    "probe_capabilities",
    "rank_recorder",
    "rank_tracer",
    "reset_metrics",
    "set_counter_harness",
    "set_recorder",
    "set_registry",
    "set_rundir",
    "set_thread_recorder",
    "set_thread_tracer",
    "set_tracer",
    "tiled_digests",
    "validate_fingerprint_record",
    "write_postmortem",
]
