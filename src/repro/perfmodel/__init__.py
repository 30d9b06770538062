"""Automatic performance modeling: op counts, layer conditions, ECM.

The ECM model predicts each kernel's rate; :func:`records_from_profiler`
joins it with a run's measured rates (the ``repro-perf/1`` records) and
:func:`model_accuracy_report` renders that join.
"""

from .ecm import ECMModel, ECMPrediction
from .flops import SKYLAKE_WEIGHTS, OperationCount, count_operations
from .layer_condition import TrafficAnalysis, analyze_traffic, blocking_factor
from .ledger import (
    PERF_SCHEMA,
    PerfLedger,
    PerfSchemaError,
    host_stanza,
    perf_record,
    records_from_profiler,
    validate_perf_record,
)
from .machine import (
    HASWELL_2690V3,
    SKYLAKE_8174,
    CacheLevel,
    MachineModel,
    detect_host,
    detect_machine,
)
from .benchmark_mode import MeasuredPerformance, measure_kernel
from .report import model_accuracy_report, performance_report

__all__ = [
    "ECMModel",
    "ECMPrediction",
    "SKYLAKE_WEIGHTS",
    "OperationCount",
    "count_operations",
    "TrafficAnalysis",
    "analyze_traffic",
    "blocking_factor",
    "HASWELL_2690V3",
    "SKYLAKE_8174",
    "CacheLevel",
    "MachineModel",
    "detect_host",
    "detect_machine",
    "PERF_SCHEMA",
    "PerfLedger",
    "PerfSchemaError",
    "host_stanza",
    "perf_record",
    "records_from_profiler",
    "validate_perf_record",
    "model_accuracy_report",
    "performance_report",
    "MeasuredPerformance",
    "measure_kernel",
]
