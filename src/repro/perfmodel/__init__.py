"""Automatic performance modeling: op counts, layer conditions, ECM, roofline."""

from .ecm import ECMModel, ECMPrediction, combine_kernels_mlups
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
    MACHINES,
    SKYLAKE_8174,
    CacheLevel,
    MachineModel,
    detect_host,
    detect_machine,
)
from .benchmark_mode import MeasuredPerformance, generate_benchmark_source, measure_kernel
from .report import performance_report
from .roofline import RooflinePoint, roofline
from .selection import SelectionReport, VariantRating, select_variants

__all__ = [
    "ECMModel",
    "ECMPrediction",
    "combine_kernels_mlups",
    "SKYLAKE_WEIGHTS",
    "OperationCount",
    "count_operations",
    "TrafficAnalysis",
    "analyze_traffic",
    "blocking_factor",
    "HASWELL_2690V3",
    "MACHINES",
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
    "performance_report",
    "RooflinePoint",
    "roofline",
    "MeasuredPerformance",
    "generate_benchmark_source",
    "measure_kernel",
    "SelectionReport",
    "VariantRating",
    "select_variants",
]
