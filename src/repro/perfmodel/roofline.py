"""Classic roofline model — a coarser companion to the ECM model.

Used for sanity checks and for the GPU utilization discussion (§6.2): a
kernel's attainable performance is bounded by compute peak and by memory
bandwidth × arithmetic intensity.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.kernel import Kernel
from .layer_condition import analyze_traffic
from .machine import MachineModel

__all__ = ["RooflinePoint", "roofline"]


@dataclass
class RooflinePoint:
    """Roofline placement of one kernel."""

    kernel_name: str
    intensity_flop_per_byte: float
    peak_mflops: float          # socket compute peak (normalized units)
    bandwidth_gbs: float
    attainable_mflops: float
    bound: str                  # "compute" | "memory"


def roofline(
    kernel: Kernel,
    machine: MachineModel,
    block_shape: tuple[int, ...],
    cores: int | None = None,
) -> RooflinePoint:
    """Place *kernel* on the socket-level roofline of *machine*."""
    cores = cores or machine.cores_per_socket
    oc = kernel.operation_count()
    flops = oc.normalized_flops()
    traffic = analyze_traffic(kernel, block_shape)
    llc = machine.cache_levels[-1]
    bytes_per_lup = traffic.total_bytes(llc.size_bytes)
    intensity = flops / bytes_per_lup if bytes_per_lup else float("inf")

    peak = (
        machine.flop_throughput_per_cycle * machine.clock_ghz * 1e3 * cores
    )  # MFLOP (normalized)/s
    bw = machine.mem_bandwidth_gbs
    mem_bound = bw * 1e3 * intensity  # MFLOP/s equivalent
    attainable = min(peak, mem_bound)
    return RooflinePoint(
        kernel_name=kernel.name,
        intensity_flop_per_byte=intensity,
        peak_mflops=peak,
        bandwidth_gbs=bw,
        attainable_mflops=attainable,
        bound="compute" if peak <= mem_bound else "memory",
    )
