"""Execution-Cache-Memory (ECM) performance model (paper §3.6, Fig. 2).

The model predicts, per cache line of results (8 lattice-site updates):

* ``T_comp`` — in-core cycles, from the normalized FLOP count and the
  machine's SIMD/FMA throughput,
* ``T_L1L2, T_L2L3, T_L3Mem`` — data-transfer cycles, from the layer
  condition traffic analysis and per-level bandwidths.

Single-core runtime ≈ ``max(T_comp, ΣT_data)``; multi-core performance
scales linearly until the shared memory bandwidth saturates.  A mild
utilization-dependent latency penalty (Hofmann-style refinement) reproduces
the gradual per-core decline of memory-bound kernels seen in Fig. 2 before
the hard roof is reached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ir.kernel import Kernel
from .layer_condition import TrafficAnalysis, analyze_traffic
from .machine import MachineModel

__all__ = ["ECMPrediction", "ECMModel"]

_LUPS_PER_UNIT = 8  # one cache line of double results


@dataclass
class ECMPrediction:
    """ECM decomposition for one kernel on one machine."""

    kernel_name: str
    t_comp: float          # cycles per 8 LUPs
    t_cache: float         # aggregated inter-cache transfer cycles
    t_mem: float           # memory transfer cycles (per core, unloaded)
    machine: MachineModel

    @property
    def t_single(self) -> float:
        return max(self.t_comp, self.t_cache + self.t_mem)

    @property
    def is_compute_bound(self) -> bool:
        return self.t_comp >= self.t_cache + self.t_mem

    @property
    def saturation_cores(self) -> int:
        """Cores needed to saturate the memory interface (paper: 32 / 83)."""
        if self.t_mem <= 0:
            return 10**6
        return max(1, int(np.ceil(self.t_single / self.t_mem)))

    def mlups_single_core(self) -> float:
        cycles_per_lup = self.t_single / _LUPS_PER_UNIT
        return self.machine.clock_ghz * 1e3 / cycles_per_lup  # MLUP/s

    def mlups(self, cores: int, penalty: float | None = None) -> float:
        """Aggregate MLUP/s on *cores* cores of one socket.

        Uses the utilization-penalty refinement: the effective memory time
        inflates as the bus utilization grows, then the hard bandwidth roof
        caps the total.
        """
        cores = int(cores)
        if cores < 1:
            raise ValueError("cores must be >= 1")
        penalty = self.machine.mem_latency_penalty if penalty is None else penalty
        n_sat = self.saturation_cores
        u = min(1.0, cores / n_sat)
        t_mem_eff = self.t_mem * (1.0 + penalty * u * (cores > 1))
        t = max(self.t_comp, self.t_cache + t_mem_eff)
        linear = cores * self.machine.clock_ghz * 1e3 * _LUPS_PER_UNIT / t
        if self.t_mem > 0:
            roof = n_sat * self.machine.clock_ghz * 1e3 * _LUPS_PER_UNIT / self.t_single
            return min(linear, roof)
        return linear

    def mlups_per_core(self, cores: int, **kw) -> float:
        return self.mlups(cores, **kw) / cores

    def __str__(self):
        kind = "compute" if self.is_compute_bound else "memory"
        return (
            f"ECM[{self.kernel_name}@{self.machine.name.split()[2]}]: "
            f"{{{self.t_comp:.1f} ‖ {self.t_cache:.1f} + {self.t_mem:.1f}}} cy/CL "
            f"({kind}-bound, saturates at {self.saturation_cores} cores, "
            f"{self.mlups_single_core():.1f} MLUP/s/core)"
        )


class ECMModel:
    """Builds ECM predictions for kernels from the IR (à la Kerncraft)."""

    def __init__(self, machine: MachineModel):
        self.machine = machine

    def predict(
        self,
        kernel: Kernel,
        block_shape: tuple[int, ...],
        traffic: TrafficAnalysis | None = None,
    ) -> ECMPrediction:
        m = self.machine
        oc = kernel.operation_count()
        t_comp = (
            oc.normalized_flops() * _LUPS_PER_UNIT / m.flop_throughput_per_cycle
        )

        traffic = traffic or analyze_traffic(kernel, block_shape)

        t_cache = 0.0
        levels = m.cache_levels
        for i, lv in enumerate(levels):
            if i + 1 < len(levels):
                # traffic between lv and the next level: what misses lv
                bytes_per_lup = traffic.total_bytes(lv.size_bytes)
                t_cache += bytes_per_lup * _LUPS_PER_UNIT / lv.bandwidth_bytes_per_cycle
        # memory traffic: what misses the last-level cache
        llc = levels[-1]
        mem_bytes = traffic.total_bytes(llc.size_bytes)
        t_mem = (
            mem_bytes
            * _LUPS_PER_UNIT
            / (m.mem_bandwidth_bytes_per_cycle() / 1.0)
        )
        return ECMPrediction(
            kernel_name=kernel.name,
            t_comp=t_comp,
            t_cache=t_cache,
            t_mem=t_mem,
            machine=m,
        )
