"""Cluster-scale scaling simulator (paper Fig. 3).

Combines the node-level performance models (ECM for CPU sockets, the
occupancy model for GPUs) with the communication model into weak- and
strong-scaling predictions for SuperMUC-NG-like and Piz-Daint-like systems.

The *shape* of the published curves — flat MLUP/s per core/GPU under weak
scaling, and the latency-dominated efficiency loss of strong scaling at
extreme core counts — emerges from the compute/communication ratio; the
absolute node rate is supplied by the caller (model prediction or a real
single-core measurement re-scaled, mirroring the paper's methodology).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .comm_model import CommOptions, NetworkModel, StepTimeModel

__all__ = ["ClusterModel", "WeakScalingPoint", "StrongScalingPoint"]


@dataclass
class WeakScalingPoint:
    ranks: int
    mlups_per_rank: float
    efficiency: float


@dataclass
class StrongScalingPoint:
    ranks: int
    steps_per_second: float
    mlups_per_rank: float
    efficiency: float


@dataclass
class ClusterModel:
    """A homogeneous cluster of compute ranks (cores or GPUs)."""

    name: str
    network: NetworkModel
    ranks_per_node: int
    rank_compute_mlups: float           # compute-only rate of one rank
    exchanged_doubles_per_cell: float
    options: CommOptions = CommOptions()
    ghost_layers: int = 1

    def _inter_node_fraction(self) -> float:
        """Fraction of ghost faces crossing the node boundary.

        With Morton-ordered placement a node's R blocks form a compact
        cluster whose surface scales like R^(2/3).
        """
        if self.ranks_per_node <= 1:
            return 1.0
        return min(1.0, self.ranks_per_node ** (-1.0 / 3.0) * 1.5)

    def _step_model(self, block_shape: tuple[int, ...], mlups: float | None = None) -> StepTimeModel:
        return StepTimeModel(
            compute_mlups=mlups if mlups is not None else self.rank_compute_mlups,
            block_shape=block_shape,
            exchanged_doubles_per_cell=self.exchanged_doubles_per_cell,
            network=self.network,
            options=self.options,
            ghost_layers=self.ghost_layers,
            inter_node_fraction=self._inter_node_fraction(),
        )

    # -- weak scaling ------------------------------------------------------------

    def weak_scaling(
        self, block_shape: tuple[int, ...], rank_counts: list[int]
    ) -> list[WeakScalingPoint]:
        """Constant per-rank workload, growing rank count (Fig. 3 left/middle)."""
        points = []
        for ranks in rank_counts:
            nodes = max(1, ranks // self.ranks_per_node)
            model = self._step_model(block_shape)
            rate = model.mlups(nodes)
            points.append(
                WeakScalingPoint(
                    ranks=ranks,
                    mlups_per_rank=rate,
                    efficiency=model.parallel_efficiency(nodes),
                )
            )
        return points

    # -- strong scaling -----------------------------------------------------------

    def strong_scaling(
        self,
        global_shape: tuple[int, ...],
        rank_counts: list[int],
    ) -> list[StrongScalingPoint]:
        """Fixed total domain split over growing rank counts (Fig. 3 right).

        Small blocks lose some node-level efficiency (SIMD remainder loops,
        less favourable surface-to-volume in the caches) — "slightly better
        performance is obtained where the fastest dimension is a multiple of
        the SIMD width, or when cubic blocks can be chosen".
        """
        total_cells = int(np.prod(global_shape))
        points = []
        for ranks in rank_counts:
            cells_per_rank = total_cells / ranks
            edge = max(2.0, cells_per_rank ** (1.0 / len(global_shape)))
            block_shape = (int(round(edge)),) * len(global_shape)
            # SIMD remainder of the contiguous dimension (8 lanes)
            inner = block_shape[-1]
            simd_eff = inner / (8 * np.ceil(inner / 8))
            # cubic-block bonus is implicit; penalize tiny blocks' ghost share
            mlups = self.rank_compute_mlups * (0.6 + 0.4 * simd_eff)
            nodes = max(1, ranks // self.ranks_per_node)
            model = self._step_model(block_shape, mlups=mlups)
            t_step = model.step_time_s(nodes)
            points.append(
                StrongScalingPoint(
                    ranks=ranks,
                    steps_per_second=1.0 / t_step,
                    mlups_per_rank=cells_per_rank / t_step / 1e6,
                    efficiency=model.parallel_efficiency(nodes),
                )
            )
        return points

    def with_options(self, **kwargs) -> "ClusterModel":
        """A copy with modified communication options (for Table 2)."""
        return replace(self, options=replace(self.options, **kwargs))
