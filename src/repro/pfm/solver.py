"""Single-block time stepping — Algorithm 1 of the paper.

One time step:

1. ``φ_dst ← φ-kernel(φ_src^{D3C7}, µ_src^{D3C1})``   ("φ-full" or "φ-split")
2. Gibbs-simplex projection of ``φ_dst`` (obstacle potential)
3. boundary handling of ``φ_dst``
4. ``µ_dst ← µ-kernel(µ_src^{D3C7}, φ_src^{D3C19}, φ_dst^{D3C19})``
5. boundary handling of ``µ_dst``
6. swap ``φ_src ↔ φ_dst`` and ``µ_src ↔ µ_dst``

Steps 1–5 are :attr:`PhaseFieldKernelSet.schedule`, executed by the shared
:class:`repro.timeloop.TimeLoop` over one block whose ghost synchronization
is the boundary fill.  The distributed-memory version of the same loop
(ghost-layer exchange instead of boundary fills) lives in
:mod:`repro.parallel.timeloop`.
"""

from __future__ import annotations

import numpy as np

from ..observability.health import HealthMonitor
from ..parallel.blockforest import Block
from ..parallel.boundary import fill_ghosts, fill_modes
from ..profiling import compile_cached
from ..timeloop import TimeLoop
from .model import GrandPotentialModel, PhaseFieldKernelSet

__all__ = ["SingleBlockSolver"]


class SingleBlockSolver(TimeLoop):
    """Runs a phase-field model on one rectangular block (NumPy or C kernels).

    Pass a :class:`repro.observability.HealthMonitor` as *health* to run
    NaN/phase-sum/bounds checks on the monitor's cadence during
    :meth:`step`; failures follow the monitor's warn/record/raise policy.
    """

    kind = "single"
    checkpoint_per_block = False
    fills_ghosts = True

    def __init__(
        self,
        kernel_set: PhaseFieldKernelSet,
        interior_shape: tuple[int, ...],
        boundary: str | tuple = "periodic",
        seed: int = 0,
        backend: str = "numpy",
        health: HealthMonitor | None = None,
        ghost_layers: int | None = None,
        rundir=None,
    ):
        self.kernel_set = kernel_set
        self.model: GrandPotentialModel = kernel_set.model
        self.params = self.model.params
        dim = self.params.dim
        if len(interior_shape) != dim:
            raise ValueError(
                f"interior_shape must have {dim} entries, got {interior_shape}"
            )
        self.shape = tuple(int(s) for s in interior_shape)
        self.boundary = boundary
        origin = (0,) * dim
        super().__init__(
            kernel_set.all_kernels,
            [Block(origin, self.shape, origin)],
            kernel_set.schedule,
            kernel_set.swaps,
            compile_cached,
            block_shape=self.shape,
            dt=self.params.dt,
            seed=seed,
            backend=backend,
            ghost_layers=ghost_layers,
            health=health,
            rundir=rundir,
            shape=list(self.shape),
        )
        #: the block's ghost-layered arrays by field name
        self.arrays: dict[str, np.ndarray] = self._owned[0].arrays

    # -- state access ---------------------------------------------------------

    def _interior(self, name: str) -> np.ndarray:
        return self.arrays[name][self._cut]

    @property
    def phi(self) -> np.ndarray:
        """Interior view of the phase fields, shape (*spatial, N)."""
        return self._interior("phi")

    @property
    def mu(self) -> np.ndarray:
        """Interior view of the chemical potential, shape (*spatial, K−1)."""
        return self._interior("mu")

    def set_state(self, phi: np.ndarray, mu: np.ndarray | float = 0.0) -> None:
        """Initialize interior φ and µ (µ may be a constant)."""
        if phi.shape != self.shape + (self.params.n_phases,):
            raise ValueError(
                f"phi must have shape {self.shape + (self.params.n_phases,)}"
            )
        self._interior("phi")[...] = phi
        self._interior("mu")[...] = mu
        self.sync("phi")
        self.sync("mu")

    def sync(self, name: str) -> None:
        """Boundary handling: fill the ghost layers of field *name*."""
        with self._fills[name]:
            fill_ghosts(
                self.arrays[name], self.ghost_layers, self.dim, self.boundary,
                native=self._native_fill,
            )

    def _native_sync(self, arrays: dict, name: str) -> tuple | None:
        return self._native_fill.prepare(
            arrays[name], self.ghost_layers, self.dim, fill_modes(self.boundary, self.dim)
        )

    def phase_fractions(self) -> np.ndarray:
        """Volume fraction of every phase."""
        return self.phi.reshape(-1, self.params.n_phases).mean(axis=0)

    def check_invariants(self, atol: float = 1e-9) -> None:
        """Assert Σφ = 1 and φ ∈ [0, 1] (post-projection invariants)."""
        phi = self.phi
        if not np.all((phi >= -atol) & (phi <= 1 + atol)):
            raise AssertionError("phase fields left [0, 1]")
        if not np.allclose(phi.sum(axis=-1), 1.0, atol=1e-7):
            raise AssertionError("phase fields do not sum to one")
