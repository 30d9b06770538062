"""Distributed time stepping: Algorithm 1 over a block forest.

Each rank owns a set of blocks (Morton-distributed); the step is the same
sweep schedule :class:`repro.pfm.solver.SingleBlockSolver` runs, executed
by the shared :class:`repro.timeloop.TimeLoop` with ghost-layer *exchanges*
as the ``sync`` primitive instead of boundary fills:

1. φ-kernel on every owned block (φ_src D3C7, µ_src D3C1)
2. projection, then ghost exchange of φ_dst
3. µ-kernel (µ_src D3C7, φ_src+φ_dst D3C19)
4. ghost exchange of µ_dst, swap

The communication-hiding variant (``overlap=True``) is a second schedule
over the same ops, not a second loop.

Philox counters use *global* cell coordinates (``block.cell_offset``), so a
distributed run with fluctuations is bit-identical to a single-block run —
verified in the test suite.
"""

from __future__ import annotations

import numpy as np

from ..ir.kernel import split_interior_frontier
from ..observability.distributed import CommMatrix
from ..observability.health import HealthMonitor
from ..observability.metrics import get_registry
from ..pfm.model import PhaseFieldKernelSet
from ..profiling import compile_cached
from ..timeloop import TimeLoop
from .blockforest import Block, BlockForest
from .ghostlayer import ExchangePlan, GhostExchange, exchange_field
from .mpi_sim import SimComm

__all__ = ["DistributedSolver"]


class DistributedSolver(TimeLoop):
    """Runs a phase-field model on the blocks owned by one rank.

    Pass a :class:`repro.observability.HealthMonitor` as *health* to check
    every owned block on the monitor's cadence during :meth:`step`.

    ``overlap=True`` selects the communication-hiding schedule (paper
    §4.3): each ghost exchange is split into an asynchronous
    :meth:`~repro.parallel.ghostlayer.GhostExchange.start` /
    :meth:`~repro.parallel.ghostlayer.GhostExchange.finish` pair, and the
    µ sweep is split into an *interior* kernel (cells that read no ghost
    data) run while the φ_dst exchange is in flight, plus per-face
    *frontier* kernels run after it lands.  The schedule is bit-identical
    to ``overlap=False`` and to the single-block solver — the restricted
    kernels iterate the same global cell coordinates, so even the Philox
    fluctuation streams agree.

    ``ghost_layers`` widens the ghost frame beyond what the kernels
    require (e.g. to validate gl=2 wall handling end to end).
    """

    kind = "distributed"

    def __init__(
        self,
        kernel_set: PhaseFieldKernelSet,
        forest: BlockForest,
        comm: SimComm | None = None,
        seed: int = 0,
        health: HealthMonitor | None = None,
        overlap: bool = False,
        ghost_layers: int | None = None,
        backend: str = "numpy",
        rundir=None,
    ):
        self.kernel_set = kernel_set
        self.model = kernel_set.model
        self.params = self.model.params
        self.forest = forest
        self.comm = comm
        self.rank = comm.rank if comm is not None else 0
        self.n_ranks = comm.size if comm is not None else 1
        self.overlap = bool(overlap)

        self.owners = forest.owner_map(self.n_ranks)
        self.blocks: dict[tuple, Block] = {
            coords: forest.make_block(coords)
            for coords, owner in self.owners.items()
            if owner == self.rank
        }
        self.bytes_sent = 0
        self.comm_matrix = CommMatrix(self.n_ranks)
        self._bytes_counter = get_registry().counter(
            "repro_exchange_bytes_total", "ghost-layer bytes sent to remote ranks",
            rank=self.rank,
        )
        self._in_flight: dict[str, GhostExchange] = {}
        self._exchange_plan: ExchangePlan | None = None
        super().__init__(
            kernel_set.all_kernels,
            self.blocks.values(),
            self._overlapped_schedule() if self.overlap else kernel_set.schedule,
            kernel_set.swaps,
            compile_cached,
            block_shape=forest.block_shape,
            dt=self.params.dt,
            seed=seed,
            backend=backend,
            ghost_layers=ghost_layers,
            health=health,
            rundir=rundir,
            tags={"rank": self.rank},
            ranks=self.n_ranks,
            overlap=self.overlap,
            forest=str(forest.global_shape),
        )

    # -- initialization -------------------------------------------------------

    def set_state_from(self, init) -> None:
        """Initialize every owned block.

        ``init(cell_offset, interior_shape) -> (phi_block, mu_block)`` where
        ``phi_block`` has shape ``interior_shape + (N,)`` and ``mu_block``
        broadcasts to ``interior_shape + (K−1,)``.
        """
        self._drain()
        for block in self.blocks.values():
            phi0, mu0 = init(block.cell_offset, block.interior_shape)
            block.arrays["phi"][self._cut] = phi0
            block.arrays["mu"][self._cut] = mu0
        self.sync("phi")
        self.sync("mu")

    # -- schedules ---------------------------------------------------------------

    def _overlapped_schedule(self) -> list[tuple]:
        """Algorithm 1 with both exchanges hidden behind compute (§4.3)."""
        ks = self.kernel_set
        margin = max((max(k.ghost_layers, 1) for k in ks.mu_kernels), default=1)
        if min(self.forest.block_shape) < 2 * margin:
            raise ValueError(
                f"overlap requires blocks of at least {2 * margin} cells per "
                f"axis (interior margin {margin}), got {self.forest.block_shape}"
            )
        # the interior/frontier split runs a kernel's pieces back to back,
        # so no µ kernel may read a field another µ kernel writes
        for ki in ks.mu_kernels:
            for kj in ks.mu_kernels:
                if ki is kj:
                    continue
                clash = {f.name for f in ki.ac.fields_read} & {
                    f.name for f in kj.ac.fields_written
                }
                if clash:
                    raise ValueError(
                        f"overlap schedule needs independent µ kernels, but "
                        f"{ki.name!r} reads {sorted(clash)} written by {kj.name!r}"
                    )
        # lower each µ kernel into one interior variant plus 2·dim frontier
        # slabs; together they tile the block exactly once
        mu_interior, mu_frontier = [], []
        for k in ks.mu_kernels:
            interior, frontiers = split_interior_frontier(k)
            mu_interior.append(interior)
            mu_frontier.extend(frontiers)
        # defer the µ_dst finish into the next step only when the φ sweep
        # reads µ at the centre cell alone — then stale µ ghosts during the
        # φ sweep are never observed, and that sweep hides the exchange too
        phi_like = [*ks.phi_kernels, ks.projection_kernel]
        defer_mu = all(
            acc.max_abs_offset == 0
            for k in phi_like
            for acc in k.ac.field_reads
            if acc.field.name == "mu"
        )
        return [
            ("sweep", phi_like),
            ("start", "phi_dst"),
            ("sweep", mu_interior),
            # the previous step's µ_dst exchange (today's µ_src ghosts) must
            # land before any frontier cell reads them
            ("finish", "mu_dst"),
            ("finish", "phi_dst"),
            ("sweep", mu_frontier),
            ("start", "mu_dst"),
            *([] if defer_mu else [("finish", "mu_dst")]),
        ]

    # -- ghost synchronization ------------------------------------------------------

    def _count_sent(self, nbytes: int) -> None:
        self.bytes_sent += nbytes
        if nbytes:
            self._bytes_counter.inc(nbytes)

    def _exchange(self, primitive, name: str, **extra):
        """``exchange_field`` or ``GhostExchange`` over this rank's blocks."""
        return primitive(
            self.blocks, self.forest, self.owners, self.comm, name, self.ghost_layers,
            profiler=self.profiler, comm_matrix=self.comm_matrix, **extra,
        )

    def sync(self, name: str) -> None:
        """Blocking ghost-layer exchange of field *name* over all blocks."""
        self._count_sent(self._exchange(exchange_field, name))

    def start(self, name: str) -> None:
        """Post the asynchronous exchange of field *name*."""
        if self._exchange_plan is None:  # the neighbour topology is static
            self._exchange_plan = ExchangePlan(
                self.blocks, self.forest, self.owners, self.rank, self.ghost_layers
            )
        self._in_flight[name] = self._exchange(
            GhostExchange, name, plan=self._exchange_plan
        )
        self._in_flight[name].start()

    def finish(self, name: str) -> None:
        """Land the exchange of field *name*, if one is in flight."""
        ex = self._in_flight.pop(name, None)
        if ex is not None:
            ex.finish()
            self._count_sent(ex.bytes_sent)

    def _drain(self) -> None:
        for name in list(self._in_flight):
            self.finish(name)

    def _merged(self, local: dict) -> dict:
        if self.comm is None:
            return local
        merged: dict = {}
        for part in self.comm.allgather(local):
            merged.update(part)
        return merged

    # -- reports -----------------------------------------------------------------

    def default_step_model(self):
        """A :class:`StepTimeModel` calibrated from this run's measurements.

        The compute rate is the rank's aggregate measured kernel MLUP/s; the
        exchanged volume follows from the block shape and the field set
        (φ: N components, µ: K−1).  Returns ``None`` before any kernel has
        been timed.
        """
        from .comm_model import OMNIPATH_FAT_TREE, CommOptions, StepTimeModel

        kernel_recs = [r for r in self.profiler.records.values() if r.cells]
        kernel_secs = sum(r.seconds for r in kernel_recs)
        kernel_cells = sum(r.cells for r in kernel_recs)
        if kernel_secs <= 0.0 or kernel_cells == 0:
            return None
        return StepTimeModel(
            compute_mlups=kernel_cells / kernel_secs / 1e6,
            block_shape=self.forest.block_shape,
            exchanged_doubles_per_cell=float(
                self.params.n_phases + self.params.n_mu
            ),
            network=OMNIPATH_FAT_TREE,
            options=CommOptions(overlap=self.overlap),
            ghost_layers=self.ghost_layers,
        )

    def _gathered_comm(self) -> tuple[CommMatrix, list[float]]:
        """Collective: the comm matrix merged over all ranks, and their step times."""
        self._drain()
        parts = [(self.rank, self.step_seconds, self.comm_matrix)]
        if self.comm is not None:
            # merge each gathered matrix exactly once — under a process- or
            # MPI-backed communicator the allgather returns *copies*, so an
            # identity check against self.comm_matrix would double-count
            # this rank's rows (the thread-backed simulator returns the
            # object itself, where the same single merge is still correct)
            parts = self.comm.allgather(parts[0])
        matrix = CommMatrix(self.n_ranks)
        for _, _, other in parts:
            matrix.merge(other)
        return matrix, [seconds for _, seconds, _ in sorted(parts)]

    def scaling_report(self, step_model=None, nodes: int = 1) -> str:
        """Comm matrix, λ imbalance factor and comm-model closure.

        Under a communicator this is a *collective* call — every rank must
        invoke it (it gathers the per-rank step times and comm matrices);
        all ranks return the same matrix and λ, with the closure table
        built from the calling rank's own exchange timings.  Pass a
        :class:`repro.parallel.comm_model.StepTimeModel` to predict against
        specific hardware; by default one is calibrated from the run itself
        (:meth:`default_step_model`).
        """
        from ..observability.distributed import (
            comm_closure_report,
            imbalance_factor,
            overlap_closure_report,
        )

        matrix, step_times = self._gathered_comm()
        lam = imbalance_factor(step_times)
        model = step_model if step_model is not None else self.default_step_model()
        measured = (
            self.step_seconds / self.time_step if self.time_step else None
        )
        lines = [
            matrix.render(
                f"communication matrix: {self.n_ranks} ranks, "
                f"{self.time_step} steps"
            ),
            f"   load imbalance λ (max/mean per-rank step time): {lam:.3f}",
            "",
            comm_closure_report(
                model,
                self.profiler,
                self.time_step,
                nodes=nodes,
            ),
            "",
            overlap_closure_report(
                model,
                measured_step_s=measured,
                mode="overlap" if self.overlap else "sync",
                nodes=nodes,
            ),
        ]
        return "\n".join(lines)

    def profile_report(self, machine=None, step_model=None, nodes: int = 1) -> str:
        """Per-rank timing table, model closures and the scaling section.

        Includes :meth:`scaling_report`; under a communicator every rank
        must therefore call this together.
        """
        return "\n".join(
            [
                super().profile_report(machine),
                "",
                self.scaling_report(step_model, nodes=nodes),
            ]
        )

    # -- gathering -----------------------------------------------------------------

    def gather(self, name: str) -> np.ndarray | None:
        """Assemble the global interior field on rank 0 (None elsewhere)."""
        self._drain()
        local = {
            coords: block.arrays[name][self._cut].copy()
            for coords, block in self.blocks.items()
        }
        pieces = [local] if self.comm is None else self.comm.gather(local, root=0)
        if self.rank != 0:
            return None
        merged = {coords: data for piece in pieces for coords, data in piece.items()}
        sample = next(iter(merged.values()))
        shape = tuple(self.forest.global_shape) + sample.shape[self.forest.dim:]
        out = np.zeros(shape, dtype=np.float64)
        for coords, data in merged.items():
            offset = tuple(c * b for c, b in zip(coords, self.forest.block_shape))
            # slice with each piece's actual spatial extent: edge blocks that
            # are smaller than block_shape assemble without zero-padding the
            # data or raising a broadcast error
            spatial = data.shape[: self.forest.dim]
            sl2 = tuple(slice(o, o + s) for o, s in zip(offset, spatial))
            out[sl2] = data
        return out
