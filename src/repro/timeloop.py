"""The one time loop: a sweep schedule executed over the blocks a process owns.

Algorithm 1 of the paper and its distributed form (§4.3) are the same loop;
they differ in what "synchronize the ghost layers" means and in when that
is started and finished.  :class:`TimeLoop` therefore executes a *schedule*
— the composition of sweeps and communication steps the waLBerla Python
interface builds its time loops from — that the solver classes write down
once, in their constructors, as a list of ``(op, argument)`` pairs:

``("sweep", kernels)``
    run every kernel over every owned block (block by block),
``("sync", field)``
    make the ghost layers of *field* consistent — a boundary fill on a
    single block, a ghost exchange over a block forest,
``("start", field)`` / ``("finish", field)``
    the two halves of an asynchronous ``sync`` (communication hiding),

followed by the field pairs to swap.  The solvers hold what genuinely
differs (how blocks are made, the ``sync`` primitive, state access); time
state, kernel dispatch, flight-recorder / RunDir wiring, callbacks,
checkpoints, diagnostics, fingerprints, health checks and the reports are
defined here, once, for all of them.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from math import prod
from time import perf_counter

from .backends.numpy_backend import create_arrays
from .observability.log import get_logger, kv
from .observability.recorder import get_recorder, set_thread_recorder
from .profiling import SolverProfiler

__all__ = ["TimeLoop"]

_log = get_logger("timeloop")

# post-step stages, in execution order.  Invariants run BEFORE the field
# watchdogs: a too-large dt trips the named energy_decay check while values
# are still finite, not the NaN alarm steps later.  Fingerprints run LAST:
# they must digest the state the next step will consume, after any steering
# callback has written to it.
_DIAGNOSTICS, _HEALTH, _CALLBACK, _FINGERPRINTS = range(4)


def _positive(every: int) -> int:
    if every < 1:
        raise ValueError("every must be >= 1")
    return int(every)


def _compile_all(kernels: list, compile, backend: str) -> list:
    """``[compile(k, backend) for k in kernels]``, the compilations side by side.

    One worker thread per usable CPU (at most one per kernel): a C build is
    a compiler process, which releases the GIL, so two kernels' gcc runs
    overlap each other and the next kernel's source emission.  The disk
    tier's per-entry lock makes concurrent builders safe.  Every worker
    records into the caller's recorder (a simulated rank's own journal),
    and no worker outlives the call — a later fork sees a single-threaded
    process.  The first failing kernel, in *kernels* order, raises.
    """
    # sched_getaffinity (the CPUs this process may run on) is Linux-only
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    recorder = get_recorder()

    def one(kernel):
        set_thread_recorder(recorder)
        return compile(kernel, backend)

    with ThreadPoolExecutor(max(min(len(kernels), cpus), 1)) as pool:
        futures = [pool.submit(one, k) for k in kernels]
        try:
            return [f.result() for f in futures]
        finally:
            for f in futures:
                f.cancel()


class TimeLoop:
    """Executes a sweep schedule; base of every solver in the package.

    *kernels* are the model's IR kernels (field set, ghost-layer
    requirement, performance reports), *blocks* the geometry of the blocks
    this process owns (their arrays are allocated here), *compile* the
    ``compile_cached``-style callable every scheduled kernel goes through.
    *tags* identify this loop among its peers (``rank=…``) on recorder
    events and log lines; *note* describes the run in the RunDir
    manifest and the perf ledger.

    Checkpoints, the default diagnostics suite and the phase-sum health
    check address the phase-field state ``phi`` / ``mu``; everything else
    works on *state_fields*.
    """

    kind = "loop"
    #: a solver under a communicator sets these before calling ``__init__``
    rank = 0
    n_ranks = 1
    #: one ``.npz`` per owned block, named after its coordinates; a solver
    #: whose one block *is* the domain writes the given path itself
    checkpoint_per_block = True

    def __init__(
        self,
        kernels,
        blocks,
        schedule,
        swaps,
        compile,
        *,
        block_shape: tuple[int, ...],
        dt: float,
        seed: int = 0,
        backend: str = "numpy",
        ghost_layers: int | None = None,
        health=None,
        rundir=None,
        state_fields: tuple[str, ...] = ("phi", "mu"),
        tags: dict | None = None,
        **note,
    ):
        self.kernels = list(kernels)
        self.dim = self.kernels[0].dim
        required_gl = max(max(k.ghost_layers for k in self.kernels), 1)
        self.ghost_layers = required_gl if ghost_layers is None else int(ghost_layers)
        if self.ghost_layers < required_gl:
            raise ValueError(
                f"ghost_layers={ghost_layers} below the kernel set's "
                f"requirement of {required_gl}"
            )
        self._cut = (slice(self.ghost_layers, -self.ghost_layers),) * self.dim
        self.block_shape = tuple(block_shape)
        self.dt = dt
        self.seed = seed
        self.backend = backend
        self.state_fields = tuple(state_fields)
        self._tags = dict(tags or {})
        self._note = {"backend": backend, **note}

        fields = {f.name: f for k in self.kernels for f in k.fields}
        fields = [fields[name] for name in sorted(fields)]
        self._owned = tuple(blocks)
        for block in self._owned:
            block.arrays = create_arrays(fields, block.interior_shape, self.ghost_layers)
        # a loop that owns the whole domain as one block needs no rank or
        # block labels, and is the only kind a tile_shape can be replayed on
        self._whole_domain = self.n_ranks == 1 and len(self._owned) == 1

        # flight-recorder integration: field stats at crash time come from
        # the live arrays; with a RunDir the event journal (rank-suffixed
        # under several ranks, so a dead rank leaves its last events on
        # disk even if the pipe hop fails too) lands in the bundle alongside
        # checkpoints and diagnostics — health events are journal lines.
        # Opened before the schedule is lowered: the compile spans of this
        # solver's kernels belong in its journal
        self.rundir = rundir
        recorder = get_recorder()
        recorder.set_state_provider(self._recorder_state)
        if rundir is not None:
            if self.rank == 0:
                rundir.note(solver=self.kind, **self._note)
            journal_rank = self.rank if self.n_ranks > 1 else recorder.rank
            recorder.open_journal(rundir.journal_path(journal_rank))

        # lower the schedule once: kernels are compiled through the shared
        # cache (a second solver built from an equal kernel set reuses every
        # binary) and bound to the owned blocks with their measurements, so
        # the per-step path does no lookups and builds no instrument
        self.profiler = SolverProfiler()
        self.schedule = list(schedule)
        self.swaps = tuple(swaps)
        sweeps = {id(k): k for op, arg in self.schedule if op == "sweep" for k in arg}
        compiled = dict(zip(sweeps, _compile_all(list(sweeps.values()), compile, backend)))
        self._ops = [
            (self._sweep, self._bind(arg, [compiled[id(k)] for k in arg]))
            if op == "sweep" else (getattr(self, op), arg)
            for op, arg in self.schedule
        ]

        self.time_step = 0
        self.time = 0.0
        self.step_seconds = 0.0
        self.health = health
        self._after_step: list[tuple[int, int, object]] = []
        if health is not None:
            self._register(_HEALTH, 1, self._check_health)
        self._diag_series = None
        self._fp_stream = None
        _log.info(
            kv("solver_created", kind=self.kind, blocks=len(self._owned),
               health=health is not None, **self._tags, **self._note)
        )

    def _bind(self, kernels, compiled) -> list[tuple]:
        """``(compiled, name, block, measurement)`` per owned block and kernel of a sweep."""
        calls = []
        for block in self._owned:
            shape = block.interior_shape
            for kernel, fn in zip(kernels, compiled):
                space = kernel.subspace
                bounds = space.concrete(shape) if space else [(0, n) for n in shape]
                cells = prod(hi - lo for lo, hi in bounds)
                calls.append(
                    (fn, kernel.name, block, self.profiler.measure(kernel.name, cells=cells))
                )
        return calls

    def _where(self, block=None) -> str:
        """Rank (and block) label of health events; empty on one whole block."""
        parts = [f"rank {self.rank}"] if self.n_ranks > 1 else []
        if block is not None and not self._whole_domain:
            parts.append(f"block {block.coords}")
        return " ".join(parts)

    def _recorder_state(self) -> dict:
        """Live state-field views for crash post-mortem field stats."""
        state = {}
        for block in self._owned:
            where = self._where(block)
            for name in self.state_fields:
                state[f"{name}[{where}]" if where else name] = block.arrays[name]
        return state

    def _output_path(self, path, what: str, default):
        """*path*, or the attached RunDir's canonical location ``default(rundir)``."""
        if path is not None:
            return path
        if self.rundir is None:
            raise ValueError(f"{what} needs a path (no RunDir attached)")
        return default(self.rundir)

    # -- what the solvers define ------------------------------------------------------

    def sync(self, name: str) -> None:
        """Make the ghost layers of field *name* consistent on every block."""
        raise NotImplementedError

    def _drain(self) -> None:
        """Land communication still in flight from the last step.

        Anything that reads ghost cells or uses the communicator (gather,
        checkpoints, diagnostics, fingerprints, reports) calls this first.
        """

    def _merged(self, local: dict) -> dict:
        """Union of every rank's per-block *local* dict (all ranks get it)."""
        return local

    # -- stepping ---------------------------------------------------------------------

    def _sweep(self, calls) -> None:
        record = get_recorder().record
        gl, t, step, seed = self.ghost_layers, self.time, self.time_step, self.seed
        for compiled, name, block, measured in calls:
            # recorded BEFORE the sweep runs, so a kernel that crashes (or
            # wedges) is named by the post-mortem's last event
            record("kernel", name, time_step=step, block=block.coords)
            with measured:
                compiled(
                    block.arrays, ghost_layers=gl, block_offset=block.cell_offset,
                    t=t, time_step=step, seed=seed,
                )

    def step(self, n_steps: int = 1) -> None:
        """Advance the solution by *n_steps* passes over the schedule."""
        recorder = get_recorder()
        for _ in range(n_steps):
            t0 = perf_counter()
            begin_step = self.time_step
            recorder.step_begin(begin_step, **self._tags)
            for op, arg in self._ops:
                op(arg)
            for block in self._owned:
                arrays = block.arrays
                for a, b in self.swaps:
                    arrays[a], arrays[b] = arrays[b], arrays[a]
            self.time_step += 1
            self.time += self.dt
            for _stage, every, fn in self._after_step:
                if self.time_step % every == 0:
                    fn()
            seconds = perf_counter() - t0
            recorder.step_end(begin_step, seconds)
            self.step_seconds += seconds

    def _register(self, stage: int, every: int, fn) -> None:
        """Queue post-step work; enabling a stage again replaces it."""
        if stage != _CALLBACK:
            self._after_step = [e for e in self._after_step if e[0] != stage]
        self._after_step.append((stage, every, fn))
        self._after_step.sort(key=lambda entry: entry[0])

    def add_callback(self, fn, every: int = 1) -> None:
        """Register an in-situ hook ``fn(solver)`` run every *every* steps.

        The paper's §4.1 Python interface for "in-situ evaluation and
        computational steering": callbacks see (and may modify) the live
        state between time steps, on every rank.
        """
        self._register(_CALLBACK, _positive(every), partial(fn, self))

    def _check_health(self) -> None:
        if not self.health.due(self.time_step):
            return
        for block in self._owned:
            self.health.check(
                {name: block.arrays[name][self._cut] for name in self.state_fields},
                self.time_step, phase_sum_of="phi", where=self._where(block),
            )

    # -- checkpointing ----------------------------------------------------------------

    def _block_checkpoint_path(self, base, coords):
        if not self.checkpoint_per_block:
            return base
        tag = "block_" + "_".join(str(c) for c in coords)
        return base.with_name(f"{base.stem}.{tag}.npz")

    def save_checkpoint(self, path=None):
        """Write interior φ/µ plus time and step as compressed ``.npz``.

        One file per owned block, ``<stem>.block_i_j.npz`` next to the
        normalized *path* (``.npz`` appended when missing), so a restart
        with any rank count over the same forest can reassemble the state;
        returns the paths this rank wrote.  A single-block solver writes —
        and returns — the path itself.  With no *path* and an attached
        :class:`RunDir`, files land under ``<rundir>/checkpoints/``.
        """
        from .analysis.io import save_snapshot, snapshot_path

        self._drain()
        step = self.time_step
        base = snapshot_path(
            self._output_path(
                path, "save_checkpoint", lambda rd: rd.checkpoint_dir / f"step{step:08d}"
            )
        )
        get_recorder().record("checkpoint", str(base), time_step=step, blocks=len(self._owned))
        written = [
            save_snapshot(
                self._block_checkpoint_path(base, block.coords),
                block.arrays["phi"][self._cut].copy(),
                block.arrays["mu"][self._cut].copy(),
                self.time,
                step,
            )
            for block in sorted(self._owned, key=lambda b: b.coords)
        ]
        _log.info(kv("checkpoint_saved", base=base, blocks=len(written), step=step, **self._tags))
        return written if self.checkpoint_per_block else written[0]

    def load_checkpoint(self, path) -> None:
        """Restore every owned block from :meth:`save_checkpoint` files.

        Accepts the path that was passed to :meth:`save_checkpoint`, with
        or without the ``.npz`` suffix.  Restores interiors, time and step,
        then synchronizes φ and µ so the ghost frame is consistent — a
        resumed run continues bit-identically to an uninterrupted one.
        """
        from .analysis.io import load_snapshot, snapshot_path

        self._drain()
        base = snapshot_path(path)
        stamps: set[tuple[float, int]] = set()
        for block in self._owned:
            data = load_snapshot(self._block_checkpoint_path(base, block.coords))
            block.arrays["phi"][self._cut] = data["phi"]
            block.arrays["mu"][self._cut] = data["mu"]
            stamps.add((data["time"], data["time_step"]))
        if len(stamps) > 1:
            raise ValueError(
                f"inconsistent per-block checkpoints under {base}: "
                f"(time, step) = {sorted(stamps)}"
            )
        if stamps:
            self.time, self.time_step = stamps.pop()
        self.sync("phi")
        self.sync("mu")
        _log.info(kv("checkpoint_loaded", base=base, step=self.time_step, **self._tags))

    # -- in-situ physics diagnostics --------------------------------------------------

    def _tiles(self, tile_shape):
        if tile_shape and not self._whole_domain:
            raise ValueError(
                "tile_shape replays a block decomposition on a solver that "
                "owns the whole domain as one block"
            )
        return tuple(tile_shape) if tile_shape else None

    def enable_diagnostics(
        self,
        suite=None,
        every: int = 1,
        csv_path=None,
        tile_shape: tuple[int, ...] | None = None,
        check_invariants: bool = True,
    ):
        """Evaluate a :class:`~repro.diagnostics.DiagnosticsSuite` in-situ.

        Every *every* steps (and once immediately, establishing the
        conservation reference) the suite's reduction kernel runs on the
        live fields; rows stream into the returned
        :class:`~repro.diagnostics.DiagnosticsSeries` (CSV and counter
        events).  With *check_invariants* and a :class:`HealthMonitor`
        attached, solute-mass drift and free-energy decay violations go
        through the monitor's policy *before* the per-field watchdogs run.

        Collective under a communicator: every rank evaluates its own
        blocks' partial sums, the partials are allgathered and merged in
        sorted block-coordinate order (a fixed sequence of scalar adds), so
        every rank — and a single-process run over the same forest —
        computes the bit-identical global series.  CSV rows are written on
        rank 0 only; invariant checks run on all ranks
        (same merged values) so a policy-"raise" monitor aborts every rank.
        On a single block, *tile_shape* selects the fixed-order tiled sum —
        pass a distributed run's block shape to reproduce its series bit
        for bit.
        """
        from .diagnostics import DiagnosticsSeries, DiagnosticsSuite, invariant_names
        from .diagnostics.suite import merge_partials

        every = _positive(every)
        tiles = self._tiles(tile_shape)
        if csv_path is None and self.rundir is not None:
            csv_path = self.rundir.diagnostics_path
        if suite is None:
            suite = DiagnosticsSuite.for_model(self.model)
        series = self._diag_series = DiagnosticsSeries(
            suite.names,
            csv_path=csv_path if self.rank == 0 else None,
        )
        mass, energy = (
            invariant_names(suite.names, self.params) if check_invariants else ((), None)
        )

        def evaluate() -> None:
            self._drain()
            local = {
                block.coords: suite.partial(
                    block.arrays, ghost_layers=self.ghost_layers,
                    block_offset=block.cell_offset, tile_shape=tiles,
                    t=self.time, time_step=self.time_step, seed=self.seed,
                )
                for block in self._owned
            }
            totals, n_cells = merge_partials(self._merged(local), tuple(suite.names))
            values = suite.finalize(totals, n_cells)
            series.record(self.time_step, self.time, values)
            if self.health is not None and (mass or energy):
                self.health.check_diagnostics(
                    values, self.time_step,
                    mass_names=mass, energy_name=energy, where=self._where(),
                )

        self._register(_DIAGNOSTICS, every, evaluate)
        evaluate()
        return series

    @property
    def diagnostics(self):
        """The live :class:`DiagnosticsSeries`, or ``None`` when disabled."""
        return self._diag_series

    # -- determinism fingerprints -----------------------------------------------------

    def enable_fingerprints(
        self,
        every: int = 1,
        fields: tuple[str, ...] | None = None,
        reference=None,
        path=None,
        tile_shape: tuple[int, ...] | None = None,
    ):
        """Stream ``repro-fingerprint/1`` state digests every *every* steps.

        Each record carries per-``(field, block)`` BLAKE2b digests of the
        interior bytes plus a combined digest, taken in the fixed
        lexicographic traversal order.  Collective under a communicator:
        every rank digests its own blocks, the digests are allgathered and
        assembled in sorted block-coordinate order, so every rank — and a
        single-block run fingerprinted with ``tile_shape=forest.block_shape``
        — emits the bit-identical record stream.

        *path* defaults to the attached RunDir's canonical
        ``fingerprints.jsonl``; the ledger is written on rank 0 only.
        *reference* (a ledger file or run directory) makes the run
        self-auditing: every record is compared online, on ALL ranks, and
        the first mismatching ``(field, block)`` trips a ``divergence``
        health event through the solver's monitor (or a private
        ``policy="raise"`` one when none is attached).  Records once
        immediately and then after each *every*-th step.
        """
        from .observability.fingerprint import (
            FingerprintStream,
            block_key,
            digest_array,
            tiled_digests,
        )

        every = _positive(every)
        tiles = self._tiles(tile_shape)
        names = tuple(fields) if fields else self.state_fields
        for name in names:
            if any(name not in block.arrays for block in self._owned):
                raise ValueError(f"unknown field {name!r}")
        if path is None and self.rundir is not None:
            path = self.rundir.fingerprint_path
        stream = self._fp_stream = FingerprintStream(
            path=path if self.rank == 0 else None,
            reference=reference,
            health=self.health,
            where=self._where(),
        )

        def evaluate() -> None:
            self._drain()
            t0 = perf_counter()
            local: dict[str, dict[str, str]] = {}  # block key -> field -> digest
            for block in self._owned:
                for name in names:
                    interior = block.arrays[name][self._cut]
                    if tiles is None:
                        digests = {block_key(block.coords): digest_array(interior)}
                    else:
                        digests = tiled_digests(interior, self.dim, tiles)
                    for key, digest in digests.items():
                        local.setdefault(key, {})[name] = digest
            merged = self._merged(local)
            per_field = {name: {key: merged[key][name] for key in merged} for name in names}
            stream.add_overhead(perf_counter() - t0)
            stream.record_digests(self.time_step, self.time, per_field)

        self._register(_FINGERPRINTS, every, evaluate)
        evaluate()
        return stream

    @property
    def fingerprints(self):
        """The live :class:`FingerprintStream`, or ``None`` when disabled."""
        return self._fp_stream

    # -- reports ----------------------------------------------------------------------

    def profile_report(self, machine=None) -> str:
        """Per-kernel timing table plus the predicted-vs-measured closure.

        The second section joins the ECM prediction for every generated
        kernel (on *machine*, default Skylake 8174) with the measured
        MLUP/s of this run — the reproduction's Fig.-2-style model-accuracy
        check.
        """
        from .observability.report import model_accuracy_report

        self._drain()
        parts = [
            self.profiler.report(
                f"{self.kind} profile: rank {self.rank}, {len(self._owned)} block(s) "
                f"of {self.block_shape}, backend={self.backend!r}, {self.time_step} steps"
            ),
            "",
            model_accuracy_report(
                self.kernels, self.profiler, machine=machine, block_shape=self.block_shape
            ),
        ]
        if self.health is not None:
            parts += ["", self.health.summary()]
        return "\n".join(parts)

    def export_perf(self, path=None, machine=None, bench: str = "solver") -> str | None:
        """Append this run's ``repro-perf/1`` records (``perf/perf.jsonl``).

        One record per cell-counted kernel, joining measured rates (and
        hardware counters where the host provides them) with the ECM
        prediction.  Rank 0 writes — to *path*, or the attached RunDir's
        canonical perf ledger — and returns the path; other ranks, and a
        run with nothing to write, return ``None``.
        """
        from .perfmodel.ledger import PerfLedger, records_from_profiler

        self._drain()
        if self.rank != 0:
            return None
        path = self._output_path(path, "export_perf", lambda rundir: rundir.perf_path)
        records = records_from_profiler(
            bench, self.kernels, self.profiler,
            machine=machine, block_shape=self.block_shape, options=self._note,
        )
        if not records:
            return None
        PerfLedger(path).extend(records)
        return str(path)
