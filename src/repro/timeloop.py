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

A schedule of one block whose sweeps are all compiled C kernels and whose
syncs are all native ghost fills runs as *batches*: the schedule is lowered
once to an op list of packed entries (:class:`_Batch`) and ``repro_run``
executes the steps up to the next due post-step stage in one foreign call,
clocking every op.  Any other schedule — NumPy, several blocks or ranks, a
wrapped kernel, an LBM wall, a hardware-counter harness — runs op by op
in Python.
"""

from __future__ import annotations

import ctypes
import mmap
from functools import partial
from math import prod
from time import perf_counter

from .backends.c_backend import CompiledCKernel, compile_c_fill, pack_ops
from .backends.numpy_backend import create_arrays
from .observability.hwcounters import get_counter_harness
from .observability.log import get_logger, kv
from .observability.recorder import get_recorder
from .profiling import SolverProfiler
from .profiling.cache import compile_all

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


class _Batch:
    """A one-block schedule lowered to ``repro_run``'s op list, for both parities.

    *halves* holds, per parity of the array set (as it is, then with every
    swap applied), the arrays dict it was lowered on, its ops' names and
    measurements, their records ``(entry, ints, doubles, time_step slot,
    t slot)`` and its fills ``(field, ops block)``.  The batch is current
    while the live arrays dict holds the arrays of its parity, with their
    shapes, and every fill still prepares into the block the op list
    points at.
    """

    def __init__(self, run, halves, crumb, seed):
        self._run = run
        named = halves[0][1]
        self.names = tuple(name for name, _ in named)
        self.measured = tuple(measured for _, measured in named)
        self.nops = len(named)
        self.ops = pack_ops([records for _, _, records, _ in halves])
        #: the arrays (and so the blocks) the op list points into, kept alive
        self._halves = halves
        self._held = [
            tuple((name, a, a.shape) for name, a in arrays.items()) for arrays, *_ in halves
        ]
        self.parity = 0
        self.seed = seed
        self.clock = (ctypes.c_double * self.nops)()
        self._step = (ctypes.c_int64 * 1)()
        self._t = (ctypes.c_double * 1)()
        self._crumb = crumb

    def current(self, loop) -> bool:
        arrays = loop._owned[0].arrays
        held = self._held[self.parity]
        if loop.seed != self.seed or len(arrays) != len(held):
            return False
        for name, a, shape in held:
            if arrays.get(name) is not a or a.shape != shape:
                return False
        # a fill writes its Dirichlet values now, as the per-op fill does
        # on every call; a callback may have changed them
        for arrays, _, _, fills in self._halves:
            for name, ops in fills:
                blocks = loop._native_sync(arrays, name)
                if blocks is None or blocks[0] is not ops:
                    return False
        return True

    def __call__(self, n: int, time_step: int, t: float, dt: float) -> tuple[int, float]:
        """Run *n* steps from ``(time_step, t)``; account the ops; the new pair."""
        clock = self.clock
        ctypes.memset(clock, 0, ctypes.sizeof(clock))
        self._step[0], self._t[0] = time_step, t
        self._run(
            n, self.ops, self.nops, self.parity, self._step, self._t, dt, clock, self._crumb
        )
        self.parity ^= n & 1
        for measured, seconds in zip(self.measured, clock):
            measured.add(n, seconds)
        return self._step[0], self._t[0]


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
    #: a solver whose ``sync`` is a boundary fill sets this: under the C
    #: backend the native fill is then built beside the kernels
    fills_ghosts = False

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
        # the monitor checks its interval only when constructed; it is the
        # health stage's cadence (a modulus) from here on
        if health is not None and health.interval < 1:
            raise ValueError(f"health interval must be >= 1, got {health.interval}")
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
        self.profiler = SolverProfiler()
        if self.fills_ghosts:
            self._fills = {
                name: self.profiler.measure(f"fill:{name}") for name in self._owned[0].arrays
            }
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
        self.schedule = list(schedule)
        self.swaps = tuple(swaps)
        sweeps = {id(k): k for op, arg in self.schedule if op == "sweep" for k in arg}
        jobs = [partial(compile, k, backend) for k in sweeps.values()]
        native_fill = self.fills_ghosts and backend == "c"
        if native_fill:
            jobs.append(compile_c_fill)
        built = compile_all(jobs)
        #: what ``sync`` passes to ``fill_ghosts`` as its native fill (or None)
        self._native_fill = built.pop() if native_fill else None
        compiled = dict(zip(sweeps, built))
        self._ops = [
            (self._sweep, self._bind(arg, [compiled[id(k)] for k in arg]))
            if op == "sweep" else (getattr(self, op), arg)
            for op, arg in self.schedule
        ]

        #: the native batch (lowered on the first step that can run one)
        self._batch = None
        self._crumb = None

        self.time_step = 0
        self.time = 0.0
        self.step_seconds = 0.0
        self.health = health
        self._after_step: list[tuple[int, int, object]] = []
        if health is not None:
            self._register(_HEALTH, health.interval, self._check_health)
        #: the sink of each collective post-step stage: _DIAGNOSTICS, _FINGERPRINTS
        self._sinks: dict[int, object] = {}
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

    def _native_sync(self, arrays: dict, name: str) -> tuple | None:
        """``sync(name)`` on *arrays* as a native fill's prepared blocks, or ``None``.

        Asked only under a native fill; a solver whose ``sync`` is exactly
        that fill returns :meth:`CompiledCFill.prepare
        <repro.backends.c_backend.CompiledCFill.prepare>`'s answer.
        """
        return None

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
        """Advance the solution by *n_steps* passes over the schedule.

        In native batches where the schedule allows one (see the module
        docstring), each ending where a post-step stage is due; else op by
        op.  The recorder gets a ``step_begin`` / ``step_end`` pair per
        batch (``steps``) or step, and one ``op`` event per op and batch
        (``calls``) or call.
        """
        if n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {n_steps}")
        while n_steps > 0:
            batch = self._native()
            if batch is None:
                self._step_per_op(n_steps)
                return
            n = min(
                [n_steps] + [every - self.time_step % every for _, every, _ in self._after_step]
            )
            t0 = perf_counter()
            begin_step = self.time_step
            get_recorder().step_begin(begin_step, steps=n, **self._tags)
            self.time_step, self.time = batch(n, begin_step, self.time, self.dt)
            if n % 2:
                self._swap()
            self._after(begin_step, t0, steps=n)
            n_steps -= n

    def _step_per_op(self, n_steps: int) -> None:
        recorder = get_recorder()
        for _ in range(n_steps):
            t0 = perf_counter()
            begin_step = self.time_step
            recorder.step_begin(begin_step, **self._tags)
            for op, arg in self._ops:
                op(arg)
            self._swap()
            self.time_step += 1
            self.time += self.dt
            self._after(begin_step, t0)

    def _swap(self) -> None:
        for block in self._owned:
            arrays = block.arrays
            for a, b in self.swaps:
                arrays[a], arrays[b] = arrays[b], arrays[a]

    def _after(self, begin_step: int, t0: float, **data) -> None:
        """The due post-step stages, then the step's (or batch's) ``step_end``."""
        for _stage, every, fn in self._after_step:
            if self.time_step % every == 0:
                fn()
        seconds = perf_counter() - t0
        get_recorder().step_end(begin_step, seconds, **data)
        self.step_seconds += seconds

    def _native(self) -> _Batch | None:
        """The batch for the live array set, lowered anew if it changed; ``None``: per op."""
        if self._native_fill is None or get_counter_harness() is not None:
            return None  # a harness samples every op
        batch = self._batch
        if batch is None or not batch.current(self):
            batch = self._batch = self._lower()
        return batch

    def _lower(self) -> _Batch | None:
        """The schedule as a :class:`_Batch`, or ``None`` if an op has no native form."""
        if len(self._owned) != 1:
            return None
        (block,) = self._owned
        current = dict(block.arrays)
        swapped = dict(current)
        for a, b in self.swaps:
            swapped[a], swapped[b] = swapped[b], swapped[a]
        call = dict(
            ghost_layers=self.ghost_layers, block_offset=block.cell_offset,
            t=self.time, time_step=self.time_step, seed=self.seed,
        )
        halves = []
        for arrays in (current, swapped):
            ops = self._lower_ops(arrays, call)
            if ops is None:
                return None
            halves.append((arrays, *ops))
        crumb, path = self._breadcrumb()
        batch = _Batch(self._native_fill.run, halves, crumb, self.seed)
        recorder = get_recorder()
        recorder.breadcrumb = crumb
        # once per lowering, so a journal names the op of every breadcrumb
        recorder.record(
            "lowering", self.kind, ops=list(batch.names),
            **({"breadcrumb": path} if path else {}),
        )
        return batch

    def _lower_ops(self, arrays: dict, call: dict) -> tuple | None:
        """``([(name, measurement)], [op record], [(field, fill block)])`` on *arrays*."""
        named, records, fills = [], [], []
        for (op, arg), (_, bound) in zip(self.schedule, self._ops):
            if op == "sweep":
                for compiled, name, _block, measured in bound:
                    # a wrapper (a trace, an injected fault) must see every call
                    if type(compiled) is not CompiledCKernel:
                        return None
                    named.append((name, measured))
                    records.append(compiled.lower(arrays, **call))
            elif op == "sync":
                blocks = self._native_sync(arrays, arg)
                if blocks is None:
                    return None
                ops, values = blocks
                named.append((f"fill:{arg}", self._fills[arg]))
                records.append((self._native_fill.address, ops, values, -1, -1))
                fills.append((arg, ops))
            else:
                return None  # start / finish: an exchange in flight
        return named, records, fills

    def _breadcrumb(self) -> tuple:
        """``(int64[2], path)``: in ``<rundir>/breadcrumb`` with a RunDir, else in memory."""
        if self._crumb is None:
            path = None
            if self.rundir is None:
                crumb = (ctypes.c_int64 * 2)()
            else:
                # MAP_SHARED: the page cache holds the last write of a
                # process that dies inside a native call
                path = str(self.rundir.breadcrumb_path)
                with open(path, "w+b") as handle:
                    handle.write(bytes(16))
                    handle.flush()
                    mapped = mmap.mmap(handle.fileno(), 16)
                crumb = (ctypes.c_int64 * 2).from_buffer(mapped)
            self._crumb = (crumb, path)
        return self._crumb

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

        self._phase_field_only("save_checkpoint")
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

        self._phase_field_only("load_checkpoint")
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

    # -- collective post-step stages -----------------------------------------------

    def _collective_stage(
        self, stage, every, tile_shape, path, rundir_path, open_sink, per_block, emit
    ):
        """Open a collective stage's sink, register the stage and run it once.

        ``open_sink`` gets *path* (default: the RunDir's ``rundir_path``) on
        rank 0 and ``None`` elsewhere.  An evaluation unions the owned
        blocks' ``per_block(block, tiles)`` dicts over all ranks
        (:meth:`_merged`) and calls ``emit(sink, merged, seconds)``.
        """
        every = _positive(every)
        if tile_shape and not self._whole_domain:
            raise ValueError(
                "tile_shape replays a block decomposition on a solver that "
                "owns the whole domain as one block"
            )
        tiles = tuple(tile_shape) if tile_shape else None
        if path is None and self.rundir is not None:
            path = rundir_path(self.rundir)
        sink = self._sinks[stage] = open_sink(path if self.rank == 0 else None)

        def evaluate() -> None:
            self._drain()
            t0 = perf_counter()
            local = {}
            for block in self._owned:
                local.update(per_block(block, tiles))
            emit(sink, self._merged(local), perf_counter() - t0)

        self._register(stage, every, evaluate)
        evaluate()
        return sink

    def _phase_field_only(self, what: str) -> None:
        """Raise unless this loop holds the phase-field state ``phi`` and ``mu``."""
        missing = [name for name in ("phi", "mu") if name not in self.state_fields]
        if missing:
            raise ValueError(
                f"{what} needs the phase-field state {' and '.join(map(repr, missing))}; "
                f"this {self.kind} loop holds {', '.join(map(repr, self.state_fields))}"
            )

    # -- in-situ physics diagnostics --------------------------------------------------

    def enable_diagnostics(
        self,
        suite=None,
        every: int = 1,
        csv_path=None,
        tile_shape: tuple[int, ...] | None = None,
    ):
        """Evaluate a :class:`~repro.diagnostics.DiagnosticsSuite` in-situ.

        Every *every* steps (and once immediately, establishing the
        conservation reference) the suite's reduction kernel runs on the
        live fields; rows stream into the returned
        :class:`~repro.diagnostics.DiagnosticsSeries` (CSV and counter
        events).  With a :class:`HealthMonitor` attached, solute-mass drift
        and free-energy decay violations go through the monitor's policy
        *before* the per-field watchdogs run.

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

        self._phase_field_only("enable_diagnostics")
        if suite is None:
            suite = DiagnosticsSuite.for_model(self.model)
        mass, energy = invariant_names(suite.names, self.params)

        def partials(block, tiles) -> dict:
            return {
                block.coords: suite.partial(
                    block.arrays, ghost_layers=self.ghost_layers,
                    block_offset=block.cell_offset, tile_shape=tiles,
                    t=self.time, time_step=self.time_step, seed=self.seed,
                )
            }

        def emit(series, merged, _seconds) -> None:
            totals, n_cells = merge_partials(merged, tuple(suite.names))
            values = suite.finalize(totals, n_cells)
            series.record(self.time_step, self.time, values)
            if self.health is not None and (mass or energy):
                self.health.check_diagnostics(
                    values, self.time_step,
                    mass_names=mass, energy_name=energy, where=self._where(),
                )

        return self._collective_stage(
            _DIAGNOSTICS, every, tile_shape, csv_path, lambda rd: rd.diagnostics_path,
            lambda path: DiagnosticsSeries(suite.names, csv_path=path), partials, emit,
        )

    @property
    def diagnostics(self):
        """The live :class:`DiagnosticsSeries`, or ``None`` when disabled."""
        return self._sinks.get(_DIAGNOSTICS)

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

        names = tuple(fields) if fields else self.state_fields
        for name in names:
            if any(name not in block.arrays for block in self._owned):
                raise ValueError(f"unknown field {name!r}")

        def digests(block, tiles) -> dict:
            out: dict[str, dict[str, str]] = {}  # block key -> field -> digest
            for name in names:
                interior = block.arrays[name][self._cut]
                if tiles is None:
                    per_key = {block_key(block.coords): digest_array(interior)}
                else:
                    per_key = tiled_digests(interior, self.dim, tiles)
                for key, digest in per_key.items():
                    out.setdefault(key, {})[name] = digest
            return out

        def emit(stream, merged, seconds) -> None:
            per_field = {name: {key: merged[key][name] for key in merged} for name in names}
            stream.add_overhead(seconds)
            stream.record_digests(self.time_step, self.time, per_field)

        return self._collective_stage(
            _FINGERPRINTS, every, tile_shape, path, lambda rd: rd.fingerprint_path,
            lambda path: FingerprintStream(
                path=path, reference=reference, health=self.health, where=self._where()
            ),
            digests, emit,
        )

    @property
    def fingerprints(self):
        """The live :class:`FingerprintStream`, or ``None`` when disabled."""
        return self._sinks.get(_FINGERPRINTS)

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
