"""Communication hiding: iteration subspaces, asynchronous ghost exchange,
the overlapped distributed schedule, and the satellite bugfixes (mirror
Neumann walls, distributed checkpoints, SimComm self-transfers)."""

import numpy as np
import pytest

from repro.ir import frontier_spaces, interior_space, split_interior_frontier
from repro.parallel import (
    BlockForest,
    DistributedSolver,
    GhostExchange,
    RankError,
    run_ranks,
)
from repro.parallel.boundary import fill_ghosts
from repro.parallel.ghostlayer import exchange_field
from repro.parallel.mpi_sim import _Router


@pytest.fixture(scope="module")
def kernels():
    from repro.pfm import GrandPotentialModel, make_two_phase_binary

    params = make_two_phase_binary(dim=2)
    params.fluctuation_amplitude = 0.02  # exercise the global Philox counters
    return GrandPotentialModel(params).create_kernels()


def _initializer(params, shape=(16, 8)):
    from repro.pfm import planar_front

    def init(offset, block_shape):
        full = planar_front(
            shape, params.n_phases, 0, 1, position=6.0, epsilon=params.epsilon
        )
        sl = tuple(slice(o, o + s) for o, s in zip(offset, block_shape))
        return full[sl], 0.0

    return init


class TestIterationSubspaces:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("margin", [1, 2])
    def test_interior_and_frontiers_tile_exactly_once(self, dim, margin):
        shape = (7, 6, 5)[:dim]
        cover = np.zeros(shape, dtype=int)
        spaces = [interior_space(dim, margin), *frontier_spaces(dim, margin)]
        assert len(spaces) == 1 + 2 * dim
        for space in spaces:
            sl = tuple(slice(lo, hi) for lo, hi in space.concrete(shape))
            cover[sl] += 1
        np.testing.assert_array_equal(cover, np.ones(shape, dtype=int))

    def test_too_small_block_raises(self, kernels):
        space = interior_space(2, 3)
        with pytest.raises(ValueError, match="too small"):
            space.concrete((4, 4))

    def test_reduction_kernels_refuse_restriction(self, kernels):
        from repro.diagnostics import DiagnosticsSuite

        suite = DiagnosticsSuite.for_model(kernels.model)
        red = suite.kernel
        with pytest.raises(ValueError, match="summation order"):
            red.restricted(interior_space(red.dim, 1))

    @pytest.mark.parametrize("backend", ["numpy", "c"])
    def test_split_matches_full_kernel_bitwise(self, kernels, backend):
        """Interior + frontier variants reproduce the full sweep exactly,
        through both backends, at the native and a widened ghost frame."""
        from repro.backends.c_backend import c_compiler_available
        from repro.backends.numpy_backend import create_arrays

        if backend == "c" and not c_compiler_available():
            pytest.skip("no C compiler")
        from repro.profiling import compile_cached

        shape = (10, 6)
        rng = np.random.default_rng(3)
        for kernel in kernels.mu_kernels:
            for gl in (max(kernel.ghost_layers, 1), max(kernel.ghost_layers, 1) + 1):
                base = create_arrays(kernels.fields, shape, gl)
                for arr in base.values():
                    arr[...] = rng.random(arr.shape)
                # order="K" keeps the kernels' layout; a plain copy() is another one
                full = {k: v.copy(order="K") for k, v in base.items()}
                split = {k: v.copy(order="K") for k, v in base.items()}
                kw = dict(
                    ghost_layers=gl, block_offset=(0,) * kernel.dim,
                    t=0.0, time_step=0, seed=1,
                )
                compile_cached(kernel, backend)(full, **kw)
                interior, frontiers = split_interior_frontier(kernel)
                for part in (interior, *frontiers):
                    compile_cached(part, backend)(split, **kw)
                for name in base:
                    np.testing.assert_array_equal(split[name], full[name])

    def test_slab_on_a_face_of_the_innermost_axis_carries_no_simd(self, kernels):
        """Its innermost loop runs ``margin`` times: lanes would stay empty."""
        from repro.backends.c_backend import generate_c_source

        for kernel in kernels.mu_kernels:
            innermost = kernel.loop_order[-1]
            interior, frontiers = split_interior_frontier(kernel)
            for part in (kernel, interior, *frontiers):
                on_inner_face = part.name.startswith(
                    f"{kernel.name}:frontier_a{innermost}"
                )
                has_simd = "#pragma omp simd" in generate_c_source(part)
                assert has_simd != on_inner_face, part.name


class TestGhostExchange:
    @staticmethod
    def _make_blocks(forest, owners, rank, gl):
        rng = np.random.default_rng(11)  # same stream on every rank
        blocks = {}
        for coords in forest.all_block_coords():
            shape = tuple(s + 2 * gl for s in forest.block_shape)
            arr = rng.standard_normal(shape)
            if owners[coords] == rank:
                blocks[coords] = type("B", (), {"arrays": {"phi": arr}})()
        return blocks

    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("gl", [1, 2])
    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_matches_synchronous_exchange_bitwise(self, periodic, gl, n_ranks):
        def prog(comm):
            forest = BlockForest((8, 8), (4, 4), periodic=periodic)
            owners = forest.owner_map(comm.size)
            a = self._make_blocks(forest, owners, comm.rank, gl)
            b = self._make_blocks(forest, owners, comm.rank, gl)
            ex = GhostExchange(a, forest, owners, comm, "phi", gl)
            ex.start()
            ex.finish()
            exchange_field(b, forest, owners, comm, "phi", gl)
            for c in a:
                np.testing.assert_array_equal(
                    a[c].arrays["phi"], b[c].arrays["phi"]
                )
            return True

        assert all(run_ranks(n_ranks, prog))

    def test_finish_requires_start_and_runs_once(self):
        forest = BlockForest((8, 8), (4, 4), periodic=True)
        owners = forest.owner_map(1)
        blocks = self._make_blocks(forest, owners, 0, 1)
        ex = GhostExchange(blocks, forest, owners, None, "phi", 1)
        with pytest.raises(RuntimeError, match="never started"):
            ex.finish()
        ex.start()
        with pytest.raises(RuntimeError, match="already started"):
            ex.start()
        ex.finish()
        with pytest.raises(RuntimeError, match="already finished"):
            ex.finish()

    def test_missing_peer_raises_named_rank_error(self):
        """A finish() whose peer never sends fails with the channel named."""

        def prog(comm):
            forest = BlockForest((8, 4), (4, 4), periodic=True)
            owners = forest.owner_map(comm.size)
            blocks = self._make_blocks(forest, owners, comm.rank, 1)
            if comm.rank == 1:
                return True  # never participates in the exchange
            ex = GhostExchange(blocks, forest, owners, comm, "phi", 1)
            ex.start()
            ex.finish()  # waits on rank 1 forever
            return True

        with pytest.raises(RankError, match=r"source=1.*dest=0.*tag=.*phi"):
            run_ranks(2, prog, recv_timeout=0.3)


class TestSimCommSelfTransfers:
    def test_self_send_recv_fifo_and_value_semantics(self):
        def prog(comm):
            data = np.arange(4.0)
            comm.send(data, comm.rank, tag="t")
            data[0] = -1.0  # buffered copy must be unaffected
            comm.send("second", comm.rank, tag="t")
            first = comm.recv(comm.rank, tag="t")
            assert first[0] == 0.0
            assert comm.recv(comm.rank, tag="t") == "second"
            return True

        assert all(run_ranks(2, prog))

    def test_empty_self_recv_fails_immediately(self):
        def prog(comm):
            with pytest.raises(RankError, match="immediate deadlock"):
                comm.recv(comm.rank, tag="nothing")
            return True

        assert all(run_ranks(1, prog, recv_timeout=30.0))

    def test_router_rejects_self_channels(self):
        router = _Router(2)
        with pytest.raises(RuntimeError, match="must not enqueue to itself"):
            router.channel(1, 1, "t")

    def test_collectives_still_work_through_bypass(self):
        def prog(comm):
            assert comm.bcast(comm.rank == 0 and "x" or None, root=0) == "x"
            return comm.allgather(comm.rank)

        assert run_ranks(3, prog) == [[0, 1, 2]] * 3


class TestNeumannMirror:
    @pytest.mark.parametrize("gl", [1, 2])
    def test_fill_ghosts_mirrors(self, gl):
        n = 4 + 2 * gl
        arr = np.zeros((n,))
        arr[gl:-gl] = np.arange(4.0) + 1.0
        fill_ghosts(arr, gl, 1, mode="neumann")
        # ghost layer `layer` mirrors interior layer `2gl-1-layer`
        for layer in range(gl):
            assert arr[layer] == arr[2 * gl - 1 - layer]
            assert arr[n - 1 - layer] == arr[n - 2 * gl + layer]

    def test_distributed_gl2_matches_single_block(self, kernels):
        """End-to-end regression for the unified mirror scheme: a gl=2
        Neumann-wall run agrees bitwise with the gl=1 single-block run
        (the kernels read one ghost layer deep; mirror layer 2gl-1-layer
        puts the same value there for every gl)."""
        from repro.pfm import SingleBlockSolver, planar_front

        params = kernels.model.params
        shape = (8, 8)
        phi0 = planar_front(
            shape, params.n_phases, 0, 1, position=6.0, epsilon=params.epsilon
        )
        single = SingleBlockSolver(kernels, shape, boundary="neumann", seed=3)
        single.set_state(phi0, 0.0)
        single.step(4)

        for gl in (None, 2):
            forest = BlockForest(shape, (4, 4), periodic=False)
            dist = DistributedSolver(
                kernels, forest, seed=3, ghost_layers=gl
            )
            dist.set_state_from(_initializer(params, shape))
            dist.step(4)
            np.testing.assert_array_equal(dist.gather("phi"), single.phi)
            np.testing.assert_array_equal(dist.gather("mu"), single.mu)

    def test_single_block_gl2_matches_gl1(self, kernels):
        from repro.pfm import SingleBlockSolver, planar_front

        params = kernels.model.params
        shape = (8, 8)
        phi0 = planar_front(
            shape, params.n_phases, 0, 1, position=3.0, epsilon=params.epsilon
        )
        runs = []
        for gl in (None, 2):
            s = SingleBlockSolver(
                kernels, shape, boundary="neumann", seed=3, ghost_layers=gl
            )
            s.set_state(phi0, 0.0)
            s.step(4)
            runs.append((s.phi.copy(), s.mu.copy()))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])


class TestOverlappedSchedule:
    @pytest.mark.parametrize("n_ranks", [1, 4])
    @pytest.mark.parametrize("gl", [None, 2])
    def test_bit_identical_to_synchronous_and_single_block(
        self, kernels, n_ranks, gl
    ):
        params = kernels.model.params
        init = _initializer(params)

        ref = DistributedSolver(kernels, BlockForest((16, 8), (16, 8)), seed=7)
        ref.set_state_from(init)
        ref.step(4)
        ref_phi, ref_mu = ref.gather("phi"), ref.gather("mu")

        forest = BlockForest((16, 8), (4, 4), periodic=True)

        def prog(comm, overlap):
            solver = DistributedSolver(
                kernels, forest, comm=comm, seed=7, overlap=overlap,
                ghost_layers=gl,
            )
            solver.set_state_from(init)
            solver.step(4)
            return solver.gather("phi"), solver.gather("mu")

        sync_phi, sync_mu = run_ranks(n_ranks, prog, False)[0]
        over_phi, over_mu = run_ranks(n_ranks, prog, True)[0]
        np.testing.assert_array_equal(over_phi, sync_phi)
        np.testing.assert_array_equal(over_mu, sync_mu)
        np.testing.assert_array_equal(over_phi, ref_phi)
        np.testing.assert_array_equal(over_mu, ref_mu)

    def test_neumann_overlap_matches_sync(self, kernels):
        params = kernels.model.params
        forest = BlockForest((8, 8), (4, 4), periodic=False)

        def run(overlap):
            s = DistributedSolver(
                kernels, forest, seed=5, overlap=overlap
            )
            s.set_state_from(_initializer(params, (8, 8)))
            s.step(4)
            return s.gather("phi"), s.gather("mu")

        sync, over = run(False), run(True)
        np.testing.assert_array_equal(over[0], sync[0])
        np.testing.assert_array_equal(over[1], sync[1])

    def test_spans_and_profiler_records(self, kernels):
        params = kernels.model.params
        forest = BlockForest((16, 8), (4, 4), periodic=True)
        solver = DistributedSolver(kernels, forest, seed=7, overlap=True)
        solver.set_state_from(_initializer(params))
        solver.step(2)
        solver.gather("phi")  # drains the deferred µ exchange
        names = set(solver.profiler.records)
        assert "mu:interior" in names
        assert {f"mu:frontier_a{a}{s}" for a in (0, 1) for s in ("lo", "hi")} <= names
        assert "exchange:phi_dst:wait" in names
        assert "exchange:mu_dst:wait" in names
        # interior + frontier cells account for exactly one full µ sweep
        mu_cells = sum(
            r.cells for n, r in solver.profiler.records.items()
            if n == "mu:interior" or n.startswith("mu:frontier")
        )
        phi_cells = solver.profiler.records["phi"].cells
        assert mu_cells == phi_cells
        report = solver.scaling_report()
        assert "communication-hiding closure" in report

    def test_overlap_rejects_too_small_blocks(self, kernels):
        forest = BlockForest((2, 2), (1, 1), periodic=True)
        with pytest.raises(ValueError, match="overlap requires blocks"):
            DistributedSolver(kernels, forest, overlap=True)

    def test_ghost_layers_below_requirement_rejected(self, kernels):
        forest = BlockForest((8, 8), (4, 4), periodic=True)
        with pytest.raises(ValueError, match="below the kernel set"):
            DistributedSolver(kernels, forest, ghost_layers=0)


class TestDistributedCheckpoint:
    @pytest.mark.parametrize("n_ranks", [1, 4])
    def test_restart_equals_uninterrupted(self, kernels, n_ranks, tmp_path):
        params = kernels.model.params
        init = _initializer(params)
        forest = BlockForest((16, 8), (4, 4), periodic=True)
        base = tmp_path / "ckpt"

        def prog(comm):
            solver = DistributedSolver(kernels, forest, comm=comm, seed=7,
                                       overlap=True)
            solver.set_state_from(init)
            solver.step(3)
            solver.save_checkpoint(base)
            solver.step(3)  # uninterrupted continuation
            straight = solver.gather("phi"), solver.gather("mu")

            resumed = DistributedSolver(kernels, forest, comm=comm, seed=7,
                                        overlap=True)
            resumed.load_checkpoint(base)
            assert resumed.time_step == 3
            resumed.step(3)
            restart = resumed.gather("phi"), resumed.gather("mu")
            return straight, restart

        (straight, restart) = run_ranks(n_ranks, prog)[0]
        np.testing.assert_array_equal(restart[0], straight[0])
        np.testing.assert_array_equal(restart[1], straight[1])

    def test_per_block_files_written(self, kernels, tmp_path):
        params = kernels.model.params
        forest = BlockForest((8, 8), (4, 4), periodic=True)
        solver = DistributedSolver(kernels, forest, seed=1)
        solver.set_state_from(_initializer(params, (8, 8)))
        written = solver.save_checkpoint(tmp_path / "state")
        assert len(written) == 4
        names = sorted(p.name for p in map(type(written[0]), written))
        assert names == [
            "state.block_0_0.npz",
            "state.block_0_1.npz",
            "state.block_1_0.npz",
            "state.block_1_1.npz",
        ]

    def test_inconsistent_blocks_rejected(self, kernels, tmp_path):
        params = kernels.model.params
        forest = BlockForest((8, 8), (4, 4), periodic=True)
        solver = DistributedSolver(kernels, forest, seed=1)
        solver.set_state_from(_initializer(params, (8, 8)))
        solver.save_checkpoint(tmp_path / "state")
        solver.step(1)
        # overwrite one block's file from a later step
        coords = sorted(solver.blocks)[0]
        from repro.analysis.io import snapshot_path

        solver2 = DistributedSolver(kernels, forest, seed=1)
        base = snapshot_path(tmp_path / "state")
        gl = solver.ghost_layers
        sl = (slice(gl, -gl),) * 2
        from repro.analysis.io import save_snapshot

        save_snapshot(
            solver._block_checkpoint_path(base, coords),
            solver.blocks[coords].arrays["phi"][sl].copy(),
            solver.blocks[coords].arrays["mu"][sl].copy(),
            solver.time,
            solver.time_step,
        )
        with pytest.raises(ValueError, match="inconsistent per-block"):
            solver2.load_checkpoint(tmp_path / "state")
