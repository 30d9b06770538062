"""Tests for the distributed-memory substrate: simulated MPI, block forest,
ghost exchange, and the distributed time loop vs. single-block reference."""

import numpy as np
import pytest

from repro.parallel.blockforest import BlockForest, morton_key
from repro.parallel.ghostlayer import communication_volume_bytes, exchange_field
from repro.parallel.mpi_sim import RankError, run_ranks
from repro.parallel.timeloop import DistributedSolver


class TestSimMPI:
    def test_send_recv(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send({"a": 7}, dest=1, tag=11)
                return None
            return comm.recv(source=0, tag=11)

        results = run_ranks(2, prog)
        assert results[1] == {"a": 7}

    def test_numpy_value_semantics(self):
        def prog(comm):
            if comm.rank == 0:
                data = np.arange(10.0)
                comm.send(data, dest=1)
                data[:] = -1  # must not affect the receiver
                return None
            received = comm.recv(source=0)
            return received.sum()

        assert run_ranks(2, prog)[1] == pytest.approx(45.0)

    def test_isend_irecv(self):
        def prog(comm):
            if comm.rank == 0:
                req = comm.isend([1, 2, 3], dest=1, tag=5)
                req.wait()
                return None
            req = comm.irecv(source=0, tag=5)
            return req.wait()

        assert run_ranks(2, prog)[1] == [1, 2, 3]

    def test_bcast(self):
        def prog(comm):
            data = {"x": 1} if comm.rank == 0 else None
            return comm.bcast(data, root=0)

        assert all(r == {"x": 1} for r in run_ranks(3, prog))

    def test_gather(self):
        def prog(comm):
            return comm.gather(comm.rank**2, root=0)

        results = run_ranks(4, prog)
        assert results[0] == [0, 1, 4, 9]
        assert results[1] is None

    def test_allreduce_sum_max(self):
        def prog(comm):
            return (comm.allreduce(comm.rank + 1, "sum"), comm.allreduce(comm.rank, "max"))

        for r in run_ranks(3, prog):
            assert r == (6, 2)

    def test_barrier(self):
        def prog(comm):
            comm.barrier()
            return comm.rank

        assert run_ranks(4, prog) == [0, 1, 2, 3]

    def test_rank_error_propagates(self):
        def prog(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            comm.recv(source=1)  # would deadlock without failure detection

        with pytest.raises(RankError):
            run_ranks(2, prog)

    def test_tagged_channels_independent(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("late", dest=1, tag="b")
                comm.send("early", dest=1, tag="a")
                return None
            # receive in the opposite order of sending — tags keep them apart
            first = comm.recv(source=0, tag="a")
            second = comm.recv(source=0, tag="b")
            return (first, second)

        assert run_ranks(2, prog)[1] == ("early", "late")

    def test_irecv_test_returns_false_when_unmatched(self):
        """Regression: ``Request.test()`` used to call ``wait()`` — blocking
        up to the full receive deadline and never reporting "not done"."""
        from time import perf_counter

        def prog(comm):
            if comm.rank == 0:
                req = comm.irecv(source=1, tag=9)
                t0 = perf_counter()
                done, value = req.test()  # nothing sent yet
                probe_s = perf_counter() - t0
                comm.send("go", dest=1, tag=10)  # now release the sender
                final = req.wait()
                return done, value, probe_s, final
            comm.recv(source=0, tag=10)
            comm.send("answer", dest=0, tag=9)
            return None

        done, value, probe_s, final = run_ranks(2, prog, recv_timeout=5.0)[0]
        assert done is False
        assert value is None
        assert probe_s < 1.0  # a true poll, not a timed-out wait
        assert final == "answer"

    def test_irecv_test_completes_request(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(123, dest=1, tag=4)
                return None
            req = comm.irecv(source=0, tag=4)
            while True:
                done, value = req.test()
                if done:
                    # the request stays completed; wait() returns the value
                    assert req.test() == (True, value)
                    assert req.wait() == value
                    return value

        assert run_ranks(2, prog)[1] == 123

    def test_stuck_rank_raises_instead_of_none(self):
        """Regression: a rank thread alive past the join deadline was
        silently ignored and its ``None`` result returned as success."""
        import time

        def prog(comm):
            if comm.rank == 1:
                time.sleep(30)  # stuck outside any receive
            return comm.rank

        with pytest.raises(RankError, match=r"rank\(s\) 1"):
            run_ranks(2, prog, recv_timeout=5.0, join_timeout=0.5)


class TestBlockForest:
    def test_tiling_validated(self):
        with pytest.raises(ValueError, match="tile"):
            BlockForest((10, 10), (3, 5))

    def test_block_count(self):
        f = BlockForest((8, 8, 8), (4, 4, 2))
        assert f.n_blocks == 2 * 2 * 4

    def test_morton_keys_distinct_and_local(self):
        f = BlockForest((8, 8), (2, 2))
        order = f.morton_order()
        assert len(set(order)) == f.n_blocks
        # Z-curve property: the first four blocks form the lower-left quad
        assert set(order[:4]) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_morton_key_interleaving(self):
        assert morton_key((0, 0)) == 0
        assert morton_key((1, 0)) < morton_key((0, 2))

    def test_distribution_balanced(self):
        f = BlockForest((8, 8), (2, 2))  # 16 blocks
        dist = f.distribute(5)
        sizes = sorted(len(v) for v in dist.values())
        assert sizes == [3, 3, 3, 3, 4]
        all_blocks = [c for v in dist.values() for c in v]
        assert len(all_blocks) == 16 and len(set(all_blocks)) == 16

    def test_too_many_ranks_rejected(self):
        f = BlockForest((4, 4), (2, 2))
        with pytest.raises(ValueError, match="ranks"):
            f.distribute(9)

    def test_neighbor_periodic_wrap(self):
        f = BlockForest((8, 8), (2, 2), periodic=True)
        assert f.neighbor((0, 0), 0, -1) == (3, 0)
        assert f.neighbor((3, 0), 0, +1) == (0, 0)

    def test_neighbor_wall(self):
        f = BlockForest((8, 8), (2, 2), periodic=False)
        assert f.neighbor((0, 0), 0, -1) is None
        assert f.neighbor((0, 0), 0, +1) == (1, 0)

    def test_cell_offsets(self):
        f = BlockForest((8, 6), (4, 3))
        b = f.make_block((1, 1))
        assert b.cell_offset == (4, 3)


class TestGhostExchange:
    def _make_blocks(self, forest, gl, field="u"):
        blocks = {}
        rng = np.random.default_rng(0)
        for coords in forest.all_block_coords():
            b = forest.make_block(coords)
            shape = tuple(s + 2 * gl for s in b.interior_shape)
            b.arrays[field] = np.zeros(shape)
            sl = (slice(gl, -gl),) * forest.dim
            b.arrays[field][sl] = rng.random(b.interior_shape)
            blocks[coords] = b
        return blocks

    def test_local_exchange_matches_global_roll(self):
        """Two periodic blocks on one rank == one global periodic array."""
        forest = BlockForest((8, 4), (4, 4), periodic=True)
        gl = 1
        blocks = self._make_blocks(forest, gl)
        owners = {c: 0 for c in blocks}
        # build the global array for reference
        glob = np.zeros((8, 4))
        for c, b in blocks.items():
            off = b.cell_offset
            glob[off[0]:off[0]+4, off[1]:off[1]+4] = b.arrays["u"][1:-1, 1:-1]
        exchange_field(blocks, forest, owners, None, "u", gl, wall_mode="neumann")
        b00 = blocks[(0, 0)].arrays["u"]
        # low-x ghost of block (0,0) wraps to the last row of block (1,0)
        np.testing.assert_array_equal(b00[0, 1:-1], glob[-1, :])
        np.testing.assert_array_equal(b00[-1, 1:-1], glob[4, :])
        # corners must be filled too (periodic in both axes)
        assert b00[0, 0] == glob[-1, -1]

    def test_wall_neumann(self):
        forest = BlockForest((4, 4), (4, 4), periodic=False)
        gl = 1
        blocks = self._make_blocks(forest, gl)
        owners = {c: 0 for c in blocks}
        exchange_field(blocks, forest, owners, None, "u", gl, wall_mode="neumann")
        arr = blocks[(0, 0)].arrays["u"]
        np.testing.assert_array_equal(arr[0, 1:-1], arr[1, 1:-1])
        np.testing.assert_array_equal(arr[-1, 1:-1], arr[-2, 1:-1])

    def test_remote_exchange_two_ranks(self):
        forest = BlockForest((8, 4), (4, 4), periodic=True)
        gl = 1
        rng_init = np.random.default_rng(3)
        init0 = rng_init.random((4, 4))
        init1 = rng_init.random((4, 4))

        def prog(comm):
            owners = forest.owner_map(2)
            blocks = {}
            for coords, owner in owners.items():
                if owner != comm.rank:
                    continue
                b = forest.make_block(coords)
                b.arrays["u"] = np.zeros((6, 6))
                b.arrays["u"][1:-1, 1:-1] = init0 if coords == (0, 0) else init1
                blocks[coords] = b
            sent = exchange_field(blocks, forest, owners, comm, "u", gl)
            assert sent > 0
            (b,) = blocks.values()
            return b.coords, b.arrays["u"].copy()

        results = dict(run_ranks(2, prog))
        np.testing.assert_array_equal(results[(0, 0)][0, 1:-1], init1[-1, :])
        np.testing.assert_array_equal(results[(1, 0)][-1, 1:-1], init0[0, :])

    def test_communication_volume(self):
        vol = communication_volume_bytes((10, 10, 10), 1, doubles_per_cell=6)
        assert vol == 6 * 100 * 2 * 3 * 6 * 8 / 6  # 6 faces x 100 cells x 6 dbl x 8 B
        assert vol == 6 * 100 * 6 * 8


class TestDistributedSolver:
    @pytest.fixture(scope="class")
    def kernels(self):
        from repro.pfm import GrandPotentialModel, make_two_phase_binary

        params = make_two_phase_binary(dim=2)
        params.fluctuation_amplitude = 0.02  # exercise global RNG counters
        return GrandPotentialModel(params).create_kernels()

    def _initializer(self, params):
        from repro.pfm import planar_front

        def init(offset, shape):
            full = planar_front(
                (16, 8), params.n_phases, 0, 1, position=6.0, epsilon=params.epsilon
            )
            sl = tuple(slice(o, o + s) for o, s in zip(offset, shape))
            return full[sl], 0.0

        return init

    def test_matches_single_block_bitwise(self, kernels):
        params = kernels.model.params
        init = self._initializer(params)

        # reference: one block, one rank
        forest1 = BlockForest((16, 8), (16, 8), periodic=True)
        ref = DistributedSolver(kernels, forest1, comm=None)
        ref.set_state_from(init)
        ref.step(5)
        ref_phi = ref.gather("phi")

        # 4 blocks on 1 rank
        forest4 = BlockForest((16, 8), (4, 4), periodic=True)
        multi = DistributedSolver(kernels, forest4, comm=None)
        multi.set_state_from(init)
        multi.step(5)
        np.testing.assert_array_equal(multi.gather("phi"), ref_phi)

    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_matches_across_ranks_bitwise(self, kernels, n_ranks):
        params = kernels.model.params
        init = self._initializer(params)

        forest1 = BlockForest((16, 8), (16, 8), periodic=True)
        ref = DistributedSolver(kernels, forest1, comm=None)
        ref.set_state_from(init)
        ref.step(4)
        ref_phi = ref.gather("phi")
        ref_mu = ref.gather("mu")

        forest = BlockForest((16, 8), (4, 4), periodic=True)

        def prog(comm):
            solver = DistributedSolver(kernels, forest, comm=comm)
            solver.set_state_from(init)
            solver.step(4)
            return solver.gather("phi"), solver.gather("mu")

        results = run_ranks(n_ranks, prog)
        phi, mu = results[0]
        np.testing.assert_array_equal(phi, ref_phi)
        np.testing.assert_array_equal(mu, ref_mu)

    def test_neumann_walls_match_single_solver(self, kernels):
        from repro.pfm import SingleBlockSolver, planar_front

        params = kernels.model.params
        shape = (16, 8)
        phi0 = planar_front(shape, params.n_phases, 0, 1, position=6.0, epsilon=params.epsilon)

        single = SingleBlockSolver(kernels, shape, boundary="neumann")
        single.set_state(phi0, mu=0.0)
        single.step(3)

        forest = BlockForest(shape, (8, 8), periodic=False)
        dist = DistributedSolver(kernels, forest, comm=None, wall_mode="neumann")
        dist.set_state_from(
            lambda off, shp: (
                phi0[off[0]:off[0]+shp[0], off[1]:off[1]+shp[1]],
                0.0,
            )
        )
        dist.step(3)
        np.testing.assert_array_equal(dist.gather("phi"), single.phi)


class TestWeightedDistribution:
    def test_balances_total_weight(self):
        forest = BlockForest((16, 16), (4, 4))  # 16 blocks
        weights = {c: (5.0 if c[0] == 0 else 1.0) for c in forest.all_block_coords()}
        dist = forest.distribute_weighted(weights, 4)
        totals = [sum(weights[c] for c in blocks) for blocks in dist.values()]
        assert max(totals) <= 2.5 * min(totals)
        all_blocks = [c for v in dist.values() for c in v]
        assert sorted(all_blocks) == sorted(forest.all_block_coords())

    def test_every_rank_owns_a_block(self):
        forest = BlockForest((16, 4), (4, 4))  # 4 blocks
        weights = {c: 1000.0 if c == (0, 0) else 0.001 for c in forest.all_block_coords()}
        dist = forest.distribute_weighted(weights, 4)
        assert all(len(v) >= 1 for v in dist.values())

    def test_uniform_weights_match_static(self):
        forest = BlockForest((8, 8), (2, 2))
        uniform = {c: 1.0 for c in forest.all_block_coords()}
        wd = forest.distribute_weighted(uniform, 4)
        sizes = sorted(len(v) for v in wd.values())
        assert sizes == [4, 4, 4, 4]

    def test_zero_total_weight_falls_back(self):
        forest = BlockForest((8, 8), (4, 4))
        dist = forest.distribute_weighted({c: 0.0 for c in forest.all_block_coords()}, 2)
        assert sum(len(v) for v in dist.values()) == forest.n_blocks


class TestMPIAdapter:
    def test_fold_tag_deterministic_and_bounded(self):
        from repro.parallel import fold_tag

        t1 = fold_tag(("phi", 0, -1, (1, 2, 3)))
        t2 = fold_tag(("phi", 0, -1, (1, 2, 3)))
        assert t1 == t2
        assert 0 <= t1 < 32749

    def test_fold_tag_distinguishes_exchange_channels(self):
        """The ghost exchange tags only (field, axis, side) — a handful of
        values per field; the destination block travels in the payload, so
        even a rare fold collision cannot misroute a message."""
        from repro.parallel import fold_tag

        tags = {
            fold_tag((field, axis, side))
            for field in ("phi_dst", "mu_dst")
            for axis in (0, 1, 2)
            for side in (-1, 1)
        }
        assert len(tags) == 2 * 3 * 2

    def test_small_int_tags_pass_through(self):
        from repro.parallel import fold_tag

        assert fold_tag(7) == 7

    def test_bool_tags_do_not_alias_ints(self):
        """Regression: ``bool`` is an ``int`` subclass, so a naive
        passthrough folded ``True``/``False`` onto tags ``1``/``0``."""
        from repro.parallel import fold_tag

        assert fold_tag(True) != fold_tag(1)
        assert fold_tag(False) != fold_tag(0)
        # still deterministic
        assert fold_tag(True) == fold_tag(True)
        assert 0 <= fold_tag(True) < 32749
        assert 0 <= fold_tag(False) < 32749

    def test_negative_collective_tags_fold_distinctly(self):
        """The simulator's bcast/gather use tags -1/-2 — invalid as raw MPI
        tags; they must fold into the valid range without colliding."""
        from repro.parallel import fold_tag

        bcast, gather = fold_tag(-1), fold_tag(-2)
        assert bcast != gather
        assert 0 <= bcast < 32749
        assert 0 <= gather < 32749
        assert fold_tag(-1) == bcast  # deterministic across calls

    def test_exchange_plan_tags_fold_without_collision(self):
        """Every tag the solver's exchanges actually use — the aggregated
        (field, "ghosts") bundles, the per-axis relay tags, and the
        collective tags — must land on distinct folded values."""
        from repro.parallel import fold_tag

        rich_tags = [
            ("phi", "ghosts"),
            ("mu", "ghosts"),
            ("phi_dst", "ghosts"),
            ("mu_dst", "ghosts"),
            *(
                (field, axis, side)
                for field in ("phi", "mu", "phi_dst", "mu_dst")
                for axis in (0, 1, 2)
                for side in (-1, 1)
            ),
            -1,
            -2,
        ]
        folded = [fold_tag(t) for t in rich_tags]
        assert len(set(folded)) == len(rich_tags)
        assert all(0 <= f < 32749 for f in folded)

    def test_adapter_requires_mpi4py(self):
        from repro.parallel import MPI4PyComm, mpi4py_available

        if mpi4py_available():
            pytest.skip("mpi4py installed; adapter would construct")
        with pytest.raises(ImportError):
            MPI4PyComm()
