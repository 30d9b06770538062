"""The shared time loop: what the three solvers gained and must keep.

``SingleBlockSolver``, ``DistributedSolver`` and ``LBMSimulation`` execute
their sweep schedules on one :class:`repro.timeloop.TimeLoop`; bit-identity
between them is the business of ``test_fingerprints`` / ``test_overlap`` /
``test_proc_comm``.  These tests pin the behaviour the merge defines once
for all of them.
"""

import numpy as np
import pytest

from repro.backends.c_backend import c_compiler_available
from repro.lbm import LBMethod, LBMSimulation
from repro.observability import HealthMonitor
from repro.observability.fingerprint import digest_array
from repro.parallel import BlockForest, DistributedSolver, run_ranks
from repro.pfm import (
    GrandPotentialModel,
    SingleBlockSolver,
    make_two_phase_binary,
    planar_front,
)
from repro.profiling import clear_kernel_cache, kernel_cache_stats
from repro.timeloop import TimeLoop

SHAPE = (8, 8)


@pytest.fixture(scope="module")
def kernels():
    return GrandPotentialModel(make_two_phase_binary(dim=2)).create_kernels()


def _phi0(params):
    return planar_front(
        SHAPE, params.n_phases, 0, 1, position=4.0, epsilon=params.epsilon
    )


def _single(kernels, **kwargs):
    solver = SingleBlockSolver(kernels, SHAPE, **kwargs)
    solver.set_state(_phi0(kernels.model.params), mu=0.0)
    return solver, solver.arrays, "0,0"


def _distributed(kernels, comm=None, **kwargs):
    forest = BlockForest(SHAPE, (4, 4), periodic=True)
    solver = DistributedSolver(kernels, forest, comm=comm, **kwargs)
    phi0 = _phi0(kernels.model.params)

    def init(offset, shape):
        cut = tuple(slice(o, o + s) for o, s in zip(offset, shape))
        return phi0[cut], 0.0

    solver.set_state_from(init)
    coords = sorted(solver.blocks)[-1]
    return solver, solver.blocks[coords].arrays, ",".join(map(str, coords))


@pytest.mark.parametrize("make", [_single, _distributed])
class TestPostStepOrder:
    def test_diagnostics_health_callback_fingerprint(self, kernels, make, monkeypatch):
        """One ordered list: invariants, watchdogs, steering, then the digest."""
        health = HealthMonitor(policy="record")
        solver, _, _ = make(kernels, health=health)
        series = solver.enable_diagnostics(every=1)
        stream = solver.enable_fingerprints(every=1)
        order = []

        def spy(owner, name, label):
            inner = getattr(owner, name)

            def wrapped(*args, **kwargs):
                if not order or order[-1] != label:  # health: once per block
                    order.append(label)
                return inner(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapped)

        spy(series, "record", "diagnostics")
        spy(health, "check", "health")
        spy(stream, "record_digests", "fingerprint")
        # registered last, yet it runs between the watchdogs and the digest
        solver.add_callback(lambda s: order.append("callback"))
        solver.step(1)
        assert order == ["diagnostics", "health", "callback", "fingerprint"]

    def test_fingerprint_digests_what_the_callback_wrote(self, kernels, make):
        solver, arrays, key = make(kernels)
        gl = solver.ghost_layers
        cut = (slice(gl, -gl),) * 2

        def steer(s):
            assert s is solver
            arrays["phi"][cut][1, 2] = (0.25, 0.75)

        solver.add_callback(steer)
        stream = solver.enable_fingerprints(every=1)
        solver.step(1)
        np.testing.assert_array_equal(arrays["phi"][cut][1, 2], (0.25, 0.75))
        recorded = stream.records[-1]["fields"]["phi"][key]
        assert recorded == digest_array(arrays["phi"][cut])


@pytest.mark.parametrize("make", [_single, _distributed])
class TestFieldLayout:
    """Nothing in the loop rebinds a block's entry to an array of another layout."""

    BACKEND = "c" if c_compiler_available() else "numpy"

    @staticmethod
    def _blocks(solver):
        return [block.arrays for block in solver._owned]

    def _assert_rule(self, kernels, solver):
        for arrays in self._blocks(solver):
            assert sorted(arrays) == sorted(f.name for f in kernels.fields)
            for f in kernels.fields:
                a = arrays[f.name]
                assert a.strides == tuple(8 * s for s in f.strides(a.shape[:2])), f.name

    def test_state_access_swaps_and_checkpoints_keep_the_arrays(self, kernels, make, tmp_path):
        solver, _, _ = make(kernels, backend=self.BACKEND)   # set_state / set_state_from
        self._assert_rule(kernels, solver)
        before = [{name: id(a) for name, a in arrays.items()} for arrays in self._blocks(solver)]
        solver.step(3)                                       # an odd number of swaps
        self._assert_rule(kernels, solver)
        solver.save_checkpoint(tmp_path / "state")
        saved = [{n: a.copy() for n, a in arrays.items()} for arrays in self._blocks(solver)]
        solver.step(2)
        solver.load_checkpoint(tmp_path / "state")
        self._assert_rule(kernels, solver)
        after = [{name: id(a) for name, a in arrays.items()} for arrays in self._blocks(solver)]
        for ids_before, ids_after in zip(before, after):     # swapped, never replaced
            assert sorted(ids_before.values()) == sorted(ids_after.values())
        # the round trip is bitwise, ghost frame included
        for arrays, expected in zip(self._blocks(solver), saved):
            for name in solver.state_fields:
                assert np.array_equal(
                    arrays[name].view(np.uint64), expected[name].view(np.uint64)
                ), name
        solver.step(1)

    def test_checkpoint_members_are_c_ordered_logical_arrays(self, kernels, make, tmp_path):
        solver, _, _ = make(kernels, backend=self.BACKEND)
        solver.step(1)
        written = solver.save_checkpoint(tmp_path / "state")
        paths = written if isinstance(written, list) else [written]
        blocks = sorted(solver._owned, key=lambda b: b.coords)
        assert len(paths) == len(blocks)
        for path, block in zip(paths, blocks):
            with np.load(path) as data:
                for name in ("phi", "mu"):
                    member = data[name]
                    assert member.flags["C_CONTIGUOUS"]
                    assert np.array_equal(member, block.arrays[name][solver._cut])


class TestCallbacksDistributed:
    def test_fires_on_every_rank_on_its_cadence(self, kernels):
        def program(comm):
            solver, _, _ = _distributed(kernels, comm=comm)
            seen = []
            solver.add_callback(lambda s: seen.append((s.rank, s.time_step)), every=2)
            solver.step(4)
            return seen

        per_rank = run_ranks(2, program)
        assert per_rank == [[(rank, 2), (rank, 4)] for rank in range(2)]

    def test_rejects_nonpositive_cadence(self, kernels):
        solver, _, _ = _distributed(kernels)
        with pytest.raises(ValueError, match="every"):
            solver.add_callback(lambda s: None, every=0)


class TestSchedules:
    def test_single_block_and_forest_share_algorithm_1(self, kernels):
        single, _, _ = _single(kernels)
        forest, _, _ = _distributed(kernels)
        assert single.schedule == forest.schedule == kernels.schedule
        assert [op for op, _ in kernels.schedule] == ["sweep", "sync", "sweep", "sync"]

    def test_overlap_is_a_schedule_not_a_loop(self, kernels):
        solver, _, _ = _distributed(kernels, overlap=True)
        ops = [op for op, _ in solver.schedule]
        assert "sync" not in ops
        assert ops.count("start") == 2 and ops.count("finish") >= 2
        for cls in (SingleBlockSolver, DistributedSolver, LBMSimulation):
            assert cls.step is TimeLoop.step

    def test_tile_shape_needs_the_whole_domain(self, kernels):
        solver, _, _ = _distributed(kernels)
        with pytest.raises(ValueError, match="tile_shape"):
            solver.enable_fingerprints(tile_shape=(4, 4))


class TestLBMOnTheSharedLoop:
    def test_update_kernel_is_profiled_and_recorded(self):
        from repro.observability.recorder import get_recorder

        sim = LBMSimulation(LBMethod(relaxation_rate=1.2), (8, 8))
        sim.step(3)
        name = sim.kernel.name
        record = sim.profiler.records[name]
        assert record.calls == 3 and record.cells == 3 * 64
        assert sim.profiler.records[f"fill:{sim.src_field.name}"].calls == 3
        assert get_recorder().last_of("kernel").name == name
        assert sim.time_step == 3

    @pytest.mark.skipif(not c_compiler_available(), reason="no C compiler available")
    def test_c_backend_goes_through_the_kernel_cache(self):
        clear_kernel_cache()
        LBMSimulation(LBMethod(relaxation_rate=1.6), (10, 8), backend="c")
        first = kernel_cache_stats()
        assert (first.hits, first.misses) == (0, 1)
        LBMSimulation(LBMethod(relaxation_rate=1.6), (10, 8), backend="c")
        second = kernel_cache_stats()
        assert (second.hits, second.misses) == (1, 1)
