"""Process-backed communicator: real ranks, shared-memory ghosts, bit-identity.

The headline guarantee under test: a :class:`DistributedSolver` run on the
process backend — real OS processes, shared-memory slabs, pickle pipes — is
*bitwise identical* to the thread-backed simulator, for sync and overlapped
schedules, ghost widths 1 and 2, with fluctuations and the distributed
diagnostics reduction enabled.  Everything here uses the numpy backend: the
rank programs must be safe to fork from a pytest process (no OpenMP pool in
the parent).
"""

import os
import time

import numpy as np
import pytest

from repro.parallel import BlockForest, DistributedSolver, proc_comm
from repro.parallel.mpi_sim import RankError, run_ranks
from repro.parallel.proc_comm import (
    launch_ranks,
    process_backend_available,
    run_ranks_processes,
)

pytestmark = pytest.mark.skipif(
    not process_backend_available(),
    reason="needs the fork start method and multiprocessing.shared_memory",
)


class TestProcessRuntime:
    def test_ranks_are_real_processes(self):
        def prog(comm):
            return os.getpid()

        pids = run_ranks_processes(3, prog)
        assert len(set(pids)) == 3
        assert os.getpid() not in pids

    def test_large_array_roundtrip_through_slab(self):
        def prog(comm):
            other = 1 - comm.rank
            data = np.random.default_rng(comm.rank).random((512, 512))
            comm.send(data, other, tag=0)
            got = comm.recv(other, tag=0)
            expect = np.random.default_rng(other).random((512, 512))
            return np.array_equal(got, expect)

        assert run_ranks_processes(2, prog) == [True, True]

    def test_send_has_value_semantics(self):
        def prog(comm):
            if comm.rank == 0:
                data = np.ones(2048)
                comm.send(data, 1, tag=0)
                data[:] = -1.0  # mutation after send must not reach rank 1
                comm.barrier()
                return None
            comm.barrier()
            return float(comm.recv(0, tag=0)[0])

        assert run_ranks_processes(2, prog)[1] == 1.0

    def test_pipe_fallback_when_slab_too_small(self, monkeypatch):
        # a 512 KiB payload cannot fit a 4 KiB slab: it must fall back to
        # the pickle pipe and still arrive intact (and not deadlock on the
        # kernel pipe buffer when both ranks send before either receives);
        # the parent sizes the slabs before it forks the ranks
        monkeypatch.setattr(proc_comm, "_DEFAULT_SLAB_BYTES", 4096)

        def prog(comm):
            other = 1 - comm.rank
            data = np.random.default_rng(comm.rank).random((256, 256))
            comm.send(data, other, tag=0)
            got = comm.recv(other, tag=0)
            expect = np.random.default_rng(other).random((256, 256))
            return np.array_equal(got, expect)

        assert run_ranks_processes(2, prog) == [True, True]

    def test_irecv_test_is_nonblocking(self):
        def prog(comm):
            if comm.rank == 0:
                req = comm.irecv(1, tag=5)
                t0 = time.perf_counter()
                first, _ = req.test()  # nothing sent yet: must return now
                probe_s = time.perf_counter() - t0
                comm.send("go", 1, tag=6)
                value = req.wait()
                return first, probe_s, value
            comm.recv(0, tag=6)  # only send after rank 0 probed
            comm.send("payload", 0, tag=5)
            return None

        first, probe_s, value = run_ranks_processes(2, prog, recv_timeout=30)[0]
        assert first is False
        assert probe_s < 1.0
        assert value == "payload"

    def test_recv_timeout_names_channel(self):
        def prog(comm):
            if comm.rank == 0:
                comm.recv(1, tag=42)
            else:
                # keep rank 1 alive past rank 0's deadline so the timeout
                # path (not the peer-exited path) is the one that fires
                comm.recv(0, tag=99)
            return None

        with pytest.raises(RankError) as err:
            run_ranks_processes(2, prog, recv_timeout=1.0, join_timeout=30.0)
        assert "source=" in str(err.value)
        assert "tag=" in str(err.value)

    def test_exited_peer_fails_fast_with_channel(self):
        def prog(comm):
            if comm.rank == 0:
                comm.recv(1, tag=42)  # never sent; rank 1 exits immediately
            return None

        with pytest.raises(RankError) as err:
            run_ranks_processes(2, prog, recv_timeout=60.0, join_timeout=30.0)
        # diagnosed well before the 60 s receive deadline, naming the channel
        assert "source=1" in str(err.value)
        assert "tag=42" in str(err.value)

    def test_collectives_match_simulator(self):
        def prog(comm):
            total = comm.allreduce(float(comm.rank + 1))
            ranks = comm.allgather(comm.rank)
            top = comm.bcast("root-data" if comm.rank == 0 else None)
            gathered = comm.gather(comm.rank * 10, root=1)
            return total, ranks, top, gathered

        for n in (2, 3):
            proc = run_ranks_processes(n, prog)
            sim = run_ranks(n, prog)
            assert proc == sim


class TestLaunchRanks:
    def test_backend_dispatch(self):
        def prog(comm):
            return (comm.rank, comm.size, os.getpid())

        sim = launch_ranks(2, prog, backend="sim")
        proc = launch_ranks(2, prog, backend="process")
        assert [r[:2] for r in sim] == [r[:2] for r in proc] == [(0, 2), (1, 2)]
        assert sim[0][2] == os.getpid()
        assert proc[0][2] != os.getpid()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            launch_ranks(2, lambda comm: None, backend="smoke-signals")

    def test_mpi4py_backend_requires_mpi4py_or_world(self):
        from repro.parallel.mpi_adapter import mpi4py_available

        def prog(comm):
            return comm.rank

        if not mpi4py_available():
            with pytest.raises(RuntimeError, match="mpi4py"):
                launch_ranks(2, prog, backend="mpi4py")
        else:
            # a plain pytest run is a 1-rank world; asking for 2 must fail
            # loudly instead of deadlocking
            with pytest.raises(RuntimeError, match="mpirun"):
                launch_ranks(2, prog, backend="mpi4py")

class TestSolverBitIdentity:
    """The acceptance criterion: process backend ≡ simulator, bit for bit."""

    @pytest.fixture(scope="class")
    def kernels(self):
        from repro.pfm import GrandPotentialModel, make_two_phase_binary

        params = make_two_phase_binary(dim=2)
        params.fluctuation_amplitude = 0.02  # exercise global Philox counters
        return GrandPotentialModel(params).create_kernels()

    @staticmethod
    def _initializer(params):
        from repro.pfm import planar_front

        def init(offset, shape):
            full = planar_front(
                (16, 8), params.n_phases, 0, 1, position=6.0, epsilon=params.epsilon
            )
            sl = tuple(slice(o, o + s) for o, s in zip(offset, shape))
            return full[sl], 0.0

        return init

    @staticmethod
    def _prog(kernels, forest, init, overlap, gl):
        def prog(comm):
            solver = DistributedSolver(
                kernels, forest, comm=comm, overlap=overlap, ghost_layers=gl
            )
            solver.set_state_from(init)
            series = solver.enable_diagnostics(every=2)
            solver.step(4)
            return solver.gather("phi"), solver.gather("mu"), series.rows

        return prog

    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize("gl", [1, 2])
    def test_process_backend_matches_simulator(self, kernels, n_ranks, overlap, gl):
        init = self._initializer(kernels.model.params)
        forest = BlockForest((16, 8), (4, 4), periodic=True)
        prog = self._prog(kernels, forest, init, overlap, gl)

        sim = launch_ranks(n_ranks, prog, backend="sim")
        proc = launch_ranks(
            n_ranks, prog, backend="process", recv_timeout=120, join_timeout=300
        )
        sim_phi, sim_mu, sim_rows = sim[0]
        proc_phi, proc_mu, proc_rows = proc[0]
        np.testing.assert_array_equal(proc_phi, sim_phi)
        np.testing.assert_array_equal(proc_mu, sim_mu)
        # the rank-ordered reduction makes the diagnostics series exactly
        # equal, not approximately
        assert proc_rows == sim_rows

    def test_checkpoint_restart_across_backends(self, kernels, tmp_path):
        init = self._initializer(kernels.model.params)
        forest = BlockForest((16, 8), (4, 4), periodic=True)
        ckpt = tmp_path / "state.npz"

        def save_prog(comm):
            solver = DistributedSolver(kernels, forest, comm=comm)
            solver.set_state_from(init)
            solver.step(2)
            solver.save_checkpoint(ckpt)
            solver.step(3)
            return solver.gather("phi")

        def resume_prog(comm):
            solver = DistributedSolver(kernels, forest, comm=comm)
            solver.load_checkpoint(ckpt)
            solver.step(3)
            return solver.gather("phi")

        # checkpoint written by real processes, resumed on the simulator:
        # the two halves must splice together bit-identically
        full = launch_ranks(2, save_prog, backend="process", recv_timeout=120)[0]
        resumed = launch_ranks(2, resume_prog, backend="sim")[0]
        np.testing.assert_array_equal(resumed, full)

    def test_scaling_report_counts_each_rank_once(self, kernels):
        init = self._initializer(kernels.model.params)
        forest = BlockForest((16, 8), (4, 4), periodic=True)

        def prog(comm):
            solver = DistributedSolver(kernels, forest, comm=comm)
            solver.set_state_from(init)
            solver.step(2)
            report = solver.scaling_report()
            matrix = solver.comm_matrix
            return report, matrix.bytes.sum()

        sim = launch_ranks(2, prog, backend="sim")
        proc = launch_ranks(2, prog, backend="process", recv_timeout=120)
        # identical protocol => identical per-rank byte counts; the merged
        # matrix in the report must agree too (no double-counted own rows
        # when the allgather returns pickled copies)
        assert [b for _, b in sim] == [b for _, b in proc]

        def matrix_lines(report):
            # matrix rows only — the λ line below them is wall-clock noise
            lines = report.splitlines()
            return lines[: next(i for i, l in enumerate(lines) if "imbalance" in l)]

        assert matrix_lines(proc[0][0]) == matrix_lines(sim[0][0])


class TestCrossProcessObservability:
    def test_rank_tracers_merge_across_processes(self):
        from repro.observability.recorder import chrome_trace, rank_recorder

        def prog(comm):
            with rank_recorder(comm.rank) as recorder:
                with recorder.span("step", category="runtime", rank=comm.rank):
                    time.sleep(0.01)
            return recorder

        recorders = run_ranks_processes(2, prog)
        merged = chrome_trace(recorders)
        names = {
            (e.get("pid"), e["name"])
            for e in merged["traceEvents"]
            if e.get("ph") == "X"
        }
        assert (0, "step") in names
        assert (1, "step") in names
        # perf_counter is CLOCK_MONOTONIC (system-wide on Linux): spans from
        # different processes land on one timeline with sane non-negative
        # offsets from the common epoch
        assert all(
            e["ts"] >= 0 for e in merged["traceEvents"] if e.get("ph") == "X"
        )

    def test_profiler_crosses_process_boundary(self):
        from repro.profiling import SolverProfiler

        def prog(comm):
            prof = SolverProfiler()
            with prof.measure("kernel", cells=1000):
                time.sleep(0.002)
            return prof

        merged = SolverProfiler()
        for prof in run_ranks_processes(2, prog):
            merged.merge(prof)
        rec = merged.records["kernel"]
        assert rec.calls == 2
        assert rec.cells == 2000
