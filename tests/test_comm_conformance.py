"""Communicator conformance: one behavioral contract, every backend.

The distributed stack is written against one communicator interface; these
tests pin its *semantics* — value-copying sends at any nesting depth,
self-transfers, sendrecv, the collectives, the barrier, deadlock diagnosis
and how a failed run is named — and run the identical programs on the
thread-backed simulator and the process-backed runtime.  A backend that
passes this suite can be swapped under :class:`DistributedSolver` without
re-validating the solver.

``MPI4PyComm`` runs the communicator cases (not the runner's deadlock,
timeout and failure diagnostics, which ``mpirun`` owns, nor the
rank-ordered reduction, which MPI does not promise) on ``run_ranks``
threads through :class:`FakeMPIComm`, a stand-in for ``mpi4py.MPI.Comm``
injected into ``sys.modules``.  With mpi4py installed it also joins for the
single-rank subset on a real ``COMM_SELF``.
"""

import operator
import pickle
import re
import sys
import time
import types
from unittest import mock

import numpy as np
import pytest

from repro.parallel.mpi_adapter import MPI4PyComm, mpi4py_available
from repro.parallel.mpi_sim import RankError, run_ranks
from repro.parallel.proc_comm import process_backend_available, run_ranks_processes

BACKENDS = [
    "sim",
    pytest.param(
        "process",
        marks=pytest.mark.skipif(
            not process_backend_available(),
            reason="needs fork + multiprocessing.shared_memory",
        ),
    ),
]


class FakeMPIException(RuntimeError):
    """``mpi4py.MPI.Exception``."""


class FakeMPIComm:
    """``mpi4py.MPI.Comm``'s lower-case API, carried by a simulated rank.

    What mpi4py checks, this checks: a payload travels pickled (so a
    receiver never shares an object with its sender); a tag is converted
    as a C ``int`` (a tuple is a ``TypeError``, ``True`` is tag 1) and must
    lie in ``[0, TAG_UB]``; and a non-blocking receive completes into the
    buffer it was posted with — a pickled message longer than that buffer
    is a truncation error, as under MPI.
    """

    TAG_UB = 32767

    def __init__(self, sim):
        self._sim = sim

    def Get_rank(self):
        return self._sim.rank

    def Get_size(self):
        return self._sim.size

    def _tag(self, tag):
        tag = operator.index(tag)
        if not 0 <= tag <= self.TAG_UB:
            raise FakeMPIException(f"MPI_ERR_TAG: invalid tag {tag}")
        return tag

    def send(self, obj, dest, tag=0):
        self._sim.send(pickle.dumps(obj), dest, tag=self._tag(tag))

    def recv(self, source, tag=0):
        return pickle.loads(self._sim.recv(source, tag=self._tag(tag)))

    def isend(self, obj, dest, tag=0):
        return _FakeRequest(self._sim.isend(pickle.dumps(obj), dest, tag=self._tag(tag)))

    def irecv(self, buf, source, tag=0):
        return _FakeRequest(self._sim.irecv(source, tag=self._tag(tag)), len(buf))

    def improbe(self, source, tag=0):
        done, payload = self._sim.irecv(source, tag=self._tag(tag)).test()
        return _FakeMessage(payload) if done else None

    def sendrecv(self, obj, dest, sendtag=0, source=0, recvtag=0):
        self.send(obj, dest, sendtag)
        return self.recv(source, recvtag)

    def Barrier(self):
        self._sim.barrier()

    def bcast(self, obj, root=0):
        return pickle.loads(self._sim.bcast(pickle.dumps(obj), root=root))

    def gather(self, obj, root=0):
        data = self._sim.gather(pickle.dumps(obj), root=root)
        return None if data is None else [pickle.loads(d) for d in data]

    def allgather(self, obj):
        return [pickle.loads(d) for d in self._sim.allgather(pickle.dumps(obj))]

    def allreduce(self, value, op):
        return self._sim.allreduce(value, op=op)


class _FakeRequest:
    """``mpi4py.MPI.Request``: ``wait()`` -> object, ``test()`` -> ``(flag, object)``."""

    def __init__(self, posted, capacity=None):
        self._posted, self._capacity = posted, capacity

    def _unpack(self, payload):
        if payload is None:  # a send
            return None
        if len(payload) > self._capacity:
            raise FakeMPIException(
                f"MPI_ERR_TRUNCATE: message of {len(payload)} bytes, buffer of {self._capacity}"
            )
        return pickle.loads(payload)

    def wait(self):
        return self._unpack(self._posted.wait())

    def test(self):
        done, payload = self._posted.test()
        return (True, self._unpack(payload)) if done else (False, None)


class _FakeMessage:
    """``mpi4py.MPI.Message``: a matched message, received at its true size."""

    def __init__(self, payload):
        self._payload = payload

    def recv(self):
        return pickle.loads(self._payload)


def fake_mpi4py():
    """``{"mpi4py": ..., "mpi4py.MPI": ...}`` for ``sys.modules``."""
    mpi = types.ModuleType("mpi4py.MPI")
    mpi.SUM, mpi.MAX, mpi.MIN = "sum", "max", "min"
    mpi.Exception = FakeMPIException
    package = types.ModuleType("mpi4py")
    package.MPI = mpi
    return {"mpi4py": package, "mpi4py.MPI": mpi}


def run_mpi4py(size, prog, **kwargs):
    """*prog* on ``MPI4PyComm`` over :class:`FakeMPIComm`, one thread per rank."""
    with mock.patch.dict(sys.modules, fake_mpi4py()):
        return run_ranks(size, lambda sim: prog(MPI4PyComm(FakeMPIComm(sim))), **kwargs)


def run_spmd(backend, size, prog, **kwargs):
    if backend == "sim":
        return run_ranks(size, prog, **kwargs)
    if backend == "mpi4py":
        return run_mpi4py(size, prog, **kwargs)
    return run_ranks_processes(size, prog, **kwargs)


#: every backend plus MPI4PyComm over the fake mpi4py, for the cases whose
#: semantics MPI itself guarantees
WITH_MPI4PY = [*BACKENDS, "mpi4py"]


class TestPointToPoint:
    @pytest.mark.parametrize("backend", WITH_MPI4PY)
    def test_send_recv_copies_values(self, backend):
        # a small array and one large enough for the process backend's
        # shared-memory slab: either way the send fixes the values
        def prog(comm):
            if comm.rank == 0:
                small = np.arange(8, dtype=np.float64)
                large = np.ones(2048)
                comm.send(small, 1, tag=0)
                comm.send(large, 1, tag=1)
                small[:] = -1.0  # receiver must see the values at send time
                large[:] = -1.0
                comm.barrier()
                return None
            comm.barrier()
            return comm.recv(0, tag=0).tolist(), float(comm.recv(0, tag=1).min())

        assert run_spmd(backend, 2, prog)[1] == (list(range(8)), 1.0)

    @pytest.mark.parametrize("backend", WITH_MPI4PY)
    def test_nested_arrays_have_value_semantics(self, backend):
        # arrays inside a list and a dict, sent to the peer and to self and
        # overwritten right after the send: every receiver sees the values
        # the arrays held when send() was called
        def prog(comm):
            small = np.arange(4.0)
            large = np.arange(512.0)  # 4 KiB: slab-sized on the process backend
            for dest in sorted({1 - comm.rank, comm.rank}):
                comm.send([small, ("x", large)], dest, tag="list")
                comm.send({"small": small, "large": large}, dest, tag="dict")
            small[:] = -1.0
            large[:] = -1.0
            comm.barrier()
            got = []
            for source in sorted({1 - comm.rank, comm.rank}):
                as_list = comm.recv(source, tag="list")
                as_dict = comm.recv(source, tag="dict")
                got.append((
                    as_list[0].tolist(), as_list[1][0], float(as_list[1][1].sum()),
                    as_dict["small"].tolist(), float(as_dict["large"].sum()),
                ))
            return got

        expected = ([0.0, 1.0, 2.0, 3.0], "x", float(sum(range(512))),
                    [0.0, 1.0, 2.0, 3.0], float(sum(range(512))))
        assert run_spmd(backend, 2, prog) == [[expected, expected]] * 2

    @pytest.mark.parametrize("backend", WITH_MPI4PY)
    def test_nested_payload_with_arrays(self, backend):
        # the exchange protocol ships bundles: lists of (coords, offset,
        # strip) tuples — arrays nested inside containers must arrive intact
        # and in place
        def prog(comm):
            if comm.rank == 0:
                bundle = [
                    ((0, 1), (-1, 0), np.arange(20000, dtype=np.float64)),
                    ((1, 1), (0, +1), np.full((64, 64), 7.0)),
                ]
                comm.send({"bundle": bundle, "step": 3}, 1, tag=("phi", "ghosts"))
                return None
            msg = comm.recv(0, tag=("phi", "ghosts"))
            (c0, o0, a0), (c1, o1, a1) = msg["bundle"]
            return (
                msg["step"] == 3
                and c0 == (0, 1)
                and o1 == (0, +1)
                and float(a0[19999]) == 19999.0
                and np.all(a1 == 7.0)
            )

        assert bool(run_spmd(backend, 2, prog)[1])

    @pytest.mark.parametrize("backend", WITH_MPI4PY)
    def test_self_transfer_buffers_in_order(self, backend):
        def prog(comm):
            comm.send("first", comm.rank, tag=1)
            comm.send("second", comm.rank, tag=1)
            comm.send(np.ones(3), comm.rank, tag=2)
            a = comm.recv(comm.rank, tag=1)
            b = comm.recv(comm.rank, tag=1)
            c = comm.recv(comm.rank, tag=2)
            return a, b, float(c.sum())

        assert run_spmd(backend, 2, prog) == [("first", "second", 3.0)] * 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_self_recv_without_send_is_immediate_deadlock(self, backend):
        def prog(comm):
            if comm.rank == 0:
                comm.recv(0, tag=0)
            return None

        with pytest.raises(RankError, match="immediate deadlock"):
            run_spmd(backend, 2, prog, recv_timeout=30.0)

    @pytest.mark.parametrize("backend", WITH_MPI4PY)
    def test_sendrecv_exchanges_between_pairs(self, backend):
        def prog(comm):
            other = 1 - comm.rank
            return comm.sendrecv(f"from-{comm.rank}", dest=other, source=other)

        assert run_spmd(backend, 2, prog) == ["from-1", "from-0"]

    @pytest.mark.parametrize("backend", WITH_MPI4PY)
    def test_rich_tuple_tags_are_distinct_channels(self, backend):
        def prog(comm):
            if comm.rank == 0:
                comm.send("phi-msg", 1, tag=("phi", 0, -1))
                comm.send("mu-msg", 1, tag=("mu", 0, -1))
                return None
            # receive in the opposite order: tags, not arrival order, match
            mu = comm.recv(0, tag=("mu", 0, -1))
            phi = comm.recv(0, tag=("phi", 0, -1))
            return mu, phi

        assert run_spmd(backend, 2, prog)[1] == ("mu-msg", "phi-msg")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_invalid_rank_rejected(self, backend):
        def prog(comm):
            with pytest.raises(ValueError):
                comm.send("x", 5)
            with pytest.raises(ValueError):
                comm.recv(-1)
            return True

        assert run_spmd(backend, 2, prog) == [True, True]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_recv_timeout_error_names_channel(self, backend):
        def prog(comm):
            if comm.rank == 0:
                comm.recv(1, tag=("never", 9))
            else:
                comm.recv(0, tag="also-never")
            return None

        with pytest.raises(RankError) as err:
            run_spmd(backend, 2, prog, recv_timeout=1.0, join_timeout=60.0)
        message = str(err.value)
        assert "source=" in message
        assert "dest=" in message
        assert "tag=" in message


@pytest.mark.parametrize("backend", WITH_MPI4PY)
class TestNonBlocking:
    def test_isend_completes_immediately(self, backend):
        def prog(comm):
            req = comm.isend("payload", 1 - comm.rank, tag=0)
            done, _ = req.test()
            got = comm.recv(1 - comm.rank, tag=0)
            return done, got

        assert run_spmd(backend, 2, prog) == [(True, "payload")] * 2

    def test_irecv_wait_delivers(self, backend):
        def prog(comm):
            other = 1 - comm.rank
            req = comm.irecv(other, tag=3)
            comm.send(comm.rank * 10, other, tag=3)
            return req.wait()

        assert run_spmd(backend, 2, prog) == [10, 0]

    def test_irecv_test_polls_without_blocking(self, backend):
        import time

        def prog(comm):
            if comm.rank == 0:
                req = comm.irecv(1, tag=5)
                t0 = time.perf_counter()
                early, _ = req.test()
                elapsed = time.perf_counter() - t0
                comm.send("go", 1, tag=6)
                while True:
                    done, value = req.test()
                    if done:
                        return early, elapsed, value
                    time.sleep(0.001)
            comm.recv(0, tag=6)
            comm.send("late-payload", 0, tag=5)
            return None

        early, elapsed, value = run_spmd(backend, 2, prog, recv_timeout=30.0)[0]
        assert early is False
        assert elapsed < 1.0
        assert value == "late-payload"


class TestCollectives:
    @pytest.mark.parametrize("backend", WITH_MPI4PY)
    @pytest.mark.parametrize("size", [2, 3])
    def test_bcast(self, backend, size):
        def prog(comm):
            return comm.bcast({"n": 7} if comm.rank == 0 else None, root=0)

        assert run_spmd(backend, size, prog) == [{"n": 7}] * size

    @pytest.mark.parametrize("backend", WITH_MPI4PY)
    @pytest.mark.parametrize("size", [2, 3])
    def test_gather_root_only(self, backend, size):
        def prog(comm):
            return comm.gather(comm.rank**2, root=0)

        results = run_spmd(backend, size, prog)
        assert results[0] == [r**2 for r in range(size)]
        assert all(r is None for r in results[1:])

    @pytest.mark.parametrize("backend", WITH_MPI4PY)
    @pytest.mark.parametrize("size", [2, 3])
    def test_allgather(self, backend, size):
        def prog(comm):
            return comm.allgather(chr(ord("a") + comm.rank))

        expected = [chr(ord("a") + r) for r in range(size)]
        assert run_spmd(backend, size, prog) == [expected] * size

    @pytest.mark.parametrize("backend", WITH_MPI4PY)
    @pytest.mark.parametrize("size", [2, 3])
    def test_allreduce_ops(self, backend, size):
        def prog(comm):
            return (
                comm.allreduce(float(comm.rank + 1), op="sum"),
                comm.allreduce(comm.rank, op="max"),
                comm.allreduce(comm.rank, op="min"),
            )

        total = float(sum(range(1, size + 1)))
        assert run_spmd(backend, size, prog) == [(total, size - 1, 0)] * size

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("size", [2, 3])
    def test_allreduce_sum_is_rank_ordered(self, backend, size):
        # the reduction must be the fixed sequence v0 + v1 + ... (not a
        # tree): cross-backend bit-identity of diagnostics depends on it
        def prog(comm):
            values = [1e16, 1.0, -1e16]
            mine = values[comm.rank % 3]
            return comm.allreduce(mine, op="sum")

        values = [1e16, 1.0, -1e16]
        expected = values[0]
        for r in range(1, size):
            expected = expected + values[r % 3]
        results = run_spmd(backend, size, prog)
        assert all(r == expected for r in results)

    @pytest.mark.parametrize("backend", WITH_MPI4PY)
    @pytest.mark.parametrize("size", [2, 3])
    def test_allreduce_unknown_op_raises(self, backend, size):
        def prog(comm):
            with pytest.raises(ValueError, match="unknown reduction"):
                comm.allreduce(1.0, op="median")
            return True

        assert all(run_spmd(backend, size, prog))


class TestBarrier:
    @pytest.mark.parametrize("backend", WITH_MPI4PY)
    def test_barrier_synchronizes(self, backend):
        def prog(comm):
            import time

            if comm.rank == 0:
                time.sleep(0.05)
            comm.barrier()
            return True

        assert run_spmd(backend, 3, prog) == [True] * 3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rank_missing_from_barrier_is_named(self, backend):
        def prog(comm):
            if comm.rank == 1:
                return None  # never reaches the barrier
            comm.barrier()
            return True

        recv_timeout = 0.5
        t0 = time.monotonic()
        with pytest.raises(RankError, match=r"rank\(s\) 1 never arrived"):
            run_spmd(backend, 3, prog, recv_timeout=recv_timeout, join_timeout=60.0)
        assert time.monotonic() - t0 < recv_timeout + 2.0


@pytest.mark.parametrize("backend", BACKENDS)
class TestFailures:
    def test_worker_exception_propagates_with_rank(self, backend):
        def prog(comm):
            if comm.rank == 2:
                raise ValueError("boom on rank 2")
            comm.barrier()
            return comm.rank

        with pytest.raises(RankError, match="rank 2"):
            run_spmd(backend, 3, prog, recv_timeout=30.0)

    @pytest.mark.parametrize("culprit", [0, 1])
    def test_failing_rank_is_named_not_the_unwind(self, backend, culprit):
        # the other rank is blocked in recv when the culprit raises: its
        # "another rank failed" unwind must not be what the run reports
        def prog(comm):
            if comm.rank == culprit:
                time.sleep(0.2)
                raise ValueError(f"boom on rank {culprit}")
            return comm.recv(culprit, tag=1)

        with pytest.raises(RankError) as err:
            run_spmd(backend, 2, prog, recv_timeout=30.0)
        first_line = str(err.value).splitlines()[0]
        assert re.match(rf"rank {culprit} failed: .*ValueError.*boom on rank {culprit}", first_line)

    def test_stuck_rank_is_named(self, backend):
        def prog(comm):
            if comm.rank == 1:
                time.sleep(10)  # stuck outside any receive
            return comm.rank

        t0 = time.monotonic()
        with pytest.raises(RankError, match=r"rank\(s\) 1"):
            run_spmd(backend, 2, prog, recv_timeout=5.0, join_timeout=1.5)
        assert time.monotonic() - t0 < 8.0


class TestMPI4PyAdapter:
    """The two mpi4py sharp edges ``MPI4PyComm`` flattens, on the fake MPI."""

    @staticmethod
    def _strip_of(nbytes):
        def prog(comm):
            other = 1 - comm.rank
            req = comm.irecv(other, tag=("phi", 0, -1))
            comm.send(np.full(nbytes // 8, float(comm.rank)), other, tag=("phi", 0, -1))
            return float(req.wait().sum())

        return prog

    def test_rank_and_size_are_the_worlds(self):
        def prog(comm):
            return comm.rank, comm.size, comm.Get_rank(), comm.Get_size()

        assert run_mpi4py(2, prog) == [(0, 2, 0, 2), (1, 2, 1, 2)]

    def test_irecv_is_presized_past_the_mpi4py_default(self):
        # a 1 MiB ghost strip, far past mpi4py's ~32 KiB default irecv buffer
        assert run_mpi4py(2, self._strip_of(2**20)) == [2**17, 0.0]

    def test_irecv_takes_a_message_of_any_size(self):
        # past any buffer an irecv could be posted with ahead of the message
        n = 17 * 2**20 // 8
        assert run_mpi4py(2, self._strip_of(17 * 2**20)) == [float(n), 0.0]

    def test_bool_and_negative_tags_fold_to_distinct_valid_tags(self):
        # received in the reverse order: a tag that aliased another, or
        # reached MPI unfolded (negative), would swap or refuse a message
        tags = [True, 1, False, 0, -1, -2, ("phi", 0, -1)]

        def prog(comm):
            other = 1 - comm.rank
            for tag in tags:
                comm.send(repr(tag), other, tag=tag)
            return [comm.recv(other, tag=tag) for tag in reversed(tags)]

        expected = [repr(tag) for tag in reversed(tags)]
        assert run_mpi4py(2, prog) == [expected, expected]

    def test_the_fake_refuses_what_mpi_refuses(self):
        # so the cases above would fail on an adapter that passed these through
        def prog(comm):
            fake = FakeMPIComm(comm)
            with pytest.raises(FakeMPIException, match="MPI_ERR_TAG"):
                fake.send("x", 1 - comm.rank, tag=-1)
            with pytest.raises(TypeError):
                fake.send("x", 1 - comm.rank, tag=("phi", 0))
            fake.send("bool", 1 - comm.rank, tag=True)
            fake.send("int", 1 - comm.rank, tag=1)
            return fake.recv(1 - comm.rank, tag=1)

        assert run_ranks(2, prog) == ["bool", "bool"]


@pytest.mark.skipif(not mpi4py_available(), reason="mpi4py not installed")
class TestMPI4PySelfConformance:
    """Single-rank subset on COMM_SELF (pytest is a 1-rank MPI world)."""

    @pytest.fixture()
    def comm(self):
        from mpi4py import MPI

        from repro.parallel.mpi_adapter import MPI4PyComm

        return MPI4PyComm(MPI.COMM_SELF)

    def test_rank_and_size(self, comm):
        assert comm.rank == 0
        assert comm.size == 1

    def test_self_send_recv(self, comm):
        data = np.arange(6, dtype=np.float64)
        comm.send(data, 0, tag=("phi", 0, -1))
        data[:] = -1.0
        got = comm.recv(0, tag=("phi", 0, -1))
        assert got.tolist() == list(range(6))

    def test_sendrecv_self(self, comm):
        assert comm.sendrecv("x", dest=0, source=0) == "x"

    def test_collectives_size_one(self, comm):
        assert comm.bcast("data") == "data"
        assert comm.gather(5) == [5]
        assert comm.allgather("a") == ["a"]
        assert comm.allreduce(2.5) == 2.5

    def test_large_irecv_roundtrip(self, comm):
        # mpi4py's default pickled-irecv buffer is ~32 KiB; the adapter
        # pre-sizes it, so a real ghost-layer-scale array must round-trip
        big = np.random.default_rng(0).random((512, 512))  # 2 MiB
        comm.send(big, 0, tag=1)
        req = comm.irecv(0, tag=1)
        got = req.wait()
        np.testing.assert_array_equal(got, big)
