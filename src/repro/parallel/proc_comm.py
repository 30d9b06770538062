"""Real-parallel rank runtime: process-backed communicator, shared-memory ghosts.

:func:`repro.parallel.mpi_sim.run_ranks` executes the SPMD protocol on
rank-stepped *threads* of one GIL-bound process — perfect for correctness,
useless for wall-clock scaling.  This module runs the same communicator
contract (:class:`~repro.parallel.mpi_sim.Communicator`: value semantics,
receive deadlines, barrier, failure propagation, collectives) on real OS
processes; only the transport differs:

* every rank is a forked ``multiprocessing`` worker (true cores, private
  GIL, inherited closures/compiled-kernel cache — no pickling of the rank
  program);
* bulk array payloads (ghost strips) travel through per-``(src, dst)``
  ``multiprocessing.shared_memory`` slabs: the
  sender parks each array in its slab with a bump allocator, the receiver
  copies it out and acknowledges the bytes so the slab recycles — one copy
  in, one copy out, no pickling of the hot data;
* small control messages (tags, templates, non-array objects) travel over
  per-pair duplex pipes, which also carry the slab acknowledgements and —
  crucially — provide the happens-before edge: a receiver only reads a slab
  region after the descriptor naming it arrived through the pipe;
* a receive on a peer that has exited, with nothing left in its pipe, fails
  at once instead of at the deadline.

Per-rank outcomes go through the same collector as the simulator's, so a
failed run is named the same way on both: stuck ranks (terminated here),
else the originating failure, with post-mortem bundles attached.

:func:`launch_ranks` is the uniform front-end over the three runtimes::

    launch_ranks(4, program, backend="sim")      # threads, one process
    launch_ranks(4, program, backend="process")  # real cores, this module
    launch_ranks(4, program, backend="mpi4py")   # under mpirun -n 4

Caveats of the process backend: it requires the ``fork`` start method
(rank programs may be closures over unpicklable kernel objects), and ranks
must be launched *before* the parent process runs any OpenMP parallel
region — libgomp's thread pool does not survive a fork.  A rank's OpenMP
thread count is the parent's: libgomp reads ``OMP_NUM_THREADS`` at the
parent's first ``dlopen`` and the forked workers inherit that state, so
export it before the parent process starts, as ``tests/conftest.py`` and
the benchmark workers do.
"""

from __future__ import annotations

import math
import queue
import threading
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from time import monotonic
from typing import Any, Callable

import numpy as np

from .mpi_sim import (
    _JOIN_TIMEOUT,
    _RECV_TIMEOUT,
    Communicator,
    RankError,
    _collect,
    _failure,
    _map_leaves,
    _Run,
    run_ranks,
)

__all__ = [
    "ProcComm",
    "launch_ranks",
    "run_ranks_processes",
    "process_backend_available",
]

#: per-(src, dst) shared-memory slab size; /dev/shm pages materialize only
#: when written, so this is a ceiling, not an allocation
_DEFAULT_SLAB_BYTES = 16 * 2**20

#: arrays below this travel pickled through the pipe (descriptor overhead
#: would exceed the copy)
_SHM_MIN_BYTES = 1024

#: slab offsets are 16-byte aligned so float64/complex payloads map cleanly
_ALIGN = 16


def process_backend_available() -> bool:
    """Whether this platform can run the process backend (fork + shm)."""
    import multiprocessing as mp

    if "fork" not in mp.get_all_start_methods():
        return False
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:
        return False
    return True


@dataclass
class _ShmRef:
    """Descriptor for an ndarray parked in the sender's shared-memory slab."""

    offset: int
    shape: tuple
    dtype: str
    reserved: int  # aligned byte count to acknowledge back


class _SlabWriter:
    """Bump allocator over one sender→receiver shared-memory segment.

    Only the sender allocates; the receiver acknowledges consumed bytes over
    the duplex control pipe.  Because messages are produced and consumed in
    the tight per-step rhythm of the ghost exchange, ``in_use`` returns to
    zero constantly and the allocator simply rewinds — no free-list needed.
    A payload that cannot be placed before *timeout* (slab full, receiver
    not draining) falls back to the pickle pipe, so the slab size bounds
    performance, never correctness.
    """

    def __init__(self, shm, ack_conn, timeout: float):
        self.shm = shm
        self.capacity = shm.size
        self.offset = 0
        self.in_use = 0
        self.ack_conn = ack_conn
        self.timeout = float(timeout)
        self._ack_eof = False

    def _consume_acks(self, block_s: float = 0.0) -> bool:
        if self._ack_eof:
            return False
        got = False
        try:
            while self.ack_conn.poll(block_s):
                self.in_use -= int(self.ack_conn.recv())
                got = True
                block_s = 0.0
        except (EOFError, OSError):
            # receiver exited; outstanding regions will never be acked —
            # alloc falls back to the pipe, whose send reports the dead peer
            self._ack_eof = True
        if self.in_use <= 0:
            self.in_use = 0
            self.offset = 0
        return got

    def alloc(self, need: int) -> int | None:
        if need > self.capacity:
            return None
        self._consume_acks()
        if self.offset + need > self.capacity:
            deadline = monotonic() + self.timeout
            while self.offset + need > self.capacity:
                if self._ack_eof:
                    return None
                self._consume_acks(block_s=min(0.2, self.timeout))
                if self.offset + need <= self.capacity:
                    break
                if monotonic() >= deadline:
                    return None  # caller falls back to the pipe
        off = self.offset
        self.offset += need
        self.in_use += need
        return off

    def park(self, arr: np.ndarray) -> _ShmRef | np.ndarray:
        """Copy *arr* into the slab and return its descriptor.

        A small array, or one the slab has no room for, gets a private copy
        instead, which the pipe pickles later: either way the values are
        fixed now, at send time.
        """
        need = (arr.nbytes + _ALIGN - 1) & ~(_ALIGN - 1)
        off = self.alloc(need) if arr.nbytes >= _SHM_MIN_BYTES else None
        if off is None:
            return arr.copy()
        view = np.frombuffer(self.shm.buf, dtype=arr.dtype, count=arr.size, offset=off)
        view.reshape(arr.shape)[...] = arr
        return _ShmRef(off, arr.shape, arr.dtype.str, need)


def _materialize(template: Any, shm) -> tuple[Any, int]:
    """Rebuild the message, copying slab-parked arrays out; returns freed bytes."""
    freed = 0

    def read(ref: _ShmRef) -> np.ndarray:
        nonlocal freed
        freed += ref.reserved
        src = np.frombuffer(
            shm.buf, dtype=np.dtype(ref.dtype), count=math.prod(ref.shape), offset=ref.offset
        )
        return src.reshape(ref.shape).copy()

    return _map_leaves(template, _ShmRef, read), freed


#: sentinel closing a communicator's sender thread
_STOP = object()


@dataclass
class _Peer:
    """One rank's endpoints toward a single other rank."""

    data_out: Any      # my data messages out; peer's slab acks back
    data_in: Any       # peer's data messages in; my slab acks back
    slab: _SlabWriter  # shared-memory slab me → peer
    shm_in: Any        # shared-memory segment peer → me
    gone: bool = False  # data_in hit EOF: the peer exited (buffered
    #                     messages were all drained first — socket data
    #                     outlives the writer, so EOF is not an error until
    #                     a receive wants a message that never arrived)


class ProcComm(Communicator):
    """A forked rank's communicator: messages move through pipes and slabs."""

    def __init__(self, rank: int, run: _Run, peers: dict[int, _Peer]):
        super().__init__(rank, run)
        self._peers = peers
        #: per-source buffered messages whose tag did not match a pending recv
        self._inbox: dict[int, dict[Any, deque]] = {j: {} for j in peers}
        # pipe writes happen on a dedicated thread so `send` is buffered and
        # never blocks the rank program, as the contract requires — two
        # ranks sending large pipe-fallback payloads head-to-head must not
        # deadlock on the kernel pipe buffer.  Slab packing stays in the
        # caller: the slab write completes before the descriptor is queued,
        # which preserves the happens-before edge through the pipe.
        self._outq: queue.SimpleQueue = queue.SimpleQueue()
        self._send_failures: list[tuple[int, BaseException]] = []
        self._sender = threading.Thread(
            target=self._sender_loop, name=f"procsend-{self.rank}", daemon=True
        )
        self._sender.start()

    def _sender_loop(self) -> None:
        while True:
            item = self._outq.get()
            if item is _STOP:
                return
            dest, payload = item
            try:
                self._peers[dest].data_out.send(payload)
            except (BrokenPipeError, OSError) as exc:
                self._run.failed.set()
                self._send_failures.append((dest, exc))

    def _flush_sends(self, timeout: float) -> bool:
        """Drain the outbound queue before the rank reports its result."""
        self._outq.put(_STOP)
        self._sender.join(timeout=timeout)
        return not self._sender.is_alive()

    def _put(self, dest: int, tag: Any, obj: Any) -> None:
        template = _map_leaves(obj, np.ndarray, self._peers[dest].slab.park)
        if self._send_failures:
            lost, exc = self._send_failures[0]
            raise RankError(
                f"send to rank {lost} failed: peer is gone ({exc})"
            ) from exc
        self._outq.put((dest, (tag, template)))

    def _drain(self, source: int, block_s: float = 0.0) -> None:
        """Move every available message from *source* into the inbox.

        Materializes slab payloads immediately (freeing the peer's slab via
        an ack on the duplex pipe) so a sender never waits on a receiver
        that is merely polling a different tag.
        """
        peer = self._peers[source]
        if peer.gone:
            return
        inbox = self._inbox[source]
        while True:
            try:
                if not peer.data_in.poll(block_s):
                    return
                tag, template = peer.data_in.recv()
            except (EOFError, OSError):
                peer.gone = True
                return
            value, freed = _materialize(template, peer.shm_in)
            if freed:
                try:
                    peer.data_in.send(freed)
                except (BrokenPipeError, OSError):
                    pass  # peer already gone; its slab no longer matters
            inbox.setdefault(tag, deque()).append(value)
            block_s = 0.0

    def _take(self, source: int, tag: Any, wait_s: float) -> tuple[bool, Any]:
        # inbox first: the wanted message may have been drained already
        # (while receiving an earlier tag) — a blocking poll here would wait
        # a full period for *new* pipe data that never needs to come
        inbox = self._inbox[source]
        if not inbox.get(tag):
            self._drain(source, block_s=wait_s)
        q = inbox.get(tag)
        if q:
            return True, q.popleft()
        if self._peers[source].gone and not self._run.failed.is_set():
            # the sender exited and every buffered message was drained: this
            # message can never arrive — the timeout's diagnosis, known now
            self._fail()
            raise RankError(
                f"rank {source} exited with no matching send "
                f"(source={source}, dest={self.rank}, tag={tag!r}) — "
                f"likely deadlock or protocol mismatch"
            )
        return False, None


# -- the SPMD process runner ------------------------------------------------------


def _worker(rank, func, args, kwargs, run, pipes, shms, result_pipes):
    # close inherited endpoints that belong to other ranks (or the parent):
    # without this, a dead rank's pipes never reach EOF because every
    # sibling still holds a copy of its file descriptors
    result_conn = result_pipes[rank][1]
    for r, (parent_end, child_end) in enumerate(result_pipes):
        parent_end.close()
        if r != rank:
            child_end.close()
    for (i, j), (end_i, end_j) in pipes.items():
        if i == rank:
            end_j.close()
        elif j == rank:
            end_i.close()
        else:
            end_i.close()
            end_j.close()
    peers: dict[int, _Peer] = {}
    for j in range(run.size):
        if j == rank:
            continue
        peers[j] = _Peer(
            data_out=pipes[(rank, j)][0],
            data_in=pipes[(j, rank)][1],
            slab=_SlabWriter(
                shms[(rank, j)], ack_conn=pipes[(rank, j)][0], timeout=run.recv_timeout
            ),
            shm_in=shms[(j, rank)],
        )
    comm = ProcComm(rank, run, peers)
    try:
        outcome = (True, func(comm, *args, **kwargs))
    except BaseException as exc:  # noqa: BLE001 - reported by the parent
        # the post-mortem rides the result pipe to the parent: a bare
        # "rank 3 failed" becomes a bundle naming the step, the last kernel
        # dispatched and the field state at death
        outcome = _failure(comm, exc)
    # buffered sends a peer has not yet consumed must survive this rank's
    # exit (MPI buffered-send semantics): drain the sender thread before
    # reporting — socketpair data stays readable after the writer exits
    comm._flush_sends(timeout=min(run.recv_timeout, 30.0))
    try:
        result_conn.send(outcome)
    except Exception:
        run.failed.set()
        try:
            result_conn.send((False, "produced a result that cannot be pickled", None))
        except Exception:
            pass
    finally:
        try:
            result_conn.close()
        except Exception:
            pass
        for shm in shms.values():
            try:
                shm.close()
            except Exception:
                pass


def run_ranks_processes(
    size: int,
    func: Callable[..., Any],
    *args,
    recv_timeout: float = _RECV_TIMEOUT,
    join_timeout: float = _JOIN_TIMEOUT,
    rundir=None,
    **kwargs,
) -> list:
    """Run ``func(comm, *args, **kwargs)`` on *size* real-process ranks.

    The drop-in counterpart of :func:`repro.parallel.mpi_sim.run_ranks`
    with true multi-core execution: the same communicator contract, the
    same return value, and a failed run raises the same :class:`RankError`
    — ranks still running after *join_timeout* are terminated and named.
    A dying worker captures its post-mortem bundle (last events, open
    spans, field stats — see :mod:`repro.observability.postmortem`) and
    pickles it back over its result pipe; the bundles are attached to the
    error and written to *rundir*, as on the simulator.

    Requires the ``fork`` start method: rank programs are typically
    closures over kernel sets and forests that never need to pickle, and a
    warm compiled-kernel cache in the parent is inherited for free.  Fork
    the ranks *before* running OpenMP parallel regions in the parent.
    """
    if size < 1:
        raise ValueError("need at least one rank")
    if not process_backend_available():
        raise RuntimeError(
            "process backend unavailable: needs the 'fork' start method and "
            "multiprocessing.shared_memory"
        )
    import multiprocessing as mp
    from multiprocessing import shared_memory

    ctx = mp.get_context("fork")
    pipes: dict[tuple, tuple] = {}
    shms: dict[tuple, Any] = {}
    procs: list = []
    result_pipes = [ctx.Pipe(duplex=False) for _ in range(size)]
    try:
        for i in range(size):
            for j in range(size):
                if i != j:
                    pipes[(i, j)] = ctx.Pipe(duplex=True)
                    shms[(i, j)] = shared_memory.SharedMemory(
                        create=True, size=_DEFAULT_SLAB_BYTES
                    )
        run = _Run(size, recv_timeout, ctx)
        procs = [
            ctx.Process(
                target=_worker,
                args=(rank, func, args, kwargs, run, pipes, shms, result_pipes),
                name=f"procrank-{rank}",
                daemon=True,
            )
            for rank in range(size)
        ]
        for p in procs:
            p.start()
        # drop the parent's copies of the rank-to-rank endpoints and the
        # workers' result ends, so EOFs propagate
        for end_i, end_j in pipes.values():
            end_i.close()
            end_j.close()
        for _parent_end, child_end in result_pipes:
            child_end.close()

        outcomes: list = [None] * size
        remaining = {result_pipes[r][0]: r for r in range(size)}
        deadline = monotonic() + join_timeout
        while remaining:
            timeout = deadline - monotonic()
            if timeout <= 0:
                break
            ready = mp_connection.wait(list(remaining), timeout=timeout)
            if not ready:
                break
            for conn in ready:
                r = remaining.pop(conn)
                try:
                    outcomes[r] = conn.recv()
                except (EOFError, OSError):
                    outcomes[r] = (False, "exited without a result", None)
        if remaining:
            run.failed.set()
            for r in remaining.values():
                procs[r].terminate()
        for p in procs:
            p.join(timeout=30)
        return _collect(outcomes, join_timeout, rundir)
    finally:
        for p in procs:
            if p.is_alive():
                p.kill()
                p.join(timeout=5)
        for parent_end, child_end in result_pipes:
            for end in (parent_end, child_end):
                try:
                    end.close()
                except Exception:
                    pass
        for shm in shms.values():
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:
                pass
            except Exception:
                pass


def launch_ranks(
    size: int,
    func: Callable[..., Any],
    *args,
    backend: str = "sim",
    recv_timeout: float = _RECV_TIMEOUT,
    join_timeout: float = _JOIN_TIMEOUT,
    rundir=None,
    **kwargs,
) -> list:
    """Run an SPMD rank program on the chosen runtime; one call, three backends.

    * ``backend="sim"`` — rank-stepped threads in this process
      (:func:`~repro.parallel.mpi_sim.run_ranks`).
    * ``backend="process"`` — real OS processes with shared-memory ghost
      buffers (:func:`run_ranks_processes`); true multi-core wall clock.
    * ``backend="mpi4py"`` — the already-running MPI world: the script must
      execute under ``mpirun -n <size>``; every rank calls its program on a
      hardened :class:`~repro.parallel.mpi_adapter.MPI4PyComm` and the
      per-rank results are allgathered so the return value matches the
      other backends (the full list, on every rank).

    Returns the list of per-rank results; rank failures raise
    :class:`~repro.parallel.mpi_sim.RankError` on every backend.  With a
    *rundir* (or an ambient one from :class:`repro.observability.RunDir`'s
    context manager), the sim and process backends write crash post-mortem
    bundles to ``<rundir>/postmortem.json``; the mpi4py backend does not —
    a crashed MPI rank is torn down by ``mpirun`` before any capture hop.
    """
    if backend == "sim":
        return run_ranks(
            size, func, *args,
            recv_timeout=recv_timeout, join_timeout=join_timeout,
            rundir=rundir, **kwargs,
        )
    if backend == "process":
        return run_ranks_processes(
            size, func, *args,
            recv_timeout=recv_timeout, join_timeout=join_timeout,
            rundir=rundir, **kwargs,
        )
    if backend == "mpi4py":
        from .mpi_adapter import MPI4PyComm, mpi4py_available

        if not mpi4py_available():
            raise RuntimeError(
                "backend='mpi4py' requested but mpi4py is not installed"
            )
        comm = MPI4PyComm()
        if comm.size != size:
            raise RuntimeError(
                f"launched under {comm.size} MPI rank(s) but {size} requested; "
                f"run under `mpirun -n {size}`"
            )
        result = func(comm, *args, **kwargs)
        return comm.allgather(result)
    raise ValueError(
        f"unknown backend {backend!r}; expected 'sim', 'process' or 'mpi4py'"
    )
