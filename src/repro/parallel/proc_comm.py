"""Real-parallel rank runtime: process-backed communicator, shared-memory ghosts.

:func:`repro.parallel.mpi_sim.run_ranks` executes the SPMD protocol on
rank-stepped *threads* of one GIL-bound process — perfect for correctness,
useless for wall-clock scaling.  This module graduates the same communicator
interface to real OS processes:

* every rank is a forked ``multiprocessing`` worker (true cores, private
  GIL, inherited closures/compiled-kernel cache — no pickling of the rank
  program);
* bulk array payloads (ghost strips, aggregated exchange bundles) travel
  through per-``(src, dst)`` ``multiprocessing.shared_memory`` slabs: the
  sender parks each array in its slab with a bump allocator, the receiver
  copies it out and acknowledges the bytes so the slab recycles — one copy
  in, one copy out, no pickling of the hot data;
* small control messages (tags, templates, non-array objects) travel over
  per-pair duplex pipes, which also carry the slab acknowledgements and —
  crucially — provide the happens-before edge: a receiver only reads a slab
  region after the descriptor naming it arrived through the pipe;
* collectives come from :class:`~repro.parallel.mpi_sim.CollectiveOps`, so
  the message pattern and rank-ordered reduction are *identical* to the
  simulator — distributed diagnostics stay bit-identical across backends.

Failure semantics mirror the simulator: blocking receives carry a deadline
and raise :class:`~repro.parallel.mpi_sim.RankError` naming the
``(source, dest, tag)`` channel; a failed rank sets a shared event that
unblocks every other rank's receive; the parent bounds the whole run with
*join_timeout* and terminates + names stuck ranks instead of hanging.

:func:`launch_ranks` is the uniform front-end over the three runtimes::

    launch_ranks(4, program, backend="sim")      # threads, one process
    launch_ranks(4, program, backend="process")  # real cores, this module
    launch_ranks(4, program, backend="mpi4py")   # under mpirun -n 4

Caveats of the process backend: it requires the ``fork`` start method
(rank programs may be closures over unpicklable kernel objects), and ranks
must be launched *before* the parent process runs any OpenMP parallel
region — libgomp's thread pool does not survive a fork.
``env={"OMP_NUM_THREADS": ...}`` does NOT bound a rank's threads once the
parent has loaded a compiled kernel: libgomp reads its settings at the
parent's first ``dlopen``, and the forked workers inherit them (measured,
ROADMAP item 2 — open; threads as a kernel argument is the planned fix).
Until then export ``OMP_NUM_THREADS`` before the parent process starts, as
``tests/conftest.py`` and the benchmark workers do.
"""

from __future__ import annotations

import os
import queue
import threading
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from time import monotonic
from typing import Any, Callable

import numpy as np

from .mpi_sim import _JOIN_TIMEOUT, _RECV_TIMEOUT, CollectiveOps, RankError, Request, run_ranks

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

    def alloc(self, nbytes: int) -> int | None:
        need = (nbytes + _ALIGN - 1) & ~(_ALIGN - 1)
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

    def write(self, arr: np.ndarray) -> _ShmRef | None:
        data = np.ascontiguousarray(arr)
        off = self.alloc(data.nbytes)
        if off is None:
            return None
        view = np.frombuffer(
            self.shm.buf, dtype=data.dtype, count=data.size, offset=off
        ).reshape(data.shape)
        view[...] = data
        need = (data.nbytes + _ALIGN - 1) & ~(_ALIGN - 1)
        return _ShmRef(off, data.shape, data.dtype.str, need)


def _pack(obj: Any, slab: _SlabWriter | None) -> Any:
    """Copy large ndarrays in *obj* into the slab, returning the template.

    Recurses through tuples/lists/dicts (the shapes the exchange protocol
    sends); anything else passes through and is pickled by the pipe.  Small
    arrays are copied (value semantics) and pickled.
    """
    if isinstance(obj, np.ndarray):
        if slab is not None and obj.nbytes >= _SHM_MIN_BYTES:
            ref = slab.write(obj)
            if ref is not None:
                return ref
        # a real copy, not ascontiguousarray (which aliases contiguous
        # input): the pipe pickles on the sender thread, after send() has
        # returned — value semantics must be fixed at send time
        return np.array(obj, order="C", copy=True)
    if isinstance(obj, tuple):
        return tuple(_pack(v, slab) for v in obj)
    if isinstance(obj, list):
        return [_pack(v, slab) for v in obj]
    if isinstance(obj, dict):
        return {k: _pack(v, slab) for k, v in obj.items()}
    return obj


def _materialize(template: Any, shm) -> tuple[Any, int]:
    """Rebuild the object, copying slab-parked arrays out; returns freed bytes."""
    freed = 0

    def walk(x):
        nonlocal freed
        if isinstance(x, _ShmRef):
            freed += x.reserved
            dtype = np.dtype(x.dtype)
            count = int(np.prod(x.shape, dtype=np.int64)) if x.shape else 1
            src = np.frombuffer(shm.buf, dtype=dtype, count=count, offset=x.offset)
            return src.reshape(x.shape).copy()
        if isinstance(x, tuple):
            return tuple(walk(v) for v in x)
        if isinstance(x, list):
            return [walk(v) for v in x]
        if isinstance(x, dict):
            return {k: walk(v) for k, v in x.items()}
        return x

    return walk(template), freed


def _copy_value(obj: Any) -> Any:
    """Value semantics for self-transfers (arrays copied, rest shared)."""
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, tuple):
        return tuple(_copy_value(v) for v in obj)
    if isinstance(obj, list):
        return [_copy_value(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _copy_value(v) for k, v in obj.items()}
    return obj


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


class ProcComm(CollectiveOps):
    """``SimComm``-compatible communicator over processes + shared memory."""

    def __init__(self, rank, size, peers, barrier, failed, recv_timeout):
        self.rank = int(rank)
        self._size = int(size)
        self._peers: dict[int, _Peer] = peers
        self._barrier = barrier
        self._failed = failed
        self._recv_timeout = float(recv_timeout)
        self._self_queues: dict[Any, deque] = {}
        #: per-source buffered messages whose tag did not match a pending recv
        self._inbox: dict[int, dict[Any, deque]] = {j: {} for j in peers}
        # pipe writes happen on a dedicated thread so `send` is buffered and
        # never blocks the rank program, matching SimComm semantics — two
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

    @property
    def size(self) -> int:
        return self._size

    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.size

    # -- point to point --------------------------------------------------------

    def _sender_loop(self) -> None:
        while True:
            item = self._outq.get()
            if item is _STOP:
                return
            dest, payload = item
            try:
                self._peers[dest].data_out.send(payload)
            except (BrokenPipeError, OSError) as exc:
                self._failed.set()
                self._send_failures.append((dest, exc))

    def _flush_sends(self, timeout: float) -> bool:
        """Drain the outbound queue before the rank reports its result."""
        self._outq.put(_STOP)
        self._sender.join(timeout=timeout)
        return not self._sender.is_alive()

    def _check_rank(self, rank: int, role: str) -> None:
        if not 0 <= rank < self._size:
            raise ValueError(f"invalid {role} rank {rank}")

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_rank(dest, "destination")
        if dest == self.rank:
            self._self_queues.setdefault(tag, deque()).append(_copy_value(obj))
            return
        peer = self._peers[dest]
        template = _pack(obj, peer.slab)
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

    def _try_recv(self, source: int, tag: int) -> tuple[bool, Any]:
        """Non-blocking probe for a matching message; never waits."""
        if source == self.rank:
            q = self._self_queues.get(tag)
            if q:
                return True, q.popleft()
            return False, None
        self._drain(source)
        q = self._inbox[source].get(tag)
        if q:
            return True, q.popleft()
        return False, None

    def recv(self, source: int, tag: int = 0) -> Any:
        self._check_rank(source, "source")
        if source == self.rank:
            q = self._self_queues.get(tag)
            if not q:
                raise RankError(
                    f"recv from self with no buffered send "
                    f"(source={source}, dest={self.rank}, tag={tag!r}) — "
                    f"immediate deadlock"
                )
            return q.popleft()
        timeout = self._recv_timeout
        deadline = monotonic() + timeout
        poll = min(0.2, max(timeout / 20.0, 0.005))
        inbox = self._inbox[source]
        first = True
        while True:
            # inbox first: the wanted message may have been drained already
            # (while receiving an earlier tag) — a blocking poll here would
            # wait a full period for *new* pipe data that never needs to come
            q = inbox.get(tag)
            if q:
                return q.popleft()
            self._drain(source, block_s=0.0 if first else poll)
            first = False
            q = inbox.get(tag)
            if q:
                return q.popleft()
            if self._peers[source].gone:
                # the sender exited and every buffered message was drained:
                # this message can never arrive — same diagnosis as a
                # timeout, just known immediately
                self._failed.set()
                raise RankError(
                    f"rank {source} exited with no matching send "
                    f"(source={source}, dest={self.rank}, tag={tag!r}) — "
                    f"likely deadlock or protocol mismatch"
                )
            if self._failed.is_set():
                raise RankError("another rank failed during recv")
            if monotonic() >= deadline:
                self._failed.set()
                try:
                    self._barrier.abort()
                except Exception:
                    pass
                raise RankError(
                    f"recv timed out after {timeout:g} s "
                    f"(source={source}, dest={self.rank}, tag={tag!r}) — "
                    f"no matching send; likely deadlock"
                )

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        self.send(obj, dest, tag)  # slab/pipe-buffered: completes immediately
        return Request(lambda: None, _done=True)

    def irecv(self, source: int, tag: int = 0) -> Request:
        return Request(
            lambda: self.recv(source, tag),
            _poll=lambda: self._try_recv(source, tag),
        )

    # -- collectives (pattern inherited from CollectiveOps) --------------------

    def barrier(self) -> None:
        try:
            self._barrier.wait(timeout=self._recv_timeout)
        except threading.BrokenBarrierError:
            self._failed.set()
            raise RankError(
                f"barrier broken on rank {self.rank} — another rank failed "
                f"or timed out"
            ) from None


# -- the SPMD process runner ------------------------------------------------------


def _write_postmortems(postmortems: dict, rundir=None) -> str | None:
    """Write the combined multi-rank ``postmortem.json``; never raises.

    Targets *rundir* (explicit), else the ambient run directory, else
    nothing.  The document wraps per-rank bundles:
    ``{"schema": "repro-postmortem/1", "ranks": {"3": {...}}}``.
    """
    try:
        from ..observability.postmortem import POSTMORTEM_SCHEMA, write_postmortem
        from ..observability.rundir import get_rundir

        rundir = rundir if rundir is not None else get_rundir()
        if rundir is None:
            return None
        document = {
            "schema": POSTMORTEM_SCHEMA,
            "ranks": {str(rank): bundle for rank, bundle in sorted(postmortems.items())},
        }
        return write_postmortem(document, rundir.postmortem_path)
    except Exception:
        return None  # forensics must never mask the RankError being raised


def _worker(rank, size, func, args, kwargs, pipes, shms, result_pipes,
            barrier, failed, recv_timeout, env):
    if env:
        os.environ.update({k: str(v) for k, v in env.items()})
    # close inherited endpoints that belong to other ranks (or the parent):
    # without this, a dead rank's pipes never reach EOF because every
    # sibling still holds a copy of its file descriptors
    result_conn = result_pipes[rank][1]
    for r, (parent_end, child_end) in enumerate(result_pipes):
        parent_end.close()
        if r != rank:
            child_end.close()
    peers: dict[int, _Peer] = {}
    for (i, j), (end_i, end_j) in pipes.items():
        if i == rank:
            end_j.close()
        elif j == rank:
            end_i.close()
        else:
            end_i.close()
            end_j.close()
    for j in range(size):
        if j == rank:
            continue
        peers[j] = _Peer(
            data_out=pipes[(rank, j)][0],
            data_in=pipes[(j, rank)][1],
            slab=_SlabWriter(
                shms[(rank, j)], ack_conn=pipes[(rank, j)][0], timeout=recv_timeout
            ),
            shm_in=shms[(j, rank)],
        )
    comm = ProcComm(rank, size, peers, barrier, failed, recv_timeout)
    try:
        result = func(comm, *args, **kwargs)
        status = ("ok", result)
    except BaseException as exc:  # noqa: BLE001 - serialized to the parent
        failed.set()
        try:
            barrier.abort()
        except Exception:
            pass
        # the dying rank's forensics ride the result pipe to the parent:
        # a bare "rank 3 failed" becomes a bundle naming the step, the
        # last kernel dispatched and the field state at death
        try:
            from ..observability.postmortem import capture_postmortem

            bundle = capture_postmortem(exc, rank=rank)
        except Exception:
            bundle = None
        status = (
            "error", f"{type(exc).__name__}: {exc}", traceback.format_exc(), bundle
        )
    # buffered sends a peer has not yet consumed must survive this rank's
    # exit (MPI buffered-send semantics): drain the sender thread before
    # reporting — socketpair data stays readable after the writer exits
    comm._flush_sends(timeout=min(recv_timeout, 30.0))
    try:
        result_conn.send(status)
    except Exception:
        failed.set()
        try:
            result_conn.send(
                ("error", f"rank {rank} produced an unsendable result", "")
            )
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
    slab_bytes: int = _DEFAULT_SLAB_BYTES,
    env: dict | None = None,
    rundir=None,
    **kwargs,
) -> list:
    """Run ``func(comm, *args, **kwargs)`` on *size* real-process ranks.

    The drop-in counterpart of :func:`repro.parallel.mpi_sim.run_ranks`
    with true multi-core execution: returns the per-rank results, re-raises
    the first rank failure as a :class:`RankError`, and terminates + names
    ranks still running after *join_timeout*.  *slab_bytes* sizes each
    directed shared-memory ghost-buffer slab; *env* is applied inside every
    worker before the rank program runs (too late for ``OMP_NUM_THREADS``
    once the parent has loaded a kernel, see the module docstring).

    Crash forensics: a dying worker captures a post-mortem bundle (last
    events, open spans, field stats — see
    :mod:`repro.observability.postmortem`) and pickles it back over its
    result pipe.  The bundles are attached to the raised
    :class:`RankError` as ``exc.postmortems`` (``{rank: bundle}``) and —
    when *rundir* or the ambient :func:`repro.observability.rundir.get_rundir`
    is set — written as a combined ``postmortem.json``.

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
                        create=True, size=int(slab_bytes)
                    )
        barrier = ctx.Barrier(size)
        failed = ctx.Event()
        procs = [
            ctx.Process(
                target=_worker,
                args=(rank, size, func, args, kwargs, pipes, shms,
                      result_pipes, barrier, failed, recv_timeout, env),
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

        results: list = [None] * size
        errors: list[tuple[int, RankError]] = []
        postmortems: dict[int, dict] = {}
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
                    msg = conn.recv()
                except (EOFError, OSError):
                    errors.append(
                        (r, RankError(f"rank {r} exited without a result"))
                    )
                    continue
                if msg[0] == "ok":
                    results[r] = msg[1]
                else:
                    detail = msg[1] + (f"\n{msg[2]}" if msg[2] else "")
                    errors.append((r, RankError(detail)))
                    # the 4th element (when present) is the worker's
                    # post-mortem bundle; older 3-tuples stay accepted
                    if len(msg) > 3 and isinstance(msg[3], dict):
                        postmortems[r] = msg[3]
        if remaining:
            failed.set()
            stuck = sorted(remaining.values())
            for r in stuck:
                procs[r].terminate()
            raise RankError(
                f"rank(s) {', '.join(map(str, stuck))} still running after "
                f"{join_timeout:g} s — stuck or deadlocked; terminated"
            )
        for p in procs:
            p.join(timeout=30)
        if errors:
            errors.sort(key=lambda e: e[0])
            # prefer the originating failure over sympathetic
            # "another rank failed" unwinds
            rank, exc = next(
                (e for e in errors if "another rank failed" not in str(e[1])),
                errors[0],
            )
            if postmortems:
                _write_postmortems(postmortems, rundir)
            failure = RankError(f"rank {rank} failed: {exc}")
            failure.postmortems = postmortems
            raise failure from exc
        return results
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
    slab_bytes: int = _DEFAULT_SLAB_BYTES,
    env: dict | None = None,
    rundir=None,
    **kwargs,
) -> list:
    """Run an SPMD rank program on the chosen runtime; one call, three backends.

    * ``backend="sim"`` — rank-stepped threads in this process
      (:func:`~repro.parallel.mpi_sim.run_ranks`); *slab_bytes*/*env* are
      ignored.
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
            slab_bytes=slab_bytes, env=env, rundir=rundir, **kwargs,
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
