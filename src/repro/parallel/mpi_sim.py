"""The communicator contract, and the thread-backed runtime that keeps it.

The distributed-memory algorithms of :mod:`repro.parallel` are written
against one small mpi4py-style interface: blocking and non-blocking
point-to-point, a barrier, and the collectives the time loop needs.
:class:`Communicator` implements its semantics once; a rank runtime only
moves messages.  :func:`run_ranks` executes an SPMD function on N
in-process ranks whose transport is a set of per-channel FIFO queues — the
protocol (ghost exchange, reductions) runs *exactly* as it would under real
MPI, just inside one process, which keeps the paper's communication scheme
fully testable on a laptop.  :mod:`repro.parallel.proc_comm` runs the same
contract on forked processes.

The API follows the mpi4py tutorial conventions (lower-case = Python
objects).  A send has value semantics: every NumPy array in the message,
at any nesting depth through tuples, lists and dicts, is copied when
``send`` is called, so the sender may overwrite it at once and the receiver
owns what it gets.
"""

from __future__ import annotations

import queue
import threading
import traceback
from collections import deque
from dataclasses import dataclass
from time import monotonic
from typing import Any, Callable

import numpy as np

from ..observability.postmortem import POSTMORTEM_SCHEMA, capture_postmortem, write_postmortem
from ..observability.recorder import FlightRecorder, get_recorder, set_thread_recorder
from ..observability.rundir import get_rundir

__all__ = ["CollectiveOps", "Communicator", "SimComm", "Request", "run_ranks", "RankError"]

#: default deadline for a blocking receive and for the barrier — a rank
#: waiting longer than this on a peer that never comes is deadlocked, not slow
_RECV_TIMEOUT = 60.0

#: default deadline for the whole SPMD run — a rank still running past it
#: is stuck outside a receive (receives have their own deadline)
_JOIN_TIMEOUT = 300.0

#: how a rank that unwinds because another rank failed first says so
_SYMPATHETIC = "another rank failed"


class RankError(RuntimeError):
    """A failed SPMD run: names the rank, and the channel where there is one."""


def _map_leaves(obj: Any, kind: type, fn: Callable) -> Any:
    """*obj* with every *kind* instance replaced by ``fn(leaf)``.

    Recurses through tuples, lists and dicts (the shapes the exchange
    protocol sends); anything else is returned as it is.
    """
    if isinstance(obj, kind):
        return fn(obj)
    if isinstance(obj, tuple):
        return tuple(_map_leaves(v, kind, fn) for v in obj)
    if isinstance(obj, list):
        return [_map_leaves(v, kind, fn) for v in obj]
    if isinstance(obj, dict):
        return {k: _map_leaves(v, kind, fn) for k, v in obj.items()}
    return obj


def _copy_value(obj: Any) -> Any:
    """Value semantics at send time: every array in *obj* copied, the rest shared."""
    return _map_leaves(obj, np.ndarray, np.ndarray.copy)


@dataclass
class Request:
    """Handle for a non-blocking operation (mpi4py's ``isend``/``irecv``).

    ``wait()`` blocks until completion; ``test()`` is a true non-blocking
    probe via the *_poll* callable (returning ``(done, value)``) and never
    waits.  A request without a poll function (buffered sends) is complete
    from the start.
    """

    _result: Callable[[], Any]
    _poll: Callable[[], tuple[bool, Any]] | None = None
    _done: bool = False
    _value: Any = None

    def wait(self) -> Any:
        if not self._done:
            self._value = self._result()
            self._done = True
        return self._value

    def test(self) -> tuple[bool, Any]:
        if self._done:
            return True, self._value
        if self._poll is None:
            # no probe: the operation completed at creation (buffered send)
            return True, self.wait()
        done, value = self._poll()
        if done:
            self._value = value
            self._done = True
            return True, value
        return False, None


class CollectiveOps:
    """Collectives implemented over a backend's ``send``/``recv``/``barrier``.

    Shared by every :class:`Communicator` (threads and forked processes),
    so every backend executes the identical
    message pattern AND the identical (rank-ordered) reduction — summation
    order is what makes distributed diagnostics bit-identical across
    backends.  Negative tags are reserved for these collectives.
    """

    def sendrecv(self, obj: Any, dest: int, source: int, sendtag: int = 0, recvtag: int = 0) -> Any:
        self.send(obj, dest, sendtag)
        return self.recv(source, recvtag)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        if self.rank == root:
            for r in range(self.size):
                if r != root:
                    self.send(obj, r, tag=-1)
            return obj
        return self.recv(root, tag=-1)

    def gather(self, obj: Any, root: int = 0) -> list | None:
        self.send(obj, root, tag=-2)
        if self.rank != root:
            return None
        return [self.recv(r, tag=-2) for r in range(self.size)]

    def allgather(self, obj: Any) -> list:
        data = self.gather(obj, root=0)
        return self.bcast(data, root=0)

    def allreduce(self, value, op: str = "sum"):
        data = self.allgather(value)
        if op == "sum":
            total = data[0]
            for v in data[1:]:
                total = total + v
            return total
        if op == "max":
            return max(data)
        if op == "min":
            return min(data)
        raise ValueError(f"unknown reduction op {op!r}")


class _Run:
    """What the ranks of one SPMD run share: size, deadline, failed flag, barrier.

    Rank threads share the ``threading`` objects; forked ranks get their
    ``multiprocessing`` twins from *ctx*, made before the fork.  *arrivals*
    counts every rank's barrier entries, so a barrier that times out can
    name the ranks that never came.
    """

    def __init__(self, size: int, recv_timeout: float, ctx=None):
        self.size = int(size)
        self.recv_timeout = float(recv_timeout)
        if ctx is None:
            self.failed, self.barrier = threading.Event(), threading.Barrier(size)
            self.arrivals = [0] * size
        else:
            self.failed, self.barrier = ctx.Event(), ctx.Barrier(size)
            self.arrivals = ctx.RawArray("q", size)


class Communicator(CollectiveOps):
    """The communicator contract, implemented once for every rank runtime.

    Owns what a message *means*: rank checks, value semantics at send time,
    self-transfers (matched inside the rank, as MPI does), the blocking
    receive with its deadline, non-blocking requests, the barrier, and the
    failed flag that unwinds every rank once one has failed.  A runtime
    supplies only how a message *moves*, behind two hooks:

    * ``_put(dest, tag, obj)`` delivers a message to another rank without
      waiting for the receiver; the arrays in it are copied before it
      returns (value semantics);
    * ``_take(source, tag, wait_s)`` returns ``(True, message)`` for the
      oldest message from *source* with *tag*, waiting at most *wait_s*
      seconds, else ``(False, None)``; it raises :class:`RankError` when
      the message can never arrive.
    """

    def __init__(self, rank: int, run: _Run):
        self.rank = int(rank)
        self.size = run.size
        self._run = run
        self._self_queues: dict[Any, deque] = {}

    # mpi4py-style accessors
    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.size

    def _check_rank(self, rank: int, role: str) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(f"invalid {role} rank {rank}")

    def _fail(self) -> None:
        """Flag the run as failed: every rank's receive and barrier unwinds."""
        self._run.failed.set()
        self._run.barrier.abort()

    # -- point to point --------------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_rank(dest, "destination")
        if dest == self.rank:
            # real MPI matches self-transfers inside the rank: no transport
            self._self_queues.setdefault(tag, deque()).append(_copy_value(obj))
        else:
            self._put(dest, tag, obj)

    def _try_recv(self, source: int, tag: int) -> tuple[bool, Any]:
        """Non-blocking probe for a matching message; never waits."""
        if source != self.rank:
            return self._take(source, tag, 0.0)
        q = self._self_queues.get(tag)
        return (True, q.popleft()) if q else (False, None)

    def recv(self, source: int, tag: int = 0) -> Any:
        self._check_rank(source, "source")
        if source == self.rank:
            found, value = self._try_recv(source, tag)
            if not found:
                # the matching send must already have happened: nothing can
                # satisfy this receive, so fail now instead of at the deadline
                raise RankError(
                    f"recv from self with no buffered send "
                    f"(source={source}, dest={self.rank}, tag={tag!r}) — "
                    f"immediate deadlock"
                )
            return value
        timeout = self._run.recv_timeout
        deadline = monotonic() + timeout
        poll = min(0.2, max(timeout / 20.0, 0.005))
        wait_s = 0.0
        while True:
            found, value = self._take(source, tag, wait_s)
            if found:
                return value
            if self._run.failed.is_set():
                raise RankError(f"{_SYMPATHETIC} during recv")
            if monotonic() >= deadline:
                # deadlock, not slowness: unwind the other ranks too, then
                # name the channel so the hang is diagnosable
                self._fail()
                raise RankError(
                    f"recv timed out after {timeout:g} s "
                    f"(source={source}, dest={self.rank}, tag={tag!r}) — "
                    f"no matching send; likely deadlock"
                )
            wait_s = poll

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        self.send(obj, dest, tag)  # buffered: completes immediately
        return Request(lambda: None, _done=True)

    def irecv(self, source: int, tag: int = 0) -> Request:
        return Request(
            lambda: self.recv(source, tag),
            _poll=lambda: self._try_recv(source, tag),
        )

    # -- collectives -------------------------------------------------------------

    def barrier(self) -> None:
        """Wait for every rank, at most ``recv_timeout``; name those that never came."""
        run = self._run
        run.arrivals[self.rank] += 1
        try:
            run.barrier.wait(timeout=run.recv_timeout)
        except threading.BrokenBarrierError:
            if run.failed.is_set():
                raise RankError(f"{_SYMPATHETIC} during barrier") from None
            self._fail()
            mine = run.arrivals[self.rank]
            missing = [r for r in range(self.size) if run.arrivals[r] < mine]
            raise RankError(
                f"barrier timed out after {run.recv_timeout:g} s on rank "
                f"{self.rank}: rank(s) {', '.join(map(str, missing))} never arrived"
            ) from None


class _Router(_Run):
    """The simulator's transport: one FIFO per ``(src, dst, tag)`` channel."""

    def __init__(self, size: int, recv_timeout: float = _RECV_TIMEOUT):
        super().__init__(size, recv_timeout)
        self._channels: dict[tuple, queue.Queue] = {}
        self._lock = threading.Lock()

    def channel(self, src: int, dst: int, tag: int) -> queue.Queue:
        if src == dst:
            # self-transfers never touch the router (real MPI matches them
            # inside the rank); a self-channel here would mask deadlocks
            raise RuntimeError(
                f"rank {src} must not enqueue to itself (tag={tag!r}); "
                "self-transfers are handled by the communicator's local buffer"
            )
        key = (src, dst, tag)
        with self._lock:
            ch = self._channels.get(key)
            if ch is None:
                ch = self._channels[key] = queue.Queue()
            return ch


class SimComm(Communicator):
    """A rank thread's communicator: messages move through the router's queues."""

    def _put(self, dest: int, tag: int, obj: Any) -> None:
        self._run.channel(self.rank, dest, tag).put(_copy_value(obj))

    def _take(self, source: int, tag: int, wait_s: float) -> tuple[bool, Any]:
        try:
            return True, self._run.channel(source, self.rank, tag).get(wait_s > 0, wait_s)
        except queue.Empty:
            return False, None


# -- per-rank outcomes, collected once for every runtime ----------------------------


def _failure(comm: Communicator, exc: BaseException) -> tuple:
    """A failed rank's outcome; call it in the ``except`` block.

    Unwinds the other ranks, then snapshots the failing rank's flight
    recorder into a post-mortem bundle (on the failing thread, where a rank
    recorder the program installed is still current).
    """
    comm._fail()
    message = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
    try:
        bundle = capture_postmortem(exc, rank=comm.rank)
    except Exception:
        bundle = None  # forensics must never mask the failure
    return (False, message, bundle)


def _collect(outcomes: list, join_timeout: float, rundir=None) -> list:
    """The per-rank results of a run, or the one :class:`RankError` explaining it.

    *outcomes* holds one entry per rank: ``None`` (still running at the run
    deadline), ``(True, result)``, or ``(False, message, bundle)`` from
    :func:`_failure`.  Stuck ranks are named first; otherwise the lowest
    rank whose failure is its own, not an unwind after another rank failed.
    Every post-mortem bundle is attached to the error as ``.postmortems``
    (``{rank: bundle}``) and — under *rundir*, else the ambient run
    directory — written as one ``postmortem.json``.
    """
    stuck = [r for r, o in enumerate(outcomes) if o is None]
    failed = [(r, o[1], o[2]) for r, o in enumerate(outcomes) if o is not None and not o[0]]
    if not stuck and not failed:
        return [o[1] for o in outcomes]
    postmortems = {r: bundle for r, _, bundle in failed if bundle is not None}
    if postmortems:
        try:
            rundir = rundir if rundir is not None else get_rundir()
            if rundir is not None:
                ranks = {str(r): b for r, b in sorted(postmortems.items())}
                document = {"schema": POSTMORTEM_SCHEMA, "ranks": ranks}
                write_postmortem(document, rundir.postmortem_path)
        except Exception:
            pass  # forensics must never mask the RankError being raised
    if stuck:
        error = RankError(
            f"rank(s) {', '.join(map(str, stuck))} still running after "
            f"{join_timeout:g} s — stuck or deadlocked"
        )
    else:
        sympathetic = f"{RankError.__name__}: {_SYMPATHETIC}"
        rank, message, _ = next(
            (f for f in failed if not f[1].startswith(sympathetic)), failed[0]
        )
        error = RankError(f"rank {rank} failed: {message}")
    error.postmortems = postmortems
    raise error


def run_ranks(
    size: int,
    func: Callable[..., Any],
    *args,
    recv_timeout: float = _RECV_TIMEOUT,
    join_timeout: float = _JOIN_TIMEOUT,
    rundir=None,
    **kwargs,
) -> list:
    """Run ``func(comm, *args, **kwargs)`` on *size* simulated ranks.

    Returns the per-rank return values; a failed run raises one
    :class:`RankError` (see :func:`_collect`).  *recv_timeout* bounds every
    blocking receive and barrier — a rank stuck past it raises a
    :class:`RankError` naming the ``(source, dest, tag)`` channel, or the
    ranks that never reached the barrier, instead of hanging the whole run.
    *join_timeout* bounds the whole run: a rank thread still alive past it
    (stuck outside a receive, e.g. in user code) is named; its daemon
    thread is left behind.

    Every rank thread records into a recorder of its own, as a forked rank
    does into its copy of the process recorder (same capacity, same
    switch); a rank program that installs
    :func:`~repro.observability.recorder.rank_recorder` keeps that one.
    Crash forensics are those of the process backend: post-mortem bundles
    on the raised error and in ``postmortem.json`` under *rundir* or an
    ambient run directory.
    """
    router = _Router(size, recv_timeout=recv_timeout)
    outcomes: list = [None] * size
    launcher = get_recorder()

    def rank_thread(rank: int):
        # sharing the launcher's recorder, the ranks would share its journal
        # too: each rank's open_journal closes the one the rank before opened
        recorder = FlightRecorder(
            capacity=launcher.capacity, enabled=launcher.enabled, rank=launcher.rank
        )
        set_thread_recorder(recorder)
        comm = SimComm(rank, router)
        try:
            outcomes[rank] = (True, func(comm, *args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - the rank ends here either way
            # (SystemExit, a test's failure): the outcome is how it is reported
            outcomes[rank] = _failure(comm, exc)
        finally:
            recorder.close_journal()

    threads = [
        threading.Thread(target=rank_thread, args=(r,), name=f"simrank-{r}", daemon=True)
        for r in range(size)
    ]
    for t in threads:
        t.start()
    deadline = monotonic() + join_timeout
    for t in threads:
        t.join(timeout=max(0.0, deadline - monotonic()))
    alive = [t.is_alive() for t in threads]
    if any(alive):
        # unwind the stuck ranks that wait in a receive or the barrier
        router.failed.set()
        router.barrier.abort()
    return _collect(
        [None if a else o for a, o in zip(alive, outcomes)], join_timeout, rundir
    )
