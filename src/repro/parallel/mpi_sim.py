"""Simulated MPI: a thread-based, mpi4py-style communicator.

The distributed-memory algorithms of :mod:`repro.parallel` are written
against this small MPI interface (blocking/non-blocking point-to-point and
the collectives the time loop needs).  :func:`run_ranks` executes an SPMD
function on N in-process ranks backed by per-channel FIFO queues — the
protocol (ghost exchange, reductions) runs *exactly* as it would under real
MPI, just inside one process, which keeps the paper's communication scheme
fully testable on a laptop.

The API follows the mpi4py tutorial conventions (lower-case = pickled
objects; NumPy arrays pass by reference since ranks share an address space,
so receivers copy).
"""

from __future__ import annotations

import queue
import threading
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

import numpy as np

from ..observability.recorder import FlightRecorder, get_recorder, set_thread_recorder

__all__ = ["CollectiveOps", "SimComm", "Request", "run_ranks", "RankError"]

#: default deadline for a blocking receive — a rank waiting longer than
#: this on a message that never comes is deadlocked, not slow
_RECV_TIMEOUT = 60.0

#: default deadline for the whole SPMD run — a rank thread still alive past
#: it is stuck outside a receive (receives have their own deadline)
_JOIN_TIMEOUT = 300.0


class RankError(RuntimeError):
    """An exception raised inside one of the simulated ranks."""


class _Router:
    """Per-(src, dst, tag) FIFO channels shared by all ranks."""

    def __init__(self, size: int, recv_timeout: float = _RECV_TIMEOUT):
        self.size = size
        self.recv_timeout = float(recv_timeout)
        self._channels: dict[tuple, queue.Queue] = {}
        self._lock = threading.Lock()
        self.barrier = threading.Barrier(size)
        self.failed = threading.Event()

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

    Shared by :class:`SimComm` and the process-backed communicator of
    :mod:`repro.parallel.proc_comm`, so every backend executes the identical
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


class SimComm(CollectiveOps):
    """Communicator handed to every rank function."""

    def __init__(self, rank: int, router: _Router):
        self.rank = rank
        self._router = router
        # rank-local FIFO per tag: self-sends bypass the router entirely,
        # as real MPI matches them inside the rank (no network round trip)
        self._self_queues: dict[Any, deque] = {}

    @property
    def size(self) -> int:
        return self._router.size

    # mpi4py-style accessors
    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.size

    # -- point to point --------------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if not 0 <= dest < self.size:
            raise ValueError(f"invalid destination rank {dest}")
        if isinstance(obj, np.ndarray):
            obj = obj.copy()  # value semantics as with real MPI
        if dest == self.rank:
            self._self_queues.setdefault(tag, deque()).append(obj)
            return
        self._router.channel(self.rank, dest, tag).put(obj)

    def recv(self, source: int, tag: int = 0) -> Any:
        if not 0 <= source < self.size:
            raise ValueError(f"invalid source rank {source}")
        if source == self.rank:
            q = self._self_queues.get(tag)
            if not q:
                # a blocking self-receive with nothing buffered can never be
                # satisfied — fail immediately instead of waiting out the
                # deadline (the matching send must already have happened)
                raise RankError(
                    f"recv from self with no buffered send "
                    f"(source={source}, dest={self.rank}, tag={tag!r}) — "
                    f"immediate deadlock"
                )
            return q.popleft()
        ch = self._router.channel(source, self.rank, tag)
        timeout = self._router.recv_timeout
        deadline = perf_counter() + timeout
        poll = min(0.2, max(timeout / 20.0, 0.005))
        while True:
            try:
                return ch.get(timeout=poll)
            except queue.Empty:
                if self._router.failed.is_set():
                    raise RankError("another rank failed during recv")
                if perf_counter() >= deadline:
                    # deadlock, not slowness: flag the run as failed so the
                    # other ranks' receives unblock too, then name the
                    # channel so the hang is diagnosable
                    self._router.failed.set()
                    self._router.barrier.abort()
                    raise RankError(
                        f"recv timed out after {timeout:g} s "
                        f"(source={source}, dest={self.rank}, tag={tag!r}) — "
                        f"no matching send; likely deadlock"
                    )

    def _try_recv(self, source: int, tag: int) -> tuple[bool, Any]:
        """Non-blocking probe for a matching message; never waits."""
        if source == self.rank:
            q = self._self_queues.get(tag)
            if q:
                return True, q.popleft()
            return False, None
        ch = self._router.channel(source, self.rank, tag)
        try:
            return True, ch.get_nowait()
        except queue.Empty:
            return False, None

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
        self._router.barrier.wait()


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

    Returns the per-rank return values; re-raises the first rank failure.
    *recv_timeout* bounds every blocking receive — a rank stuck past it
    raises :class:`RankError` naming the ``(source, dest, tag)`` channel
    instead of hanging the whole run (deadlock diagnosability).
    *join_timeout* bounds the whole run: a rank thread still alive past it
    (stuck outside a receive, e.g. in user code) raises a :class:`RankError`
    naming the stuck rank instead of silently returning ``None`` for it.

    Every rank thread records into a recorder of its own, as a forked rank
    does into its copy of the process recorder (same capacity, same
    switch); a rank program that installs
    :func:`~repro.observability.recorder.rank_recorder` keeps that one.
    Crash forensics match the process backend: a failing rank's flight
    recorder is snapshotted into a post-mortem bundle, the bundles are
    attached to the raised :class:`RankError` as ``exc.postmortems``, and
    — under *rundir* or an ambient run directory — written as a combined
    ``postmortem.json``.
    """
    router = _Router(size, recv_timeout=recv_timeout)
    results: list = [None] * size
    errors: list = []
    postmortems: dict[int, dict] = {}
    launcher = get_recorder()

    def worker(rank: int):
        # sharing the launcher's recorder, the ranks would share its journal
        # too: each rank's open_journal closes the one the rank before opened
        recorder = FlightRecorder(
            capacity=launcher.capacity, enabled=launcher.enabled, rank=launcher.rank
        )
        set_thread_recorder(recorder)
        comm = SimComm(rank, router)
        try:
            results[rank] = func(comm, *args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - propagate to caller
            router.failed.set()
            router.barrier.abort()
            errors.append((rank, exc))
            # snapshot on the failing thread, where the thread-local
            # rank recorder (if any) is still installed
            try:
                from ..observability.postmortem import capture_postmortem

                postmortems[rank] = capture_postmortem(exc, rank=rank)
            except Exception:
                pass
        finally:
            recorder.close_journal()

    threads = [
        threading.Thread(target=worker, args=(r,), name=f"simrank-{r}", daemon=True)
        for r in range(size)
    ]
    for t in threads:
        t.start()
    deadline = perf_counter() + join_timeout
    for t in threads:
        t.join(timeout=max(0.0, deadline - perf_counter()))
    stuck = [r for r, t in enumerate(threads) if t.is_alive()]
    if stuck:
        # flag the run as failed so blocked receives in the stuck ranks
        # unwind, then give them a moment to notice before reporting
        router.failed.set()
        router.barrier.abort()
        for r in stuck:
            threads[r].join(timeout=5.0)
        still_stuck = [r for r in stuck if threads[r].is_alive()]
        if still_stuck:
            raise RankError(
                f"rank(s) {', '.join(map(str, still_stuck))} still running "
                f"after {join_timeout:g} s — stuck outside a receive; "
                f"results discarded (threads left to the daemon reaper)"
            )
    if errors:
        rank, exc = errors[0]
        if postmortems:
            from .proc_comm import _write_postmortems

            _write_postmortems(postmortems, rundir)
        failure = RankError(f"rank {rank} failed: {exc!r}")
        failure.postmortems = dict(postmortems)
        raise failure from exc
    if stuck:
        # the abort unwound them without surfacing an exception — still a
        # failed run: their results arrived only after the deadline
        raise RankError(
            f"rank(s) {', '.join(map(str, stuck))} exceeded the "
            f"{join_timeout:g} s run deadline"
        )
    return results
