"""Adapter to run the distributed time loop on *real* MPI (mpi4py).

The whole :mod:`repro.parallel` stack is written against the small
communicator interface of :class:`~repro.parallel.mpi_sim.SimComm`.  This
module provides the same interface on top of an ``mpi4py`` communicator, so
that ``mpirun -n 8 python my_run.py`` executes the identical ghost-layer
protocol on real hardware.  mpi4py is optional; importing this module
without it only fails when an adapter is actually constructed.

The simulated communicator uses rich (tuple) tags for its per-channel
queues; MPI tags are bounded integers, so tags are folded deterministically
with CRC-32 (``hash()`` is salted per process and therefore unusable across
ranks).

Two mpi4py sharp edges are flattened here so the exchange protocol cannot
silently corrupt a real-parallel run:

* ``irecv`` of a pickled message receives into a buffer sized when it is
  posted (~32 KiB by default); any real ghost-layer strip beyond that
  fails with a truncation error.  :meth:`MPI4PyComm.irecv` therefore
  posts nothing: its request receives the way the simulated one does —
  ``wait()`` runs a blocking ``recv``, which probes the message and reads
  its true size, and ``test()`` matches it with ``improbe`` first.
* ``bool`` is an ``int`` subclass, so a naive passthrough would alias the
  tags ``True``/``1`` and ``False``/``0``; and the negative collective
  tags (``-1``/``-2``) are not valid MPI tags.  :func:`fold_tag` routes
  both through the deterministic pickle+CRC fold — pickled booleans differ
  from pickled ints, so the folded tags stay distinct.
"""

from __future__ import annotations

import pickle
import zlib
from typing import Any

from .mpi_sim import Request

__all__ = ["fold_tag", "MPI4PyComm", "mpi4py_available"]

#: Conservative bound below every implementation's MPI_TAG_UB.
_TAG_MODULUS = 32749  # largest prime below 32768


def fold_tag(tag: Any) -> int:
    """Deterministically fold an arbitrary (picklable) tag to a valid MPI tag.

    Identical on every rank and across processes (unlike ``hash``).  Plain
    non-negative ``int`` tags below the modulus pass through unchanged;
    everything else — rich tuple tags, negative collective tags, and
    booleans (an ``int`` subclass that must NOT alias ``1``/``0``) — folds
    through CRC-32 of its pickle, which keeps ``True`` distinct from ``1``
    because the two pickle differently.

    Collisions are possible but only matter for *concurrent* messages on the
    same (src, dst) pair; the ghost-layer protocol posts matching sends and
    receives in a deterministic per-axis order, so a collision at worst
    pairs messages of the same exchange — which carry distinct (axis, side,
    block) tags precisely to disambiguate, hence the wide modulus.
    """
    if type(tag) is int and 0 <= tag < _TAG_MODULUS:
        return tag
    payload = pickle.dumps(tag, protocol=2)
    return zlib.crc32(payload) % _TAG_MODULUS


def mpi4py_available() -> bool:
    try:
        import mpi4py  # noqa: F401

        return True
    except ImportError:
        return False


class MPI4PyComm:
    """``SimComm``-compatible facade over an ``mpi4py.MPI.Comm``."""

    def __init__(self, comm=None):
        from mpi4py import MPI  # deferred: mpi4py is optional

        self._mpi = MPI
        self._comm = comm if comm is not None else MPI.COMM_WORLD
        self.rank = self._comm.Get_rank()

    @property
    def size(self) -> int:
        return self._comm.Get_size()

    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.size

    # -- point to point (pickle-based, mpi4py lower-case API) -----------------

    def send(self, obj, dest: int, tag=0) -> None:
        self._comm.send(obj, dest=dest, tag=fold_tag(tag))

    def recv(self, source: int, tag=0):
        return self._comm.recv(source=source, tag=fold_tag(tag))

    def isend(self, obj, dest: int, tag=0):
        # mpi4py's test() of a pickled request is already (flag, value)
        req = self._comm.isend(obj, dest=dest, tag=fold_tag(tag))
        return Request(req.wait, _poll=req.test)

    def irecv(self, source: int, tag=0):
        # nothing is posted: a blocking recv (wait) or a matched probe
        # (test) reads the message at its true size, so no buffer bounds it
        tag = fold_tag(tag)

        def poll():
            message = self._comm.improbe(source=source, tag=tag)
            return (False, None) if message is None else (True, message.recv())

        return Request(lambda: self._comm.recv(source=source, tag=tag), _poll=poll)

    def sendrecv(self, obj, dest: int, source: int, sendtag=0, recvtag=0):
        return self._comm.sendrecv(
            obj, dest=dest, sendtag=fold_tag(sendtag),
            source=source, recvtag=fold_tag(recvtag),
        )

    # -- collectives -------------------------------------------------------------

    def barrier(self) -> None:
        self._comm.Barrier()

    def bcast(self, obj, root: int = 0):
        return self._comm.bcast(obj, root=root)

    def gather(self, obj, root: int = 0):
        return self._comm.gather(obj, root=root)

    def allgather(self, obj):
        return self._comm.allgather(obj)

    def allreduce(self, value, op: str = "sum"):
        ops = {
            "sum": self._mpi.SUM,
            "max": self._mpi.MAX,
            "min": self._mpi.MIN,
        }
        if op not in ops:
            raise ValueError(f"unknown reduction op {op!r}")
        return self._comm.allreduce(value, op=ops[op])
