"""Ghost-layer exchange across blocks and ranks (paper §4.3).

The exchange proceeds axis by axis, highest axis first; later axes
transport the ghost strips already filled by earlier axes, so edge and
corner ghost cells end up correct without dedicated diagonal messages —
the same scheme the single-block boundary fill uses.  The order changes no
result: each axis copies an index map along its own axis only.  One axis
is two steps:

1. *post* — domain walls without a neighbour get a zero-gradient (Neumann)
   mirror fill, on-rank neighbours get a direct ghost copy, the boundary
   strips of remote neighbours leave in ``isend`` messages and their
   receives are posted;
2. *land* — wait for those receives and unpack them into the ghost strips.

:func:`exchange_field` posts and lands every axis in turn.
:class:`GhostExchange` splits the same relay for communication hiding:
``start()`` posts the first axis, ``finish()`` lands it and relays the
rest.  A block forest distributed by Morton order splits two ranks along
its highest axis, so there ``start()`` posts every remote strip.

Message tags carry (field, axis, direction); the destination block travels
inside the payload, so the protocol survives the bounded-integer tag folding
of real MPI (:mod:`repro.parallel.mpi_adapter`) without misrouting.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from .blockforest import Block, BlockForest
from .boundary import neumann_wall
from .mpi_sim import SimComm

__all__ = ["exchange_field", "GhostExchange", "communication_volume_bytes"]


def _strip(arr: np.ndarray, axis: int, sl: slice) -> tuple:
    idx = [slice(None)] * arr.ndim
    idx[axis] = sl
    return tuple(idx)


def _ghost(arr: np.ndarray, axis: int, side: int, gl: int) -> tuple:
    """The ghost strip of *arr* on *side* of *axis*."""
    n = arr.shape[axis]
    return _strip(arr, axis, slice(0, gl) if side < 0 else slice(n - gl, n))


def _apply_wall(arr: np.ndarray, axis: int, side: int, gl: int) -> None:
    """:func:`neumann_wall` on a block; periodic axes have none (the forest wraps)."""
    ghost, source = neumann_wall(arr.shape[axis], axis, side, gl)
    arr[ghost] = arr[source]


class GhostExchange:
    """The ghost exchange of one field over one rank's blocks.

    ``start()`` posts the first axis; ``finish()`` lands it and relays the
    remaining axes.  Between the two calls, kernels restricted to the block
    interior may run freely: ghost cells are the only memory the exchange
    writes.  :func:`exchange_field` runs the same relay without a split.

    The field's arrays are captured at construction: the solver swaps its
    name->array bindings at the end of a step, but a pending exchange must
    keep relaying the arrays it started on.

    Profiler attribution per axis: ``exchange:<field>:pack`` (wall fills,
    on-rank copies, sends), ``exchange:<field>:deliver`` — ``:wait`` for
    the first axis of a split — (blocking on receives, with the axis'
    sent bytes and messages) and ``exchange:<field>:unpack`` (ghost
    writes); plus the ``exchange:<field>`` total, which counts only time
    spent inside the exchange, not the compute hidden between ``start``
    and ``finish``.
    """

    def __init__(
        self,
        blocks: dict[tuple, Block],
        forest: BlockForest,
        owners: dict[tuple, int],
        comm: SimComm | None,
        field_name: str,
        ghost_layers: int,
        profiler=None,
        comm_matrix=None,
    ):
        self.forest = forest
        self.owners = owners
        self.comm = comm
        self.field_name = field_name
        self.gl = int(ghost_layers)
        self.profiler = profiler
        self.comm_matrix = comm_matrix
        self.my_rank = comm.rank if comm is not None else 0
        self.arrays: dict[tuple, np.ndarray] = {
            coords: block.arrays[field_name] for coords, block in blocks.items()
        }
        self.axes = tuple(reversed(range(forest.dim)))
        self.bytes_sent = 0
        self.messages_sent = 0
        self._posted: tuple | None = None  # the posted axis, not yet landed
        self._seconds = 0.0                # time spent inside the exchange
        self._started = False
        self._finished = False

    def start(self) -> None:
        """Post the first axis."""
        if self._started:
            raise RuntimeError(f"exchange of {self.field_name!r} already started")
        self._started = True
        t0 = perf_counter()
        self._post(self.axes[0])
        self._seconds += perf_counter() - t0

    def finish(self) -> None:
        """Land the first axis, then relay the remaining ones."""
        if not self._started:
            raise RuntimeError(f"exchange of {self.field_name!r} never started")
        if self._finished:
            raise RuntimeError(f"exchange of {self.field_name!r} already finished")
        self._finished = True
        t0 = perf_counter()
        self._land("wait")
        self._relay(self.axes[1:])
        self._seconds += perf_counter() - t0
        self._record_total(self._seconds)

    def _relay(self, axes) -> None:
        for axis in axes:
            self._post(axis)
            self._land("deliver")

    def _post(self, axis: int) -> None:
        """Wall fills, on-rank copies and sends of *axis*; post its receives."""
        t0 = perf_counter()
        gl, comm, name = self.gl, self.comm, self.field_name
        nbytes = 0
        sends: list = []
        receives: list = []  # (ghost side, request)
        for coords, arr in self.arrays.items():
            n = arr.shape[axis]
            for side in (-1, +1):
                nb = self.forest.neighbor(coords, axis, side)
                if nb is None:
                    _apply_wall(arr, axis, side, gl)
                    continue
                inner = slice(gl, 2 * gl) if side < 0 else slice(n - 2 * gl, n - gl)
                payload = arr[_strip(arr, axis, inner)]
                owner = self.owners[nb]
                if owner == self.my_rank:
                    target = self.arrays[nb]
                    target[_ghost(target, axis, -side, gl)] = payload
                    continue
                if comm is None:
                    raise RuntimeError("remote neighbour but no communicator")
                # non-blocking: a blocking send of a large unbuffered strip
                # can deadlock on real MPI.  The strip is a view that later
                # axes overwrite (ghost corners); isend copies it (the
                # communicator's value semantics).  The tag names (field,
                # axis, side) only, the payload the destination block
                sends.append(comm.isend((nb, payload), owner, tag=(name, axis, side)))
                # whichever of my blocks it names, a strip the owner sent from
                # its -side face fills a ghost on my +side, and vice versa
                receives.append((side, comm.irecv(owner, tag=(name, axis, -side))))
                nbytes += payload.nbytes
                if self.comm_matrix is not None:
                    self.comm_matrix.add(self.my_rank, owner, payload.nbytes)
        self.bytes_sent += nbytes
        self.messages_sent += len(sends)
        self._posted = (axis, nbytes, sends, receives)
        if self.profiler is not None:
            self.profiler.record(f"exchange:{name}:pack", perf_counter() - t0)

    def _land(self, phase: str) -> None:
        """Wait for the posted axis' receives (timed as *phase*), unpack them."""
        axis, nbytes, sends, receives = self._posted
        self._posted = None
        t0 = perf_counter()
        landed = [(side, req.wait()) for side, req in receives]
        # complete the sends too: a dropped isend request leaks under real MPI
        for req in sends:
            req.wait()
        t1 = perf_counter()
        for side, (coords, payload) in landed:
            arr = self.arrays[coords]
            arr[_ghost(arr, axis, side, self.gl)] = payload
        if self.profiler is not None:
            name = self.field_name
            self.profiler.record(
                f"exchange:{name}:{phase}", t1 - t0,
                nbytes=nbytes, messages=len(sends),
            )
            self.profiler.record(f"exchange:{name}:unpack", perf_counter() - t1)

    def _record_total(self, seconds: float) -> None:
        if self.profiler is not None:
            self.profiler.record(
                f"exchange:{self.field_name}", seconds,
                nbytes=self.bytes_sent, messages=self.messages_sent,
            )


def exchange_field(
    blocks: dict[tuple, Block],
    forest: BlockForest,
    owners: dict[tuple, int],
    comm: SimComm | None,
    field_name: str,
    ghost_layers: int,
    profiler=None,
    comm_matrix=None,
) -> int:
    """Synchronize the ghost layers of *field_name* over all blocks.

    Posts and lands every axis in turn (profiler records as in
    :class:`GhostExchange`; ``messages`` counts the MPI messages *sent* by
    this rank).  A :class:`repro.observability.CommMatrix` passed as
    *comm_matrix* receives per-``(src, dst)`` byte/message accounting.
    Returns the number of bytes sent to remote ranks.
    """
    t0 = perf_counter()
    ex = GhostExchange(
        blocks, forest, owners, comm, field_name, ghost_layers, profiler, comm_matrix
    )
    ex._relay(ex.axes)
    ex._record_total(perf_counter() - t0)
    return ex.bytes_sent


def communication_volume_bytes(
    block_shape: tuple[int, ...], ghost_layers: int, doubles_per_cell: float
) -> float:
    """Ghost volume exchanged per block per sweep (all faces, one field set)."""
    dim = len(block_shape)
    total_cells = 0.0
    for axis in range(dim):
        face = np.prod([s for d, s in enumerate(block_shape) if d != axis])
        total_cells += 2 * ghost_layers * face
    return total_cells * doubles_per_cell * 8.0
