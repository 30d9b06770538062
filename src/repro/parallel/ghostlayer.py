"""Ghost-layer exchange across blocks and ranks (paper §4.3).

The exchange proceeds axis by axis; later axes transport the ghost strips
already filled by earlier axes, so edge and corner ghost cells end up
correct without dedicated diagonal messages — the same scheme the
single-block boundary fill uses.  For every axis:

1. pack the boundary strips of all owned blocks into contiguous buffers,
2. deliver them — directly for on-rank neighbours, via (simulated) MPI
   messages for remote neighbours,
3. unpack into the neighbours' ghost strips; domain walls without a
   neighbour get the local boundary condition instead.

Message tags carry (field, axis, direction); the destination block travels
inside the payload, so the protocol survives the bounded-integer tag folding
of real MPI (:mod:`repro.parallel.mpi_adapter`) without misrouting.
"""

from __future__ import annotations

from itertools import product
from time import perf_counter

import numpy as np

from .blockforest import Block, BlockForest
from .mpi_sim import SimComm

__all__ = [
    "exchange_field",
    "ExchangePlan",
    "GhostExchange",
    "communication_volume_bytes",
]


def _strip(arr: np.ndarray, axis: int, sl: slice) -> tuple:
    idx = [slice(None)] * arr.ndim
    idx[axis] = sl
    return tuple(idx)


def _apply_wall(arr: np.ndarray, axis: int, side: int, gl: int, mode: str) -> None:
    n = arr.shape[axis]
    if mode == "neumann":
        # zero-gradient via mirroring (ghost layer `layer` = interior layer
        # `2gl-1-layer`), identical to the single-block fill_ghosts scheme
        # so distributed and single-block runs agree for every ghost width
        if side < 0:
            src = arr[_strip(arr, axis, slice(gl, 2 * gl))]
            arr[_strip(arr, axis, slice(0, gl))] = np.flip(src, axis=axis)
        else:
            src = arr[_strip(arr, axis, slice(n - 2 * gl, n - gl))]
            arr[_strip(arr, axis, slice(n - gl, n))] = np.flip(src, axis=axis)
    elif mode == "periodic":
        raise RuntimeError(
            "periodic walls are handled by the block forest wrap-around"
        )
    else:
        raise ValueError(f"unknown wall mode {mode!r}")


def exchange_field(
    blocks: dict[tuple, Block],
    forest: BlockForest,
    owners: dict[tuple, int],
    comm: SimComm | None,
    field_name: str,
    ghost_layers: int,
    wall_mode: str = "neumann",
    profiler=None,
    comm_matrix=None,
) -> int:
    """Synchronize the ghost layers of *field_name* over all blocks.

    Returns the number of bytes sent to remote ranks (for statistics).
    When a :class:`repro.profiling.SolverProfiler` is given, the exchange
    is timed under ``exchange:<field>`` (total, with remote byte and
    message counts) and additionally split per axis into

    * ``exchange:<field>:pack`` — packing boundary strips, on-rank ghost
      copies and domain-wall fills (copy work),
    * ``exchange:<field>:deliver`` — MPI sends and the blocking receives
      (the wait component), and
    * ``exchange:<field>:unpack`` — writing received strips into ghosts,

    so wait time is attributable separately from copy time.  ``messages``
    counts the MPI messages *sent* by this rank, mirroring the byte count.
    A :class:`repro.observability.CommMatrix` passed as *comm_matrix*
    additionally receives per-``(src, dst)`` byte/message accounting.
    """
    gl = int(ghost_layers)
    dim = forest.dim
    my_rank = comm.rank if comm is not None else 0
    sent_bytes = 0
    sent_messages = 0
    timing = profiler is not None
    t_begin = perf_counter() if timing else 0.0

    for axis in range(dim):
        t0 = perf_counter() if timing else 0.0
        outgoing: list[tuple[int, tuple, tuple, int]] = []
        for coords, block in blocks.items():
            arr = block.arrays[field_name]
            n = arr.shape[axis]
            for side in (-1, +1):
                nb = forest.neighbor(coords, axis, side)
                if nb is None:
                    _apply_wall(arr, axis, side, gl, wall_mode)
                    continue
                if side < 0:
                    payload = arr[_strip(arr, axis, slice(gl, 2 * gl))]
                else:
                    payload = arr[_strip(arr, axis, slice(n - 2 * gl, n - gl))]
                owner = owners[nb]
                if owner == my_rank:
                    target = blocks[nb].arrays[field_name]
                    tn = target.shape[axis]
                    if side < 0:  # I am the +axis neighbour of nb
                        target[_strip(target, axis, slice(tn - gl, tn))] = payload
                    else:
                        target[_strip(target, axis, slice(0, gl))] = payload
                else:
                    if comm is None:
                        raise RuntimeError("remote neighbour but no communicator")
                    # tag carries only (field, axis, side); the payload names
                    # the destination block, so matching stays correct even
                    # when tags are folded to bounded MPI integers
                    tag = (field_name, axis, side)
                    # explicit copy: the strip is a view that later axes of
                    # this very exchange will overwrite (ghost corners)
                    outgoing.append((owner, tag, (nb, payload.copy()), payload.nbytes))
        # receive strips destined for my blocks: count expected messages per
        # (source rank, sender side) channel, then dispatch by block coords
        expected: dict[tuple[int, int], int] = {}
        for coords, block in blocks.items():
            for side in (-1, +1):
                nb = forest.neighbor(coords, axis, side)
                if nb is None or owners[nb] == my_rank:
                    continue
                key = (owners[nb], -side)  # the sender used its own side
                expected[key] = expected.get(key, 0) + 1
        if timing:
            t1 = perf_counter()
            profiler.record(f"exchange:{field_name}:pack", t1 - t0)
        if not outgoing and not expected:
            continue

        t0 = perf_counter() if timing else 0.0
        axis_bytes = 0
        send_requests = []
        for owner, tag, message, nbytes in outgoing:
            # non-blocking: a blocking send of a large unbuffered strip can
            # deadlock on real MPI when two ranks send to each other before
            # either receives (the simulator's send is always buffered)
            send_requests.append(comm.isend(message, owner, tag=tag))
            axis_bytes += nbytes
            if comm_matrix is not None:
                comm_matrix.add(my_rank, owner, nbytes)
        sent_bytes += axis_bytes
        sent_messages += len(outgoing)
        received: list[tuple[int, tuple]] = []
        for (src, sender_side), count in sorted(expected.items()):
            tag = (field_name, axis, sender_side)
            for _ in range(count):
                received.append((sender_side, comm.recv(src, tag=tag)))
        for req in send_requests:
            req.wait()
        if timing:
            t1 = perf_counter()
            profiler.record(
                f"exchange:{field_name}:deliver", t1 - t0,
                nbytes=axis_bytes, messages=len(outgoing),
            )

        t0 = perf_counter() if timing else 0.0
        for sender_side, (dst_coords, payload) in received:
            arr = blocks[dst_coords].arrays[field_name]
            n = arr.shape[axis]
            if sender_side > 0:  # sender's +side strip fills my low ghost
                arr[_strip(arr, axis, slice(0, gl))] = payload
            else:
                arr[_strip(arr, axis, slice(n - gl, n))] = payload
        if timing:
            t1 = perf_counter()
            profiler.record(f"exchange:{field_name}:unpack", t1 - t0)

    if timing:
        t_end = perf_counter()
        profiler.record(
            f"exchange:{field_name}", t_end - t_begin,
            nbytes=sent_bytes, messages=sent_messages,
        )
    return sent_bytes


def _neighbor_at(forest: BlockForest, coords: tuple, offset: tuple) -> tuple | None:
    """Neighbour block at a (possibly diagonal) offset vector, or None at a wall."""
    cur = coords
    for axis, o in enumerate(offset):
        if o:
            cur = forest.neighbor(cur, axis, o)
            if cur is None:
                return None
    return cur


def _src_region(shape: tuple, axis_offsets: tuple, gl: int) -> tuple:
    """Sender-side interior region adjacent to the face/edge/corner *offset*."""
    idx = []
    for n, o in zip(shape, axis_offsets):
        if o < 0:
            idx.append(slice(gl, 2 * gl))
        elif o > 0:
            idx.append(slice(n - 2 * gl, n - gl))
        else:
            idx.append(slice(gl, n - gl))
    return tuple(idx)


def _dst_region(shape: tuple, axis_offsets: tuple, gl: int) -> tuple:
    """Receiver-side ghost region filled by a message sent with *offset*.

    The sender lies at ``-offset`` from the receiver, so a ``+1`` component
    (sender moved up to reach the receiver) fills the receiver's *low* ghost.
    """
    idx = []
    for n, o in zip(shape, axis_offsets):
        if o > 0:
            idx.append(slice(0, gl))
        elif o < 0:
            idx.append(slice(n - gl, n))
        else:
            idx.append(slice(gl, n - gl))
    return tuple(idx)


class ExchangePlan:
    """Precomputed topology for one rank's :class:`GhostExchange`.

    The neighbour structure (which regions copy where, which messages go to
    which rank, which faces are domain walls) depends only on the forest,
    the ownership map and the ghost width — not on field data — so the
    solver computes it once and reuses it every step for every field.  All
    region indices are spatial-only tuples; trailing index dimensions pass
    through untouched.
    """

    def __init__(self, blocks, forest, owners, my_rank: int, ghost_layers: int):
        gl = int(ghost_layers)
        self.ghost_layers = gl
        dim = forest.dim
        # uniform block shapes: spatial extents come from the forest
        shape = tuple(s + 2 * gl for s in forest.block_shape)
        offsets = [off for off in product((-1, 0, +1), repeat=dim) if any(off)]
        #: on-rank ghost copies: (src_coords, src_region, dst_coords, dst_region)
        self.local: list[tuple] = []
        #: remote strips grouped per destination rank (one aggregated message
        #: per neighbour rank per exchange): rank -> [(src_coords, src_region,
        #: offset, dst_coords)]
        self.sends_by_rank: dict[int, list[tuple]] = {}
        #: source ranks a bundle is expected from, ascending
        self.recv_sources: list[int] = []
        #: ghost region a strip sent with *offset* lands in
        self.dst_region_of: dict[tuple, tuple] = {
            off: _dst_region(shape, off, gl) for off in offsets
        }
        #: domain-wall fills in ascending axis order: (coords, axis, side)
        self.walls: list[tuple] = []
        for coords in sorted(blocks):
            for off in offsets:
                nb = _neighbor_at(forest, coords, off)
                if nb is None:
                    continue
                owner = owners[nb]
                if owner == my_rank:
                    self.local.append(
                        (coords, _src_region(shape, off, gl),
                         nb, self.dst_region_of[off])
                    )
                else:
                    self.sends_by_rank.setdefault(owner, []).append(
                        (coords, _src_region(shape, off, gl), off, nb)
                    )
        # neighbourhood is symmetric (periodic wrap included): every rank I
        # send to also sends to me, exactly one bundle each
        self.recv_sources = sorted(self.sends_by_rank)
        for axis in range(dim):
            for coords in sorted(blocks):
                for side in (-1, +1):
                    if forest.neighbor(coords, axis, side) is None:
                        self.walls.append((coords, axis, side))


class GhostExchange:
    """Asynchronous ghost-layer exchange split into ``start()`` / ``finish()``.

    Unlike the synchronous axis-by-axis relay of :func:`exchange_field`
    (whose later axes must wait for earlier ones to land before they can
    transport ghost corners), this exchange packs one strip per non-zero
    neighbour offset vector in ``{-1, 0, +1}^dim`` — faces span the interior
    of the other axes; edges and corners travel as dedicated diagonal
    strips.  That removes the intra-exchange ordering dependency, so
    ``start()`` can fire every send (and the on-rank copies, which only read
    stable interiors) before any compute, and ``finish()`` merely waits,
    unpacks and applies domain-wall fills.  Between the two calls, kernels
    restricted to the block interior may run freely: ghost cells are the
    only memory the exchange writes.  All strips bound for the same rank
    are aggregated into a single message (the per-neighbour send buffers of
    real MPI stencil codes), so each exchange costs one message per
    neighbour rank regardless of block count.  The static topology — which
    regions copy where, which ranks exchange bundles, which faces are
    domain walls — lives in an :class:`ExchangePlan` the solver computes
    once and reuses every step.

    The result is bit-identical to :func:`exchange_field`: faces carry the
    same interior strips, diagonal messages carry exactly the cells the
    relay would have forwarded through intermediate ghost strips, and wall
    fills (applied in ascending axis order after unpacking, mirror scheme)
    reproduce the relay's corner resolution.

    Profiler attribution: ``exchange:<field>:pack`` (packing + sends +
    on-rank copies, recorded by ``start``), ``exchange:<field>:wait``
    (blocking on in-flight receives) and ``exchange:<field>:unpack``
    (ghost writes + wall fills), plus the ``exchange:<field>`` total —
    the total counts only time spent inside the exchange, not the compute
    hidden between ``start`` and ``finish``.
    """

    def __init__(
        self,
        blocks: dict[tuple, Block],
        forest: BlockForest,
        owners: dict[tuple, int],
        comm: SimComm | None,
        field_name: str,
        ghost_layers: int,
        wall_mode: str = "neumann",
        profiler=None,
        comm_matrix=None,
        plan: ExchangePlan | None = None,
    ):
        self.blocks = blocks
        self.forest = forest
        self.owners = owners
        self.comm = comm
        self.field_name = field_name
        self.gl = int(ghost_layers)
        self.wall_mode = wall_mode
        self.profiler = profiler
        self.comm_matrix = comm_matrix
        self.my_rank = comm.rank if comm is not None else 0
        # the neighbour topology is static — reuse a precomputed plan when
        # the caller (the solver) holds one, else derive it here
        self.plan = plan if plan is not None else ExchangePlan(
            blocks, forest, owners, self.my_rank, self.gl
        )
        # capture array references now: the solver swaps its name->array
        # bindings at the end of a step, but a pending exchange must keep
        # unpacking into the arrays it packed from
        self.arrays: dict[tuple, np.ndarray] = {
            coords: block.arrays[field_name] for coords, block in blocks.items()
        }
        self.bytes_sent = 0
        self.messages_sent = 0
        self._requests: list = []       # (source, tag, Request) in recv order
        self._send_requests: list = []  # isend handles; real MPI requires a
        #                                 wait on every request to complete it
        self._seconds = 0.0             # time spent inside start()+finish()
        self._started = False
        self._finished = False

    def start(self) -> None:
        """Pack boundary regions, fire all sends, post all receives."""
        if self._started:
            raise RuntimeError(f"exchange of {self.field_name!r} already started")
        self._started = True
        t0 = perf_counter()
        plan = self.plan
        arrays = self.arrays
        # on-rank copies only read stable interiors, so they may run now
        for src_coords, src_region, dst_coords, dst_region in plan.local:
            arrays[dst_coords][dst_region] = arrays[src_coords][src_region]
        if plan.sends_by_rank and self.comm is None:
            raise RuntimeError("remote neighbour but no communicator")
        tag = (self.field_name, "ghosts")
        for owner in sorted(plan.sends_by_rank):
            # aggregate every strip bound for *owner* into one message; each
            # entry names its destination block and the sender-side offset so
            # the receiver can place it without per-strip tags
            bundle = [
                (dst_coords, off, arrays[src_coords][src_region].copy())
                for src_coords, src_region, off, dst_coords
                in plan.sends_by_rank[owner]
            ]
            self._send_requests.append(self.comm.isend(bundle, owner, tag=tag))
            nbytes = sum(p.nbytes for _, _, p in bundle)
            self.bytes_sent += nbytes
            self.messages_sent += 1
            if self.comm_matrix is not None:
                self.comm_matrix.add(self.my_rank, owner, nbytes)
        # post one receive per neighbour rank, ascending: the neighbourhood
        # is symmetric (periodic wrap included), so each rank I send to owes
        # me exactly one bundle in return
        for source in plan.recv_sources:
            self._requests.append((source, tag, self.comm.irecv(source, tag=tag)))
        t1 = perf_counter()
        self._seconds += t1 - t0
        if self.profiler is not None:
            self.profiler.record(f"exchange:{self.field_name}:pack", t1 - t0)

    def finish(self) -> None:
        """Wait for in-flight receives, unpack ghosts, fill domain walls."""
        if not self._started:
            raise RuntimeError(f"exchange of {self.field_name!r} never started")
        if self._finished:
            raise RuntimeError(f"exchange of {self.field_name!r} already finished")
        self._finished = True
        plan = self.plan

        t0 = perf_counter()
        received: list[list] = [req.wait() for _source, _tag, req in self._requests]
        # complete the sends too: a dropped isend request leaks under real
        # MPI (receives complete first, so these waits never block for long)
        for req in self._send_requests:
            req.wait()
        self._send_requests.clear()
        t1 = perf_counter()
        if self.profiler is not None:
            self.profiler.record(f"exchange:{self.field_name}:wait", t1 - t0)

        t2 = perf_counter()
        for bundle in received:
            for dst_coords, sender_off, payload in bundle:
                self.arrays[dst_coords][plan.dst_region_of[sender_off]] = payload
        # wall fills last, in ascending axis order: later-axis mirrors read
        # earlier-axis ghost corners, exactly like the synchronous relay
        for coords, axis, side in plan.walls:
            _apply_wall(self.arrays[coords], axis, side, self.gl, self.wall_mode)
        t3 = perf_counter()
        if self.profiler is not None:
            self.profiler.record(f"exchange:{self.field_name}:unpack", t3 - t2)
        self._seconds += t3 - t0
        if self.profiler is not None:
            self.profiler.record(
                f"exchange:{self.field_name}", self._seconds,
                nbytes=self.bytes_sent, messages=self.messages_sent,
            )


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
