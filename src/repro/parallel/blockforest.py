"""Block-structured domain partitioning (waLBerla-style, paper §4.1).

The global domain is divided into equally sized rectangular blocks; blocks
are assigned to ranks along a Morton (Z-order) space-filling curve, which
keeps each rank's blocks spatially compact — the load balancing strategy of
the framework.  All data structures are fully distributed: a rank only
materializes the blocks it owns, so per-process memory does not grow with
the total process count.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

__all__ = ["Block", "BlockForest", "morton_key"]


def morton_key(coords: tuple[int, ...]) -> int:
    """Interleave the low 21 bits of the block coordinates (Z-order curve)."""
    key = 0
    dim = len(coords)
    for bit in range(21):
        for d, c in enumerate(coords):
            key |= ((c >> bit) & 1) << (bit * dim + d)
    return key


@dataclass
class Block:
    """One block of the structured grid owned by some rank."""

    coords: tuple[int, ...]        # position in the block grid
    interior_shape: tuple[int, ...]
    cell_offset: tuple[int, ...]   # global cell index of the first interior cell
    arrays: dict[str, np.ndarray] = dc_field(default_factory=dict)


class BlockForest:
    """The global block grid: geometry, ownership, neighbourhood."""

    def __init__(
        self,
        global_shape: tuple[int, ...],
        block_shape: tuple[int, ...],
        periodic: tuple[bool, ...] | bool = True,
    ):
        if len(global_shape) != len(block_shape):
            raise ValueError("global_shape and block_shape disagree on dimension")
        self.dim = len(global_shape)
        self.global_shape = tuple(int(s) for s in global_shape)
        self.block_shape = tuple(int(s) for s in block_shape)
        for g, b in zip(self.global_shape, self.block_shape):
            if g % b != 0:
                raise ValueError(
                    f"block shape {block_shape} does not tile domain {global_shape}"
                )
        self.blocks_per_dim = tuple(
            g // b for g, b in zip(self.global_shape, self.block_shape)
        )
        if isinstance(periodic, bool):
            periodic = (periodic,) * self.dim
        self.periodic = tuple(periodic)

    # -- enumeration -------------------------------------------------------------

    @property
    def n_blocks(self) -> int:
        return int(np.prod(self.blocks_per_dim))

    def all_block_coords(self) -> list[tuple[int, ...]]:
        grids = np.indices(self.blocks_per_dim).reshape(self.dim, -1).T
        return [tuple(int(c) for c in row) for row in grids]

    def morton_order(self) -> list[tuple[int, ...]]:
        return sorted(self.all_block_coords(), key=morton_key)

    # -- ownership ----------------------------------------------------------------

    def distribute(self, n_ranks: int) -> dict[int, list[tuple[int, ...]]]:
        """Assign blocks to ranks: contiguous chunks of the Morton curve.

        Chunk sizes differ by at most one block — the static load balancing
        of the framework (each block carries identical work).
        """
        order = self.morton_order()
        n = len(order)
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        if n_ranks > n:
            raise ValueError(f"{n_ranks} ranks but only {n} blocks")
        base, extra = divmod(n, n_ranks)
        assignment: dict[int, list[tuple[int, ...]]] = {}
        pos = 0
        for r in range(n_ranks):
            count = base + (1 if r < extra else 0)
            assignment[r] = order[pos : pos + count]
            pos += count
        return assignment

    def owner_map(self, n_ranks: int) -> dict[tuple[int, ...], int]:
        owners: dict[tuple[int, ...], int] = {}
        for rank, coords_list in self.distribute(n_ranks).items():
            for c in coords_list:
                owners[c] = rank
        return owners

    # -- geometry -------------------------------------------------------------------

    def make_block(self, coords: tuple[int, ...]) -> Block:
        offset = tuple(c * b for c, b in zip(coords, self.block_shape))
        return Block(
            coords=tuple(coords),
            interior_shape=self.block_shape,
            cell_offset=offset,
        )

    def neighbor(self, coords: tuple[int, ...], axis: int, direction: int):
        """Neighbouring block coords along ±axis, or None at a wall."""
        c = list(coords)
        c[axis] += direction
        n = self.blocks_per_dim[axis]
        if 0 <= c[axis] < n:
            return tuple(c)
        if self.periodic[axis]:
            c[axis] %= n
            return tuple(c)
        return None

    def __repr__(self):
        return (
            f"BlockForest(domain={self.global_shape}, block={self.block_shape}, "
            f"{self.n_blocks} blocks, periodic={self.periodic})"
        )
