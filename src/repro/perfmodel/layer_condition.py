"""Layer-condition analysis: stencil data traffic through the cache levels.

For a stencil sweep, neighbour accesses are cache hits as long as the cache
retains the necessary *layers* (rows or planes) of the arrays between their
first and last use.  The analysis determines, per cache level, how many
distinct load streams actually miss and therefore how many bytes flow per
lattice-site update (LUP).  It also derives the spatial blocking factors
used by the generated kernels (paper §6.1: "we find suitable blocking sizes
of N < 67 which minimize main memory traffic" → 60³ blocks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ir.kernel import Kernel

__all__ = ["FieldTraffic", "TrafficAnalysis", "analyze_traffic", "blocking_factor"]

_DOUBLE = 8


@dataclass
class FieldTraffic:
    """Access geometry of one field within a kernel sweep."""

    name: str
    components: int          # doubles per cell (product of index extents)
    n_accesses: int          # distinct relative accesses (per component set)
    n_rows: int              # distinct (outer..., middle) offset rows
    n_planes: int            # distinct outermost offsets
    is_store: bool


@dataclass
class TrafficAnalysis:
    """Bytes per LUP flowing between adjacent memory levels."""

    fields: list[FieldTraffic]
    store_bytes: float
    #: load bytes per LUP when the {plane, row, none} condition holds
    load_bytes_plane: float
    load_bytes_row: float
    load_bytes_none: float
    #: working sets that must fit for the conditions to hold (bytes)
    plane_ws: float
    row_ws: float

    def load_bytes(self, cache_bytes: float) -> float:
        """Load traffic per LUP from below the given cache level."""
        if cache_bytes >= self.plane_ws:
            return self.load_bytes_plane
        if cache_bytes >= self.row_ws:
            return self.load_bytes_row
        return self.load_bytes_none

    def total_bytes(self, cache_bytes: float, write_allocate: bool = True) -> float:
        stores = self.store_bytes * (2.0 if write_allocate else 1.0)
        return self.load_bytes(cache_bytes) + stores


def analyze_traffic(kernel: Kernel, block_shape: tuple[int, ...]) -> TrafficAnalysis:
    """Layer-condition traffic analysis for *kernel* on a given block shape.

    ``block_shape`` is the per-core iteration space in loop order
    (outermost first).  Only the inner two dimensions enter the working
    sets: the plane condition requires all accessed planes of every field,
    the row condition all accessed rows.  A contracted split kernel's flux
    field is no traffic: it lives in per-thread planes.
    """
    dim = kernel.dim
    order = kernel.loop_order

    reads = [acc for acc in kernel.ac.field_reads if acc.field != kernel.flux_field]
    writes = [acc for acc in kernel.ac.field_writes if acc.field != kernel.flux_field]

    per_field: dict[str, dict] = {}
    for acc in reads:
        info = per_field.setdefault(
            acc.field.name,
            {"field": acc.field, "offsets": set(), "store": False},
        )
        # project onto loop-order axes: (outer, middle, inner)
        ordered = tuple(int(acc.offsets[a]) for a in order)
        info["offsets"].add(ordered)
    for acc in writes:
        info = per_field.setdefault(
            acc.field.name,
            {"field": acc.field, "offsets": set(), "store": True},
        )
        info["store"] = True

    fields: list[FieldTraffic] = []
    for name, info in sorted(per_field.items()):
        f = info["field"]
        comps = int(np.prod(f.index_shape)) if f.index_shape else 1
        offs = info["offsets"] or {(0,) * dim}
        rows = {o[:-1] for o in offs}
        planes = {o[0] for o in offs} if dim >= 2 else {0}
        fields.append(
            FieldTraffic(
                name=name,
                components=comps,
                n_accesses=len(offs),
                n_rows=len(rows),
                n_planes=len(planes),
                is_store=info["store"],
            )
        )

    # sizes along the loop-order axes
    if dim == 3:
        row_len = block_shape[2]
        plane_size = block_shape[1] * block_shape[2]
    elif dim == 2:
        row_len = block_shape[1]
        plane_size = block_shape[1]
    else:
        row_len = plane_size = 1

    load_plane = load_row = load_none = 0.0
    store_bytes = 0.0
    plane_ws = row_ws = 0.0
    for ft in fields:
        cell = ft.components * _DOUBLE
        if ft.is_store:
            store_bytes += cell
        if ft.n_accesses == 0:
            continue
        load_plane += cell                      # one stream: leading plane
        load_row += ft.n_planes * cell          # one stream per plane
        load_none += ft.n_rows * cell           # one stream per row
        plane_ws += ft.n_planes * plane_size * cell
        row_ws += ft.n_rows * row_len * cell

    return TrafficAnalysis(
        fields=fields,
        store_bytes=store_bytes,
        load_bytes_plane=load_plane,
        load_bytes_row=load_row,
        load_bytes_none=load_none,
        plane_ws=plane_ws,
        row_ws=row_ws,
    )


def blocking_factor(kernel: Kernel, cache_bytes: float, dim: int | None = None) -> int:
    """Largest cubic block edge N whose plane condition fits into the cache.

    Reproduces §6.1: the per-LUP cache demand of the 3D layer condition is
    ``c · N²`` bytes for an N×N inner block; the suitable blocking size is
    the largest N with ``c · N² ≤ cache``.
    """
    dim = dim or kernel.dim
    probe = analyze_traffic(kernel, (4,) * dim)
    # plane working set scales with plane size (N² in 3D, N in 2D)
    if dim == 3:
        unit = probe.plane_ws / 16.0  # coefficient of N²
        return int(np.sqrt(cache_bytes / unit))
    unit = probe.plane_ws / 4.0
    return int(cache_bytes / unit)
