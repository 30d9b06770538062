"""Split-kernel generation: caching staggered fluxes in a temporary field.

The paper's "µ-split"/"φ-split" kernel variants avoid computing every flux
twice (the left face value of a cell is the right face value of its left
neighbour): a flux stage writes all lower-face fluxes into a staggered
field, an update stage only differences them.  The paper runs the stages as
two sweeps and trades FLOPs for the flux field's memory traffic (Fig. 2).
On the CPU the IR contracts the field instead
(:func:`repro.ir.kernel.contract`): one kernel runs both stages plane by
plane through per-thread buffers, so the split form saves the FLOPs without
the traffic, and costs only the buffered values.  Whether it is worth it is
decided per system, before any CSE, by :meth:`SplitKernels.buffering_pays`:
the flux work per buffered face value against
:data:`SPLIT_FLOPS_PER_VALUE`.  P1 takes φ-split + µ-split, the binary
model full + full.
"""

from __future__ import annotations

import re

import sympy as sp

from ..symbolic.assignment import Assignment, AssignmentCollection
from ..symbolic.field import Field, FieldAccess
from .finite_differences import FluxCollector

__all__ = ["materialize_fluxes", "SplitKernels", "SPLIT_FLOPS_PER_VALUE"]

_PLACEHOLDER_RE = re.compile(r"__flux_(\d+)_(\d+)_(\d+)")


#: The threshold of :meth:`SplitKernels.buffering_pays`, in pre-CSE
#: normalized flux FLOPs per buffered face value.  The contracted split form
#: computes each face flux once instead of twice; what it pays is a store and
#: a load of every buffered value, so the flux work per value decides.  On a
#: 2-vCPU Xeon guest (one thread, per-kernel timings, the two forms stepped
#: in alternation in one process):
#:
#: ============== ======== =============== ====================
#: kernel         FLOPs /  full            contracted split
#:                value
#: ============== ======== =============== ====================
#: binary µ             25 4.29 ms (1024²) 5.22 ms (1.22×)
#: binary φ            144 5.60 ms (1024²) 6.96 ms (1.24×)
#: P1 φ                434 2.03 ms (40³)   1.66 ms (0.81×)
#: P1 µ              1 630 5.06 ms (40³)   3.16 ms (0.62×)
#: ============== ======== =============== ====================
#:
#: Binary φ is 144 in 2-D and 3-D alike; P1 µ's times are the traced
#: benchmark pass's ``kernel_ms.mu`` of the two forms.  P1 φ's are those of
#: the rows that read one shared Lagrange multiplier (medians of 6 runs of
#: 60 alternating calls; the ratio was 0.78–0.82 in each): sharing it made
#: both forms faster, and full gained more (expanded: 4.15 against 2.71 ms).  The losing 144 and
#: the winning 434 are 3× apart, and 256 lies 1.7–1.8× from each.  After
#: CSE the flux stages do 5.5–7.5 FLOPs per value (binary), 14.5 (P1 φ) and
#: 69.7 (P1 µ): a gap of 2× only, and counting it would lower forms that
#: are not used.
SPLIT_FLOPS_PER_VALUE = 256


class SplitKernels:
    """Result of a split: the flux pre-computation and the main kernel."""

    def __init__(
        self,
        flux_kernel: AssignmentCollection,
        main_kernel: AssignmentCollection,
        flux_field: Field,
    ):
        self.flux_kernel = flux_kernel
        self.main_kernel = main_kernel
        self.flux_field = flux_field

    def __iter__(self):
        return iter((self.flux_kernel, self.main_kernel))

    def flops_per_buffered_value(self) -> float:
        """The flux stage's normalized FLOPs per buffered face value.

        Counted (:func:`repro.perfmodel.flops.count_operations`) on the
        collection as discretized, before any simplification or CSE, and
        divided by the flux field's slots: each cell buffers one value per
        axis and component, on its lower face.
        """
        from ..perfmodel.flops import count_operations

        flops = count_operations(self.flux_kernel).normalized_flops()
        return flops / self.flux_field.index_shape[0]

    def buffering_pays(self) -> bool:
        """The selection rule: split when each buffered value saves more than
        :data:`SPLIT_FLOPS_PER_VALUE` FLOPs."""
        return self.flops_per_buffered_value() > SPLIT_FLOPS_PER_VALUE


def materialize_fluxes(
    main: AssignmentCollection,
    collector: FluxCollector,
    dim: int,
    flux_field_name: str = "flux",
) -> SplitKernels:
    """Turn flux placeholders into a staggered field + pre-computation kernel.

    The staggered field stores, at cell ``x`` and slot ``s``, the flux value
    on the *lower* face of ``x`` along the slot's axis.  The main kernel then
    reads ``flux[x]`` and ``flux[x + e_axis]``.
    """
    n_slots = len(collector)
    if n_slots == 0:
        raise ValueError("no fluxes were collected — nothing to split")
    flux_field = Field(
        flux_field_name,
        spatial_dimensions=dim,
        index_shape=(n_slots,),
        staggered=True,
        slot_axes=tuple(axis for axis, _ in collector.entries),
    )

    flux_assignments = [
        Assignment(flux_field.center(slot), expr)
        for slot, (axis, expr) in enumerate(collector.entries)
    ]
    flux_kernel = AssignmentCollection(
        flux_assignments, name=main.name + "_flux"
    )

    slot_axis = {slot: axis for slot, (axis, _) in enumerate(collector.entries)}

    def resolve(symbol: sp.Symbol):
        m = _PLACEHOLDER_RE.fullmatch(symbol.name)
        if not m:
            return None
        slot, axis, shifted = (int(g) for g in m.groups())
        assert slot_axis[slot] == axis, "placeholder axis mismatch"
        acc = flux_field.center(slot)
        return acc.shifted(axis, 1) if shifted else acc

    def replace_placeholders(expr: sp.Expr) -> sp.Expr:
        mapping = {}
        for s in expr.free_symbols:
            if isinstance(s, sp.Symbol) and not isinstance(s, FieldAccess):
                acc = resolve(s)
                if acc is not None:
                    mapping[s] = acc
        return expr.xreplace(mapping) if mapping else expr

    main_kernel = main.transform_rhs(replace_placeholders)
    main_kernel.name = main.name + "_main"
    return SplitKernels(flux_kernel, main_kernel, flux_field)
