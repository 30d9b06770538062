"""Split-kernel generation: caching staggered fluxes in a temporary field.

The paper's "µ-split"/"φ-split" kernel variants avoid computing every flux
twice (the left face value of a cell is the right face value of its left
neighbour): a flux stage writes all lower-face fluxes into a staggered
field, an update stage only differences them.  The paper runs the stages as
two sweeps and trades FLOPs for the flux field's memory traffic (Fig. 2).
On the CPU the IR contracts the field instead
(:func:`repro.ir.kernel.contract`): one kernel runs both stages plane by
plane through per-thread buffers, so the split form saves the FLOPs without
the traffic.  Whether it is worth it is decided per system, before any
CSE, by :meth:`SplitKernels.fluxes_dominate`.
"""

from __future__ import annotations

import re

import sympy as sp

from ..symbolic.assignment import Assignment, AssignmentCollection
from ..symbolic.field import Field, FieldAccess
from .finite_differences import FluxCollector

__all__ = ["materialize_fluxes", "SplitKernels"]

_PLACEHOLDER_RE = re.compile(r"__flux_(\d+)_(\d+)_(\d+)")


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

    def fluxes_dominate(self) -> bool:
        """The selection rule: the collected fluxes cost more than the rest of the update.

        Both sides in normalized FLOPs (:func:`repro.perfmodel.flops.count_operations`)
        of the collections as discretized, before any simplification or
        CSE: the full form computes every flux twice, so it spends the flux
        side once more per cell, the split form buffers it.  P1's µ (9 778
        against 442) is split; its φ (5 208 against 11 608) and every
        binary system are full.
        """
        from ..perfmodel.flops import count_operations

        flux = count_operations(self.flux_kernel).normalized_flops()
        return flux > count_operations(self.main_kernel).normalized_flops()


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
