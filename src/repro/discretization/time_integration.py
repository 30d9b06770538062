"""Explicit time integration: PDE systems → stencil assignment collections.

Implements the explicit Euler scheme used by the paper (§3.3, Algorithm 1):

.. math::  u^{n+1} = u^n + \\Delta t \\cdot \\mathrm{rhs}(u^n) / r(u^n)

producing either a single "full" kernel or, via flux collection, the
"split" variant: a staggered flux stage and the update that reads it.  The
system's shared terms are discretized once each, with the same flux
collection, and become the collection's subexpressions.
"""

from __future__ import annotations

from ..symbolic.assignment import Assignment, AssignmentCollection
from ..symbolic.coordinates import dt as dt_symbol
from ..symbolic.field import Field, FieldAccess
from ..symbolic.pde import PDESystem
from .finite_differences import FiniteDifferenceDiscretization, FluxCollector
from .staggered import SplitKernels, materialize_fluxes

__all__ = ["discretize_system"]


def discretize_system(
    system: PDESystem,
    dst_field: Field,
    discretizer: FiniteDifferenceDiscretization,
    variant: str = "full",
    flux_field_name: str | None = None,
) -> AssignmentCollection | SplitKernels:
    """Discretize all equations of *system* into update kernel(s).

    Parameters
    ----------
    variant:
        ``"full"`` recomputes staggered fluxes at both faces in one sweep;
        ``"split"`` collects them into a staggered field written by a flux
        stage and read by the update (:class:`SplitKernels`).
    """
    if variant not in ("full", "split"):
        raise ValueError("variant must be 'full' or 'split'")

    from ..observability.recorder import get_recorder

    with get_recorder().span(
        f"discretize:{system.name}",
        category="discretization",
        variant=variant,
        scheme="euler",
        equations=len(system.equations),
    ):
        if dst_field.index_shape != system.field.index_shape:
            raise ValueError(
                f"destination field {dst_field.name} has index shape "
                f"{dst_field.index_shape}, expected {system.field.index_shape}"
            )

        collector = FluxCollector() if variant == "split" else None

        shared = [
            Assignment(term.lhs, discretizer(term.rhs, collector)) for term in system.shared
        ]
        main_assignments: list[Assignment] = []
        for eq in system.equations:
            rhs = discretizer(eq.rhs, collector)
            relax = discretizer(eq.relaxation, collector)
            update = eq.unknown + dt_symbol * rhs / relax
            dst_access = FieldAccess(dst_field, eq.unknown.offsets, eq.unknown.index)
            main_assignments.append(Assignment(dst_access, update))

        ac = AssignmentCollection(
            main_assignments, shared, name=system.name,
            shared_symbols=[term.lhs for term in shared],
        )
        if variant == "full":
            return ac
        return materialize_fluxes(
            ac,
            collector,
            dim=discretizer.dim,
            flux_field_name=flux_field_name or f"{system.name}_flux",
        )
