"""Explicit time integration: PDE systems → stencil assignment collections.

Implements the explicit Euler scheme used by the paper (§3.3, Algorithm 1):

.. math::  u^{n+1} = u^n + \\Delta t \\cdot \\mathrm{rhs}(u^n) / r(u^n)

producing either a single "full" kernel or, via flux collection, the
"split" variant with a staggered pre-computation kernel.
"""

from __future__ import annotations

import sympy as sp

from ..symbolic.assignment import Assignment, AssignmentCollection
from ..symbolic.coordinates import dt as dt_symbol
from ..symbolic.field import Field, FieldAccess
from ..symbolic.pde import PDESystem
from .finite_differences import FiniteDifferenceDiscretization, FluxCollector
from .staggered import SplitKernels, materialize_fluxes

__all__ = ["discretize_system", "HeunKernels"]


class HeunKernels:
    """The two sweeps of a Heun (explicit trapezoidal, RK2) step.

    Demonstrates the paper's §3.3 extension point: a new time integrator is
    one well-identified code-generation module and automatically inherits
    every later optimization (CSE, hoisting, all backends).

    Step structure (``u`` = source field, ``s`` = stage field, ``d`` = dst):

    1. ``s = u + dt·f(u)``          (the Euler predictor)
    2. ``d = u + dt/2·(f(u) + f(s))``  (trapezoidal corrector)

    Ghost layers of the stage field must be synchronized between sweeps.
    """

    def __init__(self, stage_kernel, corrector_kernel, stage_field: Field):
        self.stage_kernel = stage_kernel
        self.corrector_kernel = corrector_kernel
        self.stage_field = stage_field

    def __iter__(self):
        return iter((self.stage_kernel, self.corrector_kernel))


def _retarget(expr, src_field: Field, new_field: Field):
    """Replace accesses to *src_field* by accesses to *new_field*."""
    from ..symbolic.field import FieldAccess

    mapping = {
        acc: FieldAccess(new_field, acc.offsets, acc.index)
        for acc in expr.atoms(FieldAccess)
        if acc.field == src_field
    }
    return expr.xreplace(mapping) if mapping else expr


def _discretize_heun(
    system: PDESystem,
    dst_field: Field,
    discretizer: FiniteDifferenceDiscretization,
    stage_field_name: str,
) -> HeunKernels:
    from ..symbolic.operators import Transient

    for eq in system.equations:
        if eq.rhs.atoms(Transient):
            raise NotImplementedError(
                "Heun integration of right-hand sides containing Transient "
                "terms (e.g. the anti-trapping current) is not supported"
            )
    src = system.field
    stage = Field(
        stage_field_name,
        spatial_dimensions=src.spatial_dimensions,
        index_shape=src.index_shape,
        dtype=src.dtype,
    )

    stage_assignments = []
    corrector_assignments = []
    for eq in system.equations:
        rhs_src = discretizer(eq.rhs) / discretizer(eq.relaxation)
        rhs_stage = _retarget(rhs_src, src, stage)
        stage_assignments.append(
            Assignment(
                FieldAccess(stage, eq.unknown.offsets, eq.unknown.index),
                eq.unknown + dt_symbol * rhs_src,
            )
        )
        corrector_assignments.append(
            Assignment(
                FieldAccess(dst_field, eq.unknown.offsets, eq.unknown.index),
                eq.unknown + dt_symbol / 2 * (rhs_src + rhs_stage),
            )
        )
    return HeunKernels(
        AssignmentCollection(stage_assignments, name=system.name + "_stage"),
        AssignmentCollection(corrector_assignments, name=system.name + "_corrector"),
        stage,
    )


def discretize_system(
    system: PDESystem,
    dst_field: Field,
    discretizer: FiniteDifferenceDiscretization,
    variant: str = "full",
    scheme: str = "euler",
    flux_field_name: str | None = None,
) -> AssignmentCollection | SplitKernels:
    """Discretize all equations of *system* into update kernel(s).

    Parameters
    ----------
    variant:
        ``"full"`` recomputes staggered fluxes at both faces in one sweep;
        ``"split"`` caches them in a staggered field (two sweeps).
    scheme:
        Time integrator: ``"euler"`` (the application domain's established
        scheme) or ``"heun"`` (explicit trapezoidal RK2 — the paper's §3.3
        outlook delivered: a new scheme is one code-generation module and
        inherits every later optimization).
    """
    if scheme not in ("euler", "heun"):
        raise NotImplementedError(
            f"time integration scheme {scheme!r} not implemented "
            "(available: 'euler', 'heun')"
        )
    if variant not in ("full", "split"):
        raise ValueError("variant must be 'full' or 'split'")

    from ..observability.recorder import get_recorder

    with get_recorder().span(
        f"discretize:{system.name}",
        category="discretization",
        variant=variant,
        scheme=scheme,
        equations=len(system.equations),
    ):
        if scheme == "heun":
            if variant != "full":
                raise NotImplementedError(
                    "Heun integration supports only variant='full'"
                )
            return _discretize_heun(
                system,
                dst_field,
                discretizer,
                flux_field_name or f"{system.name}_stage",
            )
        if dst_field.index_shape != system.field.index_shape:
            raise ValueError(
                f"destination field {dst_field.name} has index shape "
                f"{dst_field.index_shape}, expected {system.field.index_shape}"
            )

        collector = FluxCollector() if variant == "split" else None

        main_assignments: list[Assignment] = []
        for eq in system.equations:
            rhs = discretizer(eq.rhs, collector)
            relax = discretizer(eq.relaxation, collector)
            update = eq.unknown + dt_symbol * rhs / relax
            dst_access = FieldAccess(dst_field, eq.unknown.offsets, eq.unknown.index)
            main_assignments.append(Assignment(dst_access, update))

        ac = AssignmentCollection(main_assignments, name=system.name)
        if variant == "full":
            return ac
        return materialize_fluxes(
            ac,
            collector,
            dim=discretizer.dim,
            flux_field_name=flux_field_name or f"{system.name}_flux",
        )
