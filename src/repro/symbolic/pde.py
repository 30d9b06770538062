"""Evolution equations — the PDE layer.

An :class:`EvolutionEquation` couples the time derivative of one field
component to a right-hand side expression:

.. math::  r(\\phi)\\,\\partial_t u_\\alpha = \\mathrm{rhs}_\\alpha

with an optional local relaxation prefactor ``r`` (e.g. the ``τ(φ) ε`` of the
Allen-Cahn equation).  A :class:`PDESystem` groups the equations that one
compute kernel should update (e.g. all N phase fields, or all K−1 chemical
potential components).  A system may also name *shared* terms — right-hand
side parts that several equations read, such as the Lagrange multiplier of
the Allen-Cahn equations: the equations refer to them by symbol, and the
discretization evaluates each once per cell.
"""

from __future__ import annotations

from typing import Sequence

import sympy as sp

from .assignment import Assignment
from .field import Field, FieldAccess

__all__ = ["EvolutionEquation", "PDESystem"]


class EvolutionEquation:
    """``relaxation * ∂t(unknown) = rhs`` for a single field component."""

    def __init__(self, unknown: FieldAccess, rhs: sp.Expr, relaxation: sp.Expr = 1):
        if not isinstance(unknown, FieldAccess):
            raise TypeError("unknown must be a FieldAccess")
        if any(o != 0 for o in unknown.offsets):
            raise ValueError("evolution equations must be written for the center cell")
        self.unknown = unknown
        self.rhs = sp.sympify(rhs)
        self.relaxation = sp.sympify(relaxation)

    @property
    def field(self) -> Field:
        return self.unknown.field

    def __repr__(self):
        r = "" if self.relaxation == 1 else f"{self.relaxation} * "
        return f"{r}dt({self.unknown}) = {sp.sstr(self.rhs)[:80]}..."


class PDESystem:
    """The set of evolution equations updated by one kernel.

    *shared* binds terms that several right-hand sides read, in order (a
    term may read the ones before it); an equation refers to a term by its
    symbol.  The discretization keeps each a named value of the kernel
    instead of expanding it into every equation that reads it.
    """

    def __init__(
        self,
        equations: Sequence[EvolutionEquation],
        name: str = "pde",
        shared: Sequence[Assignment] = (),
    ):
        equations = list(equations)
        shared = list(shared)
        if not equations:
            raise ValueError("PDESystem needs at least one equation")
        fields = {eq.field for eq in equations}
        if len(fields) != 1:
            raise ValueError(
                "all equations of one system must evolve the same field; "
                f"got {sorted(f.name for f in fields)}"
            )
        unknowns = [eq.unknown for eq in equations]
        if len(set(unknowns)) != len(unknowns):
            raise ValueError("duplicate unknown in PDE system")
        names = [a.lhs for a in shared]
        if len(set(names)) != len(names) or any(a.is_field_store for a in shared):
            raise ValueError("shared terms must bind distinct plain symbols")
        self.equations = equations
        self.shared = shared
        self.name = name

    @property
    def field(self) -> Field:
        return self.equations[0].field

    def __len__(self):
        return len(self.equations)

    def __repr__(self):
        return f"PDESystem({self.name!r}, {len(self.equations)} equations on {self.field.name})"
