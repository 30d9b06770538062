"""Energy functionals and variational derivatives — the topmost DSL layer.

A phase-field model is defined by a free-energy functional

.. math::

    \\Psi(\\phi, \\mu, T) = \\int_V \\epsilon\\, a(\\phi, \\nabla\\phi)
        + \\tfrac{1}{\\epsilon}\\,\\omega(\\phi) + \\psi(\\phi, \\mu, T)\\, dV .

The density is written with field accesses and :class:`~repro.symbolic.operators.Diff`
nodes (via ``grad``).  :func:`functional_derivative` computes the variational
(Euler-Lagrange) derivative

.. math::

    \\frac{\\delta \\Psi}{\\delta \\phi_\\alpha} =
        \\frac{\\partial \\psi}{\\partial \\phi_\\alpha}
        - \\sum_i \\partial_i \\frac{\\partial \\psi}{\\partial(\\partial_i \\phi_\\alpha)} ,

yielding an expression with (possibly nested) ``Diff`` nodes that the
discretization layer lowers to stencils.
"""

from __future__ import annotations

from typing import Sequence

import sympy as sp

from .field import FieldAccess
from .operators import Diff

__all__ = ["functional_derivative", "EnergyFunctional"]


def _diff_atoms(expr: sp.Expr) -> set[Diff]:
    """All first-order Diff nodes whose argument is a plain field access."""
    atoms = set()
    for d in expr.atoms(Diff):
        if not isinstance(d.arg, FieldAccess):
            raise ValueError(
                "energy densities may only contain first derivatives of field "
                f"accesses; found {d}"
            )
        atoms.add(d)
    return atoms


def functional_derivative(energy_density: sp.Expr, access: FieldAccess) -> sp.Expr:
    """Variational derivative ``δ(∫ energy_density dV) / δ access``.

    ``Diff(access, i)`` nodes inside the density are treated as independent
    variables (standard calculus of variations); the divergence part is
    returned with an outer unevaluated ``Diff`` so that the discretizer can
    apply the staggered divergence-of-fluxes scheme.
    """
    from ..observability.recorder import get_recorder

    with get_recorder().span(
        f"variational_derivative:{access.name}", category="pde"
    ):
        return _functional_derivative(energy_density, access)


def _functional_derivative(energy_density: sp.Expr, access: FieldAccess) -> sp.Expr:
    energy_density = sp.sympify(energy_density)
    dim = access.field.spatial_dimensions

    dummies: dict[Diff, sp.Dummy] = {}
    for d in _diff_atoms(energy_density):
        dummies[d] = sp.Dummy(f"grad{d.axis}_{d.arg.name}", real=True)
    flat = energy_density.xreplace(dummies)
    back = {v: k for k, v in dummies.items()}

    bulk = sp.diff(flat, access).xreplace(back)

    divergence_terms = []
    for i in range(dim):
        key = Diff(access, i)
        if key in dummies:
            inner = sp.diff(flat, dummies[key]).xreplace(back)
            if inner != 0:
                divergence_terms.append(Diff(inner, i))
    return bulk - sp.Add(*divergence_terms)


class EnergyFunctional:
    """Convenience container for a functional of the paper's form (Eq. 3).

    Parameters
    ----------
    gradient_energy:
        ``a(φ, ∇φ)`` — scaled by ``ε`` in the density.
    potential:
        ``ω(φ)`` — scaled by ``1/ε``.
    driving_force:
        ``ψ(φ, µ, T)`` — entering unscaled.
    epsilon:
        Interface width parameter (symbol or number).
    extra_terms:
        Additional density contributions (e.g. elastic or magnetic energy)
        added verbatim — the "user can extend the description on each level"
        hook from the paper.
    """

    def __init__(
        self,
        gradient_energy: sp.Expr = 0,
        potential: sp.Expr = 0,
        driving_force: sp.Expr = 0,
        epsilon: sp.Expr = sp.Symbol("epsilon", positive=True),
        extra_terms: Sequence[sp.Expr] = (),
    ):
        self.gradient_energy = sp.sympify(gradient_energy)
        self.potential = sp.sympify(potential)
        self.driving_force = sp.sympify(driving_force)
        self.epsilon = sp.sympify(epsilon)
        self.extra_terms = [sp.sympify(e) for e in extra_terms]

    @property
    def density(self) -> sp.Expr:
        return (
            self.epsilon * self.gradient_energy
            + self.potential / self.epsilon
            + self.driving_force
            + sp.Add(*self.extra_terms)
        )

    def variational_derivative(self, access: FieldAccess) -> sp.Expr:
        """``δΨ/δ(access)`` of the full density."""
        return functional_derivative(self.density, access)

    def add_term(self, term: sp.Expr) -> "EnergyFunctional":
        self.extra_terms.append(sp.sympify(term))
        return self

    def __repr__(self):
        return (
            f"EnergyFunctional(eps*a + omega/eps + psi"
            f"{' + %d extra' % len(self.extra_terms) if self.extra_terms else ''})"
        )
