"""Multi-phase potentials ω(φ) — Eq. (5) of the paper.

The multi-obstacle potential

.. math::

    \\omega(\\phi) = \\frac{16}{\\pi^2} \\sum_{\\alpha<\\beta}
        \\gamma_{\\alpha\\beta}\\, \\phi_\\alpha \\phi_\\beta
        + \\sum_{\\alpha<\\beta<\\delta}
        \\gamma_{\\alpha\\beta\\delta}\\, \\phi_\\alpha\\phi_\\beta\\phi_\\delta

with higher-order terms suppressing spurious third phases.  The obstacle
part (infinite outside the Gibbs simplex) is realised by the projection
kernel (:meth:`repro.pfm.model.GrandPotentialModel.projection_collection`),
the established practice for this potential.  A smooth multi-well variant
is provided for comparison/testing.
"""

from __future__ import annotations

from typing import Callable

import sympy as sp

from ..symbolic.field import Field

__all__ = ["multi_obstacle_potential", "multi_well_potential", "pairwise_sum"]


def pairwise_sum(n: int, term: Callable[[int, int], sp.Expr]) -> sp.Expr:
    """``Σ_{α<β} term(α, β)`` over *n* phases."""
    return sp.Add(*[term(a, b) for b in range(n) for a in range(b)])


def _gamma_lookup(gamma, a: int, b: int) -> sp.Expr:
    if callable(gamma):
        return sp.sympify(gamma(a, b))
    try:
        return sp.sympify(gamma[a][b])
    except TypeError:
        return sp.sympify(gamma)


def multi_obstacle_potential(
    phi: Field,
    gamma,
    gamma_triple=None,
) -> sp.Expr:
    """Eq. (5): pairwise obstacle terms plus optional triple-phase penalty.

    Parameters
    ----------
    phi:
        Phase field with ``N`` inner indices.
    gamma:
        Pairwise interface energies: nested sequence ``gamma[a][b]``, a
        callable ``(a, b) → value``, or a scalar used for all pairs.
    gamma_triple:
        Higher-order coefficient(s): scalar, callable ``(a, b, d) → value``
        or nested mapping; ``None`` disables the term.
    """
    (n,) = phi.index_shape
    pre = sp.Rational(16, 1) / sp.pi**2
    omega = pre * pairwise_sum(
        n, lambda a, b: _gamma_lookup(gamma, a, b) * phi.center(a) * phi.center(b)
    )
    if gamma_triple is not None:
        triples = []
        for d in range(n):
            for b in range(d):
                for a in range(b):
                    if callable(gamma_triple):
                        g3 = sp.sympify(gamma_triple(a, b, d))
                    else:
                        try:
                            g3 = sp.sympify(gamma_triple[a][b][d])
                        except TypeError:
                            g3 = sp.sympify(gamma_triple)
                    triples.append(g3 * phi.center(a) * phi.center(b) * phi.center(d))
        omega += sp.Add(*triples)
    return omega


def multi_well_potential(phi: Field, gamma) -> sp.Expr:
    """Smooth multi-well alternative ``9 Σ γ_ab φ_a² φ_b²`` (for comparison)."""
    (n,) = phi.index_shape
    return 9 * pairwise_sum(
        n,
        lambda a, b: _gamma_lookup(gamma, a, b) * phi.center(a) ** 2 * phi.center(b) ** 2,
    )
