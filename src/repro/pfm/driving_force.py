"""Grand-potential driving force from parabolic fits — Eq. (6) of the paper.

Instead of calling CALPHAD thermodynamic databases at run time, each phase's
grand potential density is a parabolic fit

.. math::  \\psi_\\alpha(\\mu, T) = \\mu \\cdot A_\\alpha(T)\\,\\mu
            + B_\\alpha(T) \\cdot \\mu + C_\\alpha(T)

with coefficients affine-linear in T:  ``A(T) = A⁰ + A¹ T`` etc.  ``µ`` is
the (K−1)-dimensional chemical potential vector of a K-component alloy.

Derived thermodynamic quantities (all computed symbolically, "as soon as
the functional dependence of c on µ is defined"):

* concentration      ``c_α = −∂ψ_α/∂µ``  (vector)
* susceptibility     ``∂c_α/∂µ``          (symmetric matrix)
* entropy density    ``−∂ψ_α/∂T``
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy as sp

from ..symbolic.field import Field
from .interpolation import h_interp

__all__ = ["ParabolicPhaseData", "GrandPotentialDrivingForce"]


def _affine(c0, c1, T: sp.Expr):
    return sp.sympify(c0) + sp.sympify(c1) * T


@dataclass
class ParabolicPhaseData:
    """Parabolic grand-potential coefficients of one phase.

    ``a0``/``a1``: symmetric (K−1)×(K−1) arrays — constant and T-linear part
    of A(T); ``b0``/``b1``: length K−1 vectors; ``c0``/``c1``: scalars.
    """

    a0: np.ndarray
    a1: np.ndarray
    b0: np.ndarray
    b1: np.ndarray
    c0: float
    c1: float

    def __post_init__(self):
        self.a0 = np.atleast_2d(np.asarray(self.a0, dtype=float))
        self.a1 = np.atleast_2d(np.asarray(self.a1, dtype=float))
        self.b0 = np.atleast_1d(np.asarray(self.b0, dtype=float))
        self.b1 = np.atleast_1d(np.asarray(self.b1, dtype=float))
        k = self.b0.shape[0]
        if self.a0.shape != (k, k) or self.a1.shape != (k, k):
            raise ValueError("A coefficient shape mismatch")
        if not np.allclose(self.a0, self.a0.T) or not np.allclose(self.a1, self.a1.T):
            raise ValueError("A(T) must be symmetric")

    @property
    def n_mu(self) -> int:
        return self.b0.shape[0]

    def a_matrix(self, T: sp.Expr) -> sp.Matrix:
        k = self.n_mu
        return sp.Matrix(
            k, k, lambda i, j: _affine(self.a0[i, j], self.a1[i, j], T)
        )

    def b_vector(self, T: sp.Expr) -> sp.Matrix:
        return sp.Matrix([_affine(self.b0[i], self.b1[i], T) for i in range(self.n_mu)])

    def c_scalar(self, T: sp.Expr) -> sp.Expr:
        return _affine(self.c0, self.c1, T)

    # -- thermodynamics ------------------------------------------------------

    def psi(self, mu: sp.Matrix, T: sp.Expr) -> sp.Expr:
        """Grand potential density ψ_α(µ, T) — Eq. (6)."""
        A = self.a_matrix(T)
        return (mu.T * A * mu)[0, 0] + (self.b_vector(T).T * mu)[0, 0] + self.c_scalar(T)

    def concentration(self, mu: sp.Matrix, T: sp.Expr) -> sp.Matrix:
        """c_α(µ, T) = −∂ψ_α/∂µ = −(2 A µ + B)."""
        return -(2 * self.a_matrix(T) * mu + self.b_vector(T))

    def susceptibility(self, T: sp.Expr) -> sp.Matrix:
        """∂c_α/∂µ = −2 A(T) (independent of µ for parabolic fits)."""
        return -2 * self.a_matrix(T)

    def parameter_count(self) -> int:
        """Number of scalar configuration values this phase contributes."""
        k = self.n_mu
        sym = k * (k + 1) // 2
        return 2 * (sym + k + 1)  # ×2 for the affine-linear T dependence


class GrandPotentialDrivingForce:
    """ψ(φ, µ, T) = Σ_α ψ_α(µ, T) h_α(φ_α) and its derived quantities."""

    def __init__(self, phases: list[ParabolicPhaseData], h=h_interp):
        if not phases:
            raise ValueError("need at least one phase")
        k = {p.n_mu for p in phases}
        if len(k) != 1:
            raise ValueError("phases disagree on the number of µ components")
        self.phases = list(phases)
        self.h = h

    @property
    def n_mu(self) -> int:
        return self.phases[0].n_mu

    def mu_vector(self, mu: Field) -> sp.Matrix:
        if mu.index_shape != (self.n_mu,):
            raise ValueError(
                f"µ field has index shape {mu.index_shape}, expected ({self.n_mu},)"
            )
        return sp.Matrix([mu.center(m) for m in range(self.n_mu)])

    def psi_total(self, phi: Field, mu: Field, T: sp.Expr) -> sp.Expr:
        """The driving-force part of the energy density."""
        mv = self.mu_vector(mu)
        return sp.Add(
            *[
                p.psi(mv, T) * self.h(phi.center(a))
                for a, p in enumerate(self.phases)
            ]
        )

    def concentration_total(self, phi: Field, mu: Field, T: sp.Expr) -> sp.Matrix:
        """c(φ, µ, T) = Σ_α c_α(µ, T) h_α(φ)."""
        mv = self.mu_vector(mu)
        total = sp.zeros(self.n_mu, 1)
        for a, p in enumerate(self.phases):
            total += p.concentration(mv, T) * self.h(phi.center(a))
        return total

    def susceptibility_total(self, phi: Field, T: sp.Expr) -> sp.Matrix:
        """∂c/∂µ = Σ_α (∂c_α/∂µ) h_α(φ) — the matrix inverted in Eq. (8)."""
        total = sp.zeros(self.n_mu, self.n_mu)
        for a, p in enumerate(self.phases):
            total += p.susceptibility(T) * self.h(phi.center(a))
        return total
