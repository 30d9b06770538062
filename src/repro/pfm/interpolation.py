"""Interpolation functions for multi-phase-field models (paper §3.1–3.2).

Two families are used by the grand-potential model:

* ``h_α(φ)`` — interpolates the grand potential density between phases.  It
  must map 0→0, 1→1 with zero gradient at both ends so that the bulk states
  are stationary.  The standard cubic polynomial ``h(x) = x²(3−2x)`` is the
  default.
* ``g_α(φ)`` — a *simpler* interpolation for the mobility, following
  Karma's non-variational formulation (the paper's remark below Eq. 9).
  Linear ``g(x) = x`` by default.
"""

from __future__ import annotations

import sympy as sp

__all__ = ["h_interp", "h_interp_prime", "g_interp", "h_quintic"]


def h_interp(x: sp.Expr) -> sp.Expr:
    """Cubic interpolation ``x²(3 − 2x)``: h(0)=0, h(1)=1, h'(0)=h'(1)=0."""
    x = sp.sympify(x)
    return x**2 * (3 - 2 * x)


def h_interp_prime(x: sp.Expr) -> sp.Expr:
    """Derivative ``6x(1 − x)`` of the cubic interpolation."""
    x = sp.sympify(x)
    return 6 * x * (1 - x)


def h_quintic(x: sp.Expr) -> sp.Expr:
    """Quintic interpolation ``x³(10 − 15x + 6x²)`` (also h''(0)=h''(1)=0)."""
    x = sp.sympify(x)
    return x**3 * (10 - 15 * x + 6 * x**2)


def g_interp(x: sp.Expr) -> sp.Expr:
    """Mobility interpolation (linear) used in Eq. 9."""
    return sp.sympify(x)
