"""Analytic temperature fields (frozen-temperature approximation).

Directional solidification imposes a moving temperature gradient

.. math::  T(x, t) = T_0 + G\\,(x_{a} - v\\,t)

analytic in one spatial coordinate and time.  Because the dependence is on
a *single* coordinate, the IR layer places that axis outermost and hoists
every temperature-dependent subexpression out of the inner loops — one of
the key manual optimizations of [Bauer et al. 2015] that the pipeline now
performs automatically (paper §3.4, §5.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy as sp

from ..symbolic.coordinates import CoordinateSymbol, t as t_symbol

__all__ = ["TemperatureField", "constant_temperature", "gradient_temperature"]


@dataclass(frozen=True)
class TemperatureField:
    """A temperature description exposing its symbolic expression."""

    expr: sp.Expr

    @property
    def is_constant(self) -> bool:
        return not (
            self.expr.atoms(CoordinateSymbol) or t_symbol in self.expr.free_symbols
        )

    @property
    def axes(self) -> set[int]:
        return {c.axis for c in self.expr.atoms(CoordinateSymbol)}

    @property
    def time_derivative(self) -> sp.Expr:
        return sp.diff(self.expr, t_symbol)


def constant_temperature(T0: float) -> TemperatureField:
    """Spatially and temporally constant temperature."""
    return TemperatureField(sp.Float(T0))


def gradient_temperature(T0: float, G: float, v: float, axis: int = 0) -> TemperatureField:
    """Moving frozen gradient ``T = T0 + G (x_axis − v t)``."""
    x = CoordinateSymbol(axis)
    return TemperatureField(sp.Float(T0) + sp.Float(G) * (x - sp.Float(v) * t_symbol))
