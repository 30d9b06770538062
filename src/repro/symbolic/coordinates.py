"""Spatial/temporal coordinate symbols and grid-spacing symbols.

The continuous layers of the pipeline (energy functional, PDE) are written in
terms of abstract coordinates ``x_0, x_1, x_2`` and time ``t``.  After
discretization these become *analytic dependencies* of a stencil: an
expression containing :data:`t` or a :class:`CoordinateSymbol` is evaluated
per cell (or hoisted out of inner loops when it only depends on outer loop
coordinates — see :mod:`repro.ir.loops`).
"""

from __future__ import annotations

import sympy as sp

__all__ = [
    "CoordinateSymbol",
    "coord",
    "x_",
    "t",
    "dt",
    "dx",
    "spacing",
]


class CoordinateSymbol(sp.Symbol):
    """A symbol representing the physical coordinate along one spatial axis.

    In generated kernels a coordinate symbol is lowered to
    ``origin[d] + (cell_index[d] + 0.5) * dx[d]`` (cell centred), possibly
    shifted by ``dx/2`` for staggered evaluations.
    """

    def __new__(cls, axis: int):
        axis = int(axis)
        obj = super().__new__(cls, f"x_{axis}", real=True)
        obj._axis = axis
        return obj

    # sympy's Symbol caching can hand back an object created earlier; the
    # axis is recoverable from the name, so make the property robust.
    @property
    def axis(self) -> int:
        return getattr(self, "_axis", int(self.name.split("_")[1]))

    def __getnewargs_ex__(self):
        return (self.axis,), {}

    # sympy's ReprPrinter dispatches on the class NAME and would route this
    # class to the sympy.vector CoordinateSymbol printer, which reads a
    # ``.coord_sys`` attribute we don't have; srepr() is what kernel
    # fingerprinting hashes, so emit our own deterministic form instead.
    def _sympyrepr(self, printer):
        return f"CoordinateSymbol({self.axis})"


def coord(axis: int) -> CoordinateSymbol:
    """Return the coordinate symbol for ``axis`` (0, 1 or 2)."""
    return CoordinateSymbol(axis)


#: Convenience tuple of the three spatial coordinate symbols.
x_ = (CoordinateSymbol(0), CoordinateSymbol(1), CoordinateSymbol(2))

#: The (continuous) time variable.  Becomes a kernel parameter.
t = sp.Symbol("t", real=True)

#: The time-step width of the explicit Euler scheme.
dt = sp.Symbol("dt", positive=True)


class _SpacingSymbol(sp.Symbol):
    """Grid spacing along one axis (``dx_0`` …).  Positive by construction."""

    def __new__(cls, axis: int):
        axis = int(axis)
        obj = super().__new__(cls, f"dx_{axis}", positive=True)
        obj._axis = axis
        return obj

    @property
    def axis(self) -> int:
        return getattr(self, "_axis", int(self.name.split("_")[1]))

    def __getnewargs_ex__(self):
        return (self.axis,), {}


def spacing(axis: int) -> sp.Symbol:
    """Return the grid-spacing symbol ``dx_<axis>``."""
    return _SpacingSymbol(axis)


#: Convenience tuple of the three spacing symbols.
dx = (spacing(0), spacing(1), spacing(2))
