"""Unevaluated continuous differential operators.

These nodes let the energy-functional and PDE layers be written in continuous
mathematical notation; they are later eliminated by the discretization layer
(:mod:`repro.discretization.finite_differences`):

* :class:`Diff` — spatial partial derivative ``∂/∂x_axis`` of an arbitrary
  expression.
* :class:`Transient` — time derivative ``∂/∂t`` of a field access.
* :class:`Divergence` — explicit divergence of a flux vector; the
  discretizer treats its components as staggered fluxes and can split them
  into a pre-computation kernel.

plus the vector-calculus helpers ``grad``, ``div``, ``gradient_norm``.
"""

from __future__ import annotations


import sympy as sp

from .field import FieldAccess

__all__ = [
    "Diff",
    "Transient",
    "Divergence",
    "diff",
    "grad",
    "div",
    "transient",
    "gradient_norm",
    "expand_diff",
    "diff_depth",
]


class Diff(sp.Expr):
    """Unevaluated partial derivative of *arg* along spatial *axis*.

    ``Diff`` does **not** auto-apply linearity or the product rule; use
    :func:`expand_diff` to push derivatives down to field accesses where this
    is wanted.  Keeping the operator unevaluated preserves the
    divergence-of-fluxes structure the staggered discretization needs.
    """

    _op_priority = 12.0

    def __new__(cls, arg, axis: int):
        arg = sp.sympify(arg)
        axis = int(axis)
        if arg.is_Number:
            return sp.S.Zero
        obj = sp.Expr.__new__(cls, arg, sp.Integer(axis))
        return obj

    @property
    def arg(self) -> sp.Expr:
        return self.args[0]

    @property
    def axis(self) -> int:
        return int(self.args[1])

    def _sympystr(self, printer):
        return f"D({printer._print(self.arg)}, {self.axis})"

    _sympyrepr = _sympystr

    @property
    def free_symbols(self):
        return self.arg.free_symbols


class Transient(sp.Expr):
    """Unevaluated time derivative ``∂(access)/∂t`` of a field access.

    The discretizer resolves it either via the explicit Euler update itself
    (when it is the left-hand side of an evolution equation) or — when it
    appears on a right-hand side, as in the anti-trapping current — by the
    finite difference ``(dst − src)/dt`` of the paired destination field.
    """

    _op_priority = 12.0

    def __new__(cls, arg):
        arg = sp.sympify(arg)
        if not isinstance(arg, FieldAccess):
            raise TypeError("Transient expects a FieldAccess")
        return sp.Expr.__new__(cls, arg)

    @property
    def arg(self) -> FieldAccess:
        return self.args[0]

    def _sympystr(self, printer):
        return f"dt({printer._print(self.arg)})"

    _sympyrepr = _sympystr


class Divergence(sp.Expr):
    """Explicit divergence ``Σ_i ∂(flux_i)/∂x_i`` of a flux vector.

    Marking divergences explicitly lets the discretizer evaluate each flux
    component at staggered (face) positions and lets the split-kernel
    transformation cache them in a staggered temporary field (the "µ-split"
    variant of the paper).
    """

    def __new__(cls, *flux):
        # accept both Divergence([fx, fy, fz]) and Divergence(fx, fy, fz);
        # the latter form is what sympy's tree-rebuilding (func(*args)) uses
        if len(flux) == 1 and isinstance(flux[0], (list, tuple, sp.MatrixBase)):
            flux = tuple(flux[0])
        flux = tuple(sp.sympify(f) for f in flux)
        if all(f == 0 for f in flux):
            return sp.S.Zero
        return sp.Expr.__new__(cls, *flux)

    @property
    def flux(self) -> tuple:
        return self.args

    def as_diff_sum(self) -> sp.Expr:
        return sp.Add(*[Diff(f, i) for i, f in enumerate(self.args)])

    def _sympystr(self, printer):
        inner = ", ".join(printer._print(a) for a in self.args)
        return f"Div({inner})"

    _sympyrepr = _sympystr


# ---------------------------------------------------------------------------
# user-facing helpers


def diff(expr, *axes) -> sp.Expr:
    """Nested unevaluated derivative: ``diff(f, 0, 1) == ∂_y ∂_x f``."""
    result = sp.sympify(expr)
    for a in axes:
        result = Diff(result, a)
    return result


def grad(expr, dim: int = 3) -> sp.Matrix:
    """Gradient vector of *expr* (column matrix of :class:`Diff` nodes)."""
    expr = sp.sympify(expr)
    if isinstance(expr, FieldAccess):
        dim = expr.field.spatial_dimensions
    return sp.Matrix([Diff(expr, i) for i in range(dim)])


def div(flux) -> sp.Expr:
    """Divergence of a flux vector (sequence or sympy Matrix)."""
    if isinstance(flux, sp.MatrixBase):
        flux = list(flux)
    return Divergence(flux)


def transient(access) -> Transient:
    """Time derivative of a field access."""
    return Transient(access)


def gradient_norm(expr, dim: int = 3, squared: bool = False) -> sp.Expr:
    """``|∇expr|`` (or its square) built from unevaluated derivatives."""
    expr = sp.sympify(expr)
    if isinstance(expr, FieldAccess):
        dim = expr.field.spatial_dimensions
    sq = sp.Add(*[Diff(expr, i) ** 2 for i in range(dim)])
    return sq if squared else sp.sqrt(sq)


# ---------------------------------------------------------------------------
# structural transformations


def expand_diff(expr: sp.Expr) -> sp.Expr:
    """Apply linearity and product rule to push Diff nodes onto atoms.

    Constants (expressions without field accesses or coordinates) have zero
    spatial derivative.  ``Diff`` of a non-atomic function (e.g. sqrt of an
    access) falls back to the chain rule via sympy differentiation with a
    dummy.
    """
    from .coordinates import CoordinateSymbol

    def depends_on_space(e: sp.Expr) -> bool:
        return bool(e.atoms(FieldAccess, CoordinateSymbol, Transient))

    def rec(e: sp.Expr) -> sp.Expr:
        if isinstance(e, Diff):
            a, axis = rec(e.arg), e.axis
            if not depends_on_space(a):
                return sp.S.Zero
            if isinstance(a, (FieldAccess, CoordinateSymbol)):
                return Diff(a, axis)
            if isinstance(a, sp.Add):
                return sp.Add(*[rec(Diff(term, axis)) for term in a.args])
            if isinstance(a, sp.Mul):
                terms = []
                for i, factor in enumerate(a.args):
                    others = a.args[:i] + a.args[i + 1:]
                    d = rec(Diff(factor, axis))
                    if d != 0:
                        terms.append(sp.Mul(*others) * d)
                return sp.Add(*terms)
            if isinstance(a, sp.Pow):
                base, expo = a.args
                if not depends_on_space(expo):
                    return expo * base ** (expo - 1) * rec(Diff(base, axis))
            # generic chain rule through a unary function
            if isinstance(a, sp.Function) and len(a.args) == 1:
                u = sp.Dummy("u")
                outer = sp.diff(a.func(u), u).subs(u, a.args[0])
                return outer * rec(Diff(a.args[0], axis))
            return Diff(a, axis)
        if not e.args:
            return e
        return e.func(*[rec(arg) for arg in e.args])

    return rec(sp.sympify(expr))


def diff_depth(expr: sp.Expr) -> int:
    """Maximum nesting depth of Diff/Divergence operators in *expr*."""
    expr = sp.sympify(expr)
    if isinstance(expr, Diff):
        return 1 + diff_depth(expr.arg)
    if isinstance(expr, Divergence):
        return 1 + max((diff_depth(a) for a in expr.args), default=0)
    if not expr.args:
        return 0
    return max((diff_depth(a) for a in expr.args), default=0)
