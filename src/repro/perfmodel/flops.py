"""Operation counting on the optimized stencil representation (Table 1).

FLOPs are counted by traversing the fully optimized assignment collection,
after constant folding and CSE, exactly as described in §3.6 ("floating
point operations are counted by traversing the fully optimized intermediate
representation").  The *normalized FLOP* metric weights each operation class
by its inverse throughput on the target microarchitecture; the paper's
Skylake weights are::

    add = 1, mul = 1, div = 16, sqrt(approx) = 10, rsqrt(approx) = 2

so that ``normalized = adds + muls + 16·divs + 10·sqrts + 2·rsqrts``
(this formula reproduces the last row of Table 1 from the rows above it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import sympy as sp

from ..ir.approximations import fast_division, fast_rsqrt, fast_sqrt
from ..symbolic.assignment import AssignmentCollection
from ..symbolic.field import Field, FieldAccess
from ..symbolic.random import RandomValue

__all__ = ["OperationCount", "count_operations", "SKYLAKE_WEIGHTS"]

#: Normalization weights used throughout the paper (Skylake throughput).
SKYLAKE_WEIGHTS: Mapping[str, float] = {
    "adds": 1.0,
    "muls": 1.0,
    "divs": 16.0,
    "sqrts": 10.0,
    "rsqrts": 2.0,
    "fast_divs": 4.0,
    "fast_sqrts": 4.0,
    "fast_rsqrts": 1.0,
    "funcs": 20.0,
    "rngs": 12.0,
    "blends": 1.0,
}


@dataclass
class OperationCount:
    """Per-cell operation and memory-access counts of a kernel."""

    adds: int = 0
    muls: int = 0
    divs: int = 0
    sqrts: int = 0
    rsqrts: int = 0
    fast_divs: int = 0
    fast_sqrts: int = 0
    fast_rsqrts: int = 0
    funcs: int = 0
    rngs: int = 0
    blends: int = 0
    loads: int = 0
    stores: int = 0

    _OP_FIELDS = (
        "adds",
        "muls",
        "divs",
        "sqrts",
        "rsqrts",
        "fast_divs",
        "fast_sqrts",
        "fast_rsqrts",
        "funcs",
        "rngs",
        "blends",
    )

    def normalized_flops(self, weights: Mapping[str, float] = SKYLAKE_WEIGHTS) -> float:
        """Weighted sum over all operation classes (paper's "norm. FLOPS")."""
        return sum(getattr(self, f) * weights.get(f, 1.0) for f in self._OP_FIELDS)

    @property
    def total_flops(self) -> int:
        return sum(getattr(self, f) for f in self._OP_FIELDS)

    @property
    def bytes_per_cell(self) -> int:
        """Double-precision traffic assuming no cache reuse (upper bound)."""
        return 8 * (self.loads + self.stores)

    def __add__(self, other: "OperationCount") -> "OperationCount":
        kwargs = {
            f: getattr(self, f) + getattr(other, f)
            for f in self._OP_FIELDS + ("loads", "stores")
        }
        return OperationCount(**kwargs)

    def as_dict(self) -> dict:
        return {f: getattr(self, f) for f in self._OP_FIELDS + ("loads", "stores")}

    def __str__(self):
        parts = [f"{k}={v}" for k, v in self.as_dict().items() if v]
        return f"OperationCount({', '.join(parts)}, norm={self.normalized_flops():.0f})"


def _pow_mul_count(n: int) -> int:
    """Multiplications for x**n via binary exponentiation (n >= 1)."""
    if n <= 1:
        return 0
    count = 0
    highest = n.bit_length() - 1
    count += highest  # squarings
    count += bin(n).count("1") - 1  # combines
    return count


class _Counter:
    def __init__(self):
        self.c = OperationCount()

    def visit(self, expr: sp.Expr) -> None:
        if isinstance(expr, (FieldAccess, sp.Symbol)) or expr.is_Number:
            return
        if isinstance(expr, RandomValue):
            self.c.rngs += 1
            # low/high are usually constants; count their math if not
            for a in expr.args[:2]:
                self.visit(a)
            return
        if isinstance(expr, fast_division):
            self.c.fast_divs += 1
            for a in expr.args:
                self.visit(a)
            return
        if isinstance(expr, fast_sqrt):
            self.c.fast_sqrts += 1
            self.visit(expr.args[0])
            return
        if isinstance(expr, fast_rsqrt):
            self.c.fast_rsqrts += 1
            self.visit(expr.args[0])
            return
        if isinstance(expr, sp.Add):
            self.c.adds += len(expr.args) - 1
            for a in expr.args:
                self.visit(a)
            return
        if isinstance(expr, sp.Mul):
            self._visit_mul(expr)
            return
        if isinstance(expr, sp.Pow):
            self._visit_pow(expr, in_mul=False)
            return
        if isinstance(expr, sp.Piecewise):
            # vectorized blend: evaluate all branches + one blend per pair
            for val, cond in expr.args:
                self.visit(val)
                if cond not in (True, False):
                    self.visit(cond)
            self.c.blends += max(len(expr.args) - 1, 1)
            return
        if isinstance(expr, (sp.StrictGreaterThan, sp.StrictLessThan, sp.GreaterThan,
                             sp.LessThan, sp.Equality, sp.Unequality)):
            self.c.blends += 1
            for a in expr.args:
                self.visit(a)
            return
        if isinstance(expr, sp.Function):
            self.c.funcs += 1
            for a in expr.args:
                self.visit(a)
            return
        for a in expr.args:
            self.visit(a)

    def _visit_mul(self, expr: sp.Mul) -> None:
        numerator_factors = 0
        denominator_factors = 0
        for f in expr.args:
            if f is sp.S.NegativeOne:
                continue  # sign flip is free
            if isinstance(f, sp.Pow) and f.args[1].is_number and f.args[1].is_negative:
                expo = -f.args[1]
                if expo == sp.Rational(1, 2):
                    self.c.rsqrts += 1
                    self.visit(f.args[0])
                    numerator_factors += 1  # rsqrt result multiplies in
                    continue
                denominator_factors += 1
                self._visit_pow_parts(f.args[0], expo, in_mul=True)
                continue
            if f.is_Rational and not f.is_Integer:
                numerator_factors += 1
                denominator_factors += 1  # rational constant: one constant div
                continue
            numerator_factors += 1
            self.visit(f)
        if denominator_factors:
            self.c.divs += 1
            self.c.muls += max(denominator_factors - 1, 0)
        self.c.muls += max(numerator_factors - 1, 0)

    def _visit_pow(self, expr: sp.Pow, in_mul: bool) -> None:
        base, expo = expr.args
        self._visit_pow_parts(base, expo, in_mul)

    def _visit_pow_parts(self, base: sp.Expr, expo: sp.Expr, in_mul: bool) -> None:
        if expo.is_Integer:
            n = int(expo)
            if n < 0:
                if not in_mul:
                    self.c.divs += 1
                n = -n
            self.c.muls += _pow_mul_count(n)
            self.visit(base)
            return
        if expo == sp.Rational(1, 2):
            self.c.sqrts += 1
            self.visit(base)
            return
        if expo == sp.Rational(-1, 2):
            self.c.rsqrts += 1
            self.visit(base)
            return
        if expo.is_Rational and expo.q == 2:
            self.c.sqrts += 1
            n = abs(int(expo.p))
            self.c.muls += _pow_mul_count(n)
            if expo.is_negative and not in_mul:
                self.c.divs += 1
            self.visit(base)
            return
        # generic pow -> exp/log
        self.c.funcs += 1
        self.visit(base)
        self.visit(expo)


def count_operations(
    ac: AssignmentCollection,
    skip_symbols: Iterable[sp.Symbol] = (),
    contracted: Field | None = None,
) -> OperationCount:
    """Count per-cell operations and memory accesses of a kernel.

    ``skip_symbols`` names temporaries that are hoisted out of the inner
    loops (loop-invariant code motion, §3.4); their defining assignments are
    amortized over a whole line of cells and therefore excluded from the
    per-cell count — this is how the pipeline automatically "exploits the
    special functional form of the temperature".  Accesses of the
    *contracted* field (a contracted split kernel's flux buffers,
    :func:`repro.ir.kernel.contract`) are no loads or stores.
    """
    skip = set(skip_symbols)
    counter = _Counter()
    for a in ac.all_assignments:
        if a.lhs in skip:
            continue
        counter.visit(a.rhs)
    counter.c.loads = sum(acc.field != contracted for acc in ac.field_reads)
    counter.c.stores = sum(acc.field != contracted for acc in ac.field_writes)
    return counter.c
