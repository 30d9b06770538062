"""Canonical term order of sums, independent of ``PYTHONHASHSEED``.

Every sympy printer (``srepr``, the C and NumPy code printers) emits the
terms of an ``Add`` in :meth:`sympy.Expr.as_ordered_terms` order, which
ranks the sum's *generators* (the bases of its factors) with
``sorted(set_of_generators, key=default_sort_key)``.  Those keys are nested
tuples that hold sympy numbers, and ``Integer(1)`` and ``Float(1.0)`` are
neither equal nor ordered, so two generators such as ``mu_C - mu_W`` and
``1.0*mu_C - 0.2`` are *incomparable*.  Sorting a partially ordered set
returns whatever its start order suggests, and a ``set`` of sympy objects
starts in hash order: the printed term order — hence the C summation
order, the kernel fingerprint and the disk-cache key — changed with the
interpreter's hash seed.

:func:`ordered_terms` ranks the generators by the same keys with every
number replaced by its ``float`` value, which is a total order (numerically
equal coefficients tie and the next key entry decides — the order sympy
itself produces whenever the comparison is consistent).

The module holds the lowering rules every code printer must share for the
backends to agree bit for bit: besides the term order, how a small integer
power is spelled (:class:`SmallPowersAsProducts`).
"""

from __future__ import annotations

import sympy as sp
from sympy.core.sorting import default_sort_key

__all__ = ["CanonicalTermOrder", "SmallPowersAsProducts", "ordered_terms"]

_term_key, _ = sp.Expr._parse_order(None)


def _total(key):
    """A sympy sort key with its numbers as floats, so any two keys compare."""
    if isinstance(key, tuple):
        return tuple(_total(k) for k in key)
    return float(key) if isinstance(key, sp.Number) and key.is_real else key


def ordered_terms(expr: sp.Expr) -> list[sp.Expr]:
    """``expr.as_ordered_terms()`` with a hash-independent generator ranking."""
    if len(expr.args) == 2 and (expr.args[0].is_Number or expr.args[1].is_Number):
        # a number has no generator, so no ranking can move it; sympy's
        # special case decides between ``1 - 2*x`` and ``-2*x + 1``
        return expr.as_ordered_terms()
    terms, gens = expr.as_terms()
    rank = sorted(range(len(gens)), key=lambda i: _total(default_sort_key(gens[i])))
    ranked = [
        (term, (coeff, tuple(monom[i] for i in rank), ncpart))
        for term, (coeff, monom, ncpart) in terms
    ]
    return [term for term, _ in sorted(ranked, key=_term_key)]


class CanonicalTermOrder:
    """Printer mixin: sums print in :func:`ordered_terms` order."""

    def _as_ordered_terms(self, expr, order=None):
        return ordered_terms(expr)


class SmallPowersAsProducts:
    """Code-printer mixin: ``x**n`` for integer ``2 <= |n| <= 8`` is a product.

    Shared by the C and the NumPy printer so that both round the same way:
    ``x*x*x`` rounds after every multiplication, ``pow(x, 3)`` /
    ``numpy.power`` once at the end (and calls libm per element).  The
    chain multiplies left to right in both languages.
    """

    def _print_Pow(self, expr):
        base, expo = expr.args
        if expo.is_Integer and 1 < abs(int(expo)) <= 8:
            b = self._print(base)
            if not (base.is_Symbol or base.is_Function):
                b = f"({b})"
            chain = "*".join([b] * abs(int(expo)))
            # parenthesize: the caller assumes Pow precedence, the chain has Mul
            return f"({chain})" if int(expo) > 0 else f"(1.0/({chain}))"
        return super()._print_Pow(expr)
