"""Expression-level optimization passes (paper §3.3, last paragraphs).

The stencil representation is rewritten to reduce floating point work:

* :func:`substitute_parameters` — constant folding: model parameters that
  stay fixed during a run are replaced by numeric values at "compile time";
  this shrinks the expression trees considerably and enables the automatic
  exploitation of special configurations (symmetric diffusivities, isotropy,
  constant temperature, …) that a generic runtime-configured code would have
  to spend FLOPs on.
* :func:`simplify_terms` — per-term factoring heuristic.
* :func:`global_cse` — a global common-subexpression elimination across all
  terms, producing the final SSA form.
"""

from __future__ import annotations

from typing import Mapping

import sympy as sp
from sympy.core.exprtools import _factor_sum_int, _keep_coeff, gcd_terms
from sympy.utilities.iterables import iterable

from ..symbolic.assignment import Assignment, AssignmentCollection
from ..symbolic.field import FieldAccess

__all__ = [
    "substitute_parameters",
    "simplify_terms",
    "global_cse",
    "optimize",
    "count_nodes",
    "total_nodes",
]


def substitute_parameters(
    ac: AssignmentCollection, values: Mapping[sp.Symbol | str, float]
) -> AssignmentCollection:
    """Fold numeric parameter values into the assignments.

    Keys may be symbols or symbol names.  Field accesses can never be
    substituted.  Exact zeros/ones trigger sympy's automatic simplification
    (e.g. an isotropy factor of 1 removes the whole anisotropy computation).
    """
    by_name: dict[str, sp.Expr] = {}
    for k, v in values.items():
        name = k.name if isinstance(k, sp.Symbol) else str(k)
        by_name[name] = sp.nsimplify(v) if v == int(v) else sp.Float(v)

    def fold(expr: sp.Expr) -> sp.Expr:
        mapping = {
            s: by_name[s.name]
            for s in expr.free_symbols
            if not isinstance(s, FieldAccess) and s.name in by_name
        }
        return expr.xreplace(mapping) if mapping else expr

    return ac.transform_rhs(fold)


class MemoizedFactorTerms:
    """:func:`sympy.factor_terms` (default flags) that factors each subtree once.

    The recursive ``do`` of ``sympy.core.exprtools.factor_terms``, copied
    with its flags fixed at their defaults (``radical=False, clear=False,
    fraction=False, sign=True``) and its result memoized per sub-expression:
    a subtree shared by several right-hand sides (the Lagrange multiplier in
    every φ equation) or several terms is factored the first time it is met
    and looked up after that.  The memo lives as long as the instance — an
    object, not a closure, so reference counting frees it (closures calling
    each other form a cycle that only a full garbage collection reclaims).
    ``tests/test_simplification.py`` checks it ``srepr``-equal to
    ``sympy.factor_terms``, so a sympy upgrade that changes the original
    fails there instead of changing the emitted C.
    """

    def __init__(self):
        self.memo: dict[sp.Basic, sp.Basic] = {}

    def __call__(self, expr) -> sp.Expr:
        return self.do(sp.sympify(expr))

    def do(self, expr):
        if not isinstance(expr, sp.Basic) or expr.is_Atom:
            if iterable(expr):
                return type(expr)([self.do(i) for i in expr])
            return expr
        done = self.memo.get(expr)
        if done is None:
            done = self.memo[expr] = self._factor(expr)
        return done

    def _factor(self, expr):
        do = self.do
        if expr.is_Pow or expr.is_Function or iterable(expr) or not hasattr(expr, "args_cnc"):
            args = expr.args
            newargs = tuple([do(i) for i in args])
            return expr if newargs == args else expr.func(*newargs)
        if isinstance(expr, (sp.Sum, sp.Integral)):
            return _factor_sum_int(expr, radical=False, clear=False, fraction=False, sign=True)
        cont, p = expr.as_content_primitive(radical=False, clear=False)
        if p.is_Add:
            list_args = [do(a) for a in sp.Add.make_args(p)]
            # get a common negative (if there) which gcd_terms does not remove
            if not any(a.as_coeff_Mul()[0].extract_multiplicatively(-1) is None
                       for a in list_args):
                cont = -cont
                list_args = [-a for a in list_args]
            # watch out for exp(-(x+2)) which gcd_terms will change to exp(-x-2)
            special = {}
            for i, a in enumerate(list_args):
                b, e = a.as_base_exp()
                if e.is_Mul and e != sp.Mul(*e.args):
                    list_args[i] = sp.Dummy()
                    special[list_args[i]] = a
            # rebuild p not worrying about the order which gcd_terms will fix
            p = sp.Add._from_args(list_args)
            p = gcd_terms(p, isprimitive=True, clear=False, fraction=False).xreplace(special)
        elif p.args:
            p = p.func(*[do(a) for a in p.args])
        return _keep_coeff(cont, p, clear=False, sign=True)


def simplify_terms(ac: AssignmentCollection) -> AssignmentCollection:
    """Simplify every assignment individually by factoring.

    Factors every right-hand side as :func:`sympy.factor_terms` would (pulls
    common factors out of sums) and keeps whichever of {original, factored}
    has fewer nodes.  The factoring is one :class:`MemoizedFactorTerms` for
    the whole collection, so a subtree that several right-hand sides share
    is factored once.
    """
    factor_terms = MemoizedFactorTerms()

    def best(expr: sp.Expr) -> sp.Expr:
        candidates = [expr]
        try:
            candidates.append(factor_terms(expr))
        except Exception:  # pragma: no cover - sympy edge cases
            pass
        return min(candidates, key=count_nodes)

    return ac.transform_rhs(best)


def count_nodes(expr: sp.Expr) -> int:
    """Total number of nodes in the expression tree (simplicity metric)."""
    return expr.count_ops(visual=False) + len(expr.atoms(sp.Symbol))


def global_cse(ac: AssignmentCollection, symbol_prefix: str = "xi") -> AssignmentCollection:
    """Global common-subexpression elimination across all assignments.

    Existing subexpressions are inlined first so that repeated runs converge
    to the same canonical SSA form.
    """
    inlined = ac.inline_subexpressions()
    rhs_list = [a.rhs for a in inlined.main_assignments]
    replacements, reduced = sp.cse(
        rhs_list, symbols=sp.numbered_symbols(symbol_prefix + "_", real=True), order="none"
    )
    subexpressions = [Assignment(lhs, rhs) for lhs, rhs in replacements]
    main = [
        Assignment(a.lhs, new_rhs)
        for a, new_rhs in zip(inlined.main_assignments, reduced)
    ]
    result = ac.copy(main, subexpressions)
    result.validate()
    return result


def total_nodes(ac: AssignmentCollection) -> int:
    """Node count over all assignments (the pass-level progress metric)."""
    return sum(count_nodes(a.rhs) for a in ac.all_assignments)


def _traced_pass(recorder, name: str, fn, ac: AssignmentCollection):
    """Run one pass inside a ``simplification`` span with op counts.

    Before/after node counts are only computed for a recorder that keeps
    every event (``capacity=None``: someone wants the whole timeline) —
    counting a large SSA program is not free (1.1–1.2 s for the 16 counts
    of the 8 passes of the P1 3-D kernel set, 12–13 % of its cold set-up
    with C kernels, on a 2-vCPU KVM guest).
    """
    with recorder.span(f"pass:{name}", category="simplification") as span:
        counted = recorder.capacity is None
        if counted:
            span["ops_before"] = total_nodes(ac)
        out = fn(ac)
        if counted:
            span["ops_after"] = total_nodes(out)
            span["assignments"] = len(out.all_assignments)
    return out


def optimize(
    ac: AssignmentCollection, parameter_values: Mapping | None = None
) -> AssignmentCollection:
    """The standard pipeline: fold constants → simplify terms → global CSE."""
    from ..observability.recorder import get_recorder

    recorder = get_recorder()
    with recorder.span(f"optimize:{ac.name}", category="simplification"):
        if parameter_values:
            ac = _traced_pass(
                recorder, "substitute_parameters",
                lambda a: substitute_parameters(a, parameter_values), ac,
            )
        ac = _traced_pass(recorder, "simplify_terms", simplify_terms, ac)
        ac = _traced_pass(recorder, "global_cse", global_cse, ac)
    return ac
