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
from sympy.core.function import Derivative, _coeff_isneg
from sympy.core.operations import LatticeOp
from sympy.simplify.radsimp import fraction
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


class MemoizedContentPrimitive:
    """``expr.as_content_primitive(radical=False, clear=False)``, once per subtree.

    Sympy's ``Add`` / ``Mul`` / ``Pow`` methods, copied with those flags
    fixed, each recursing through this memo instead of into the sympy
    method of its arguments; every other node type is sympy's own (a leaf:
    ``Rational`` splits off its value, ``Expr`` returns ``(1, self)``).
    :class:`MemoizedFactorTerms` splits a subtree at every level of its
    recursion, so sympy's recursion would split every deeper level again.
    ``tests/test_simplification.py`` checks it ``srepr``-equal to sympy's.
    """

    def __init__(self):
        self.memo: dict[sp.Basic, tuple[sp.Expr, sp.Expr]] = {}

    def __call__(self, expr) -> tuple[sp.Expr, sp.Expr]:
        done = self.memo.get(expr)
        if done is None:
            done = self.memo[expr] = self._split(expr)
        return done

    def _split(self, expr):
        if isinstance(expr, sp.Add):
            con, prim = expr.func(*[_keep_coeff(*self(a)) for a in expr.args]).primitive()
            if not con.is_Integer and prim.is_Add:
                con, d = con.as_numer_denom()
                _p = prim / d
                if any(a.as_coeff_Mul()[0].is_Integer for a in _p.args):
                    prim = _p
                else:
                    con /= d
            return con, prim
        if isinstance(expr, sp.Mul):
            coef = sp.S.One
            args = []
            for a in expr.args:
                c, p = self(a)
                coef *= c
                if p is not sp.S.One:
                    args.append(p)
            # not _from_args: identical args must combine, (2+2x)(3+3x) -> 6(1+x)**2
            return coef, expr.func(*args)
        if isinstance(expr, sp.Pow):
            return self._split_pow(expr)
        return expr.as_content_primitive(radical=False, clear=False)

    def _split_pow(self, expr):
        b, e = expr.as_base_exp()
        b = _keep_coeff(*self(b))
        ce, pe = self(e)
        if b.is_Rational:
            # b**(ce*(h + t)) = b**(integer part of ce*h) * b**(ce*t + remainder)
            h, t = pe.as_coeff_Add()
            if h.is_Rational and b != sp.S.Zero:
                ceh = ce * h
                c = expr.func(b, ceh)
                r = sp.S.Zero
                if not c.is_Rational:
                    iceh, r = divmod(ceh.p, ceh.q)
                    c = expr.func(b, iceh)
                return c, expr.func(b, _keep_coeff(ce, t + r / ce / ceh.q))
        e = _keep_coeff(ce, pe)
        # b**e = (h*t)**e = h**e*t**e = c*m*t**e
        if e.is_Rational and b.is_Mul:
            h, t = self(b)
            c, m = expr.func(h, e).as_coeff_Mul()
            m, me = m.as_base_exp()
            if m is sp.S.One or me == e:
                return c, expr.func(_keep_coeff(m, t), e)
        return sp.S.One, expr.func(b, e)


class MemoizedFactorTerms:
    """:func:`sympy.factor_terms` (default flags) that factors each subtree once.

    The recursive ``do`` of ``sympy.core.exprtools.factor_terms``, copied
    with its flags fixed at their defaults (``radical=False, clear=False,
    fraction=False, sign=True``) and its result memoized per sub-expression:
    a subtree shared by several right-hand sides (the Lagrange multiplier in
    every φ equation) or several terms is factored the first time it is met
    and looked up after that.  The content/primitive split each level makes
    is a :class:`MemoizedContentPrimitive` with the same lifetime.  The memo
    lives as long as the instance — an object, not a closure, so reference
    counting frees it (closures calling each other form a cycle that only a
    full garbage collection reclaims).  ``tests/test_simplification.py``
    checks it ``srepr``-equal to ``sympy.factor_terms``, so a sympy upgrade
    that changes the original fails there instead of changing the emitted C.
    """

    def __init__(self):
        self.memo: dict[sp.Basic, sp.Basic] = {}
        self.content_primitive = MemoizedContentPrimitive()

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
        cont, p = self.content_primitive(expr)
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


class NodeCounter:
    """The node count — ``count_ops(visual=False) + len(atoms(Symbol))`` — per subtree once.

    ``count_ops`` walks a stack and adds up one weight per node it pops,
    each depending on that node alone, so the walk is a sum over subtrees:
    :meth:`ops` is one step of sympy's loop, recursing through a memo
    instead of pushing.  A node's symbols are the union of its arguments'.
    Both memos live as long as the instance, so a subtree shared by several
    expressions (both candidates of :func:`simplify_terms`, every
    right-hand side of a collection) is counted once.
    ``tests/test_simplification.py`` checks it equal to sympy's count.
    """

    def __init__(self):
        self.ops_memo: dict[sp.Basic, int] = {}
        self.symbols_memo: dict[sp.Basic, frozenset] = {}

    def __call__(self, expr) -> int:
        expr = sp.sympify(expr)
        if not isinstance(expr, sp.Expr) or expr.is_Relational:
            return expr.count_ops(visual=False) + len(expr.atoms(sp.Symbol))
        return self.ops(expr) + len(self.symbols(expr))

    def symbols(self, expr) -> frozenset:
        done = self.symbols_memo.get(expr)
        if done is None:
            done = self.symbols_memo[expr] = self._symbols(expr)
        return done

    def _symbols(self, expr) -> frozenset:
        found = frozenset().union(*map(self.symbols, expr.args))
        return found | {expr} if isinstance(expr, sp.Symbol) else found

    def ops(self, expr) -> int:
        done = self.ops_memo.get(expr)
        if done is None:
            done = self.ops_memo[expr] = self._ops(expr)
        return done

    def _ops(self, a) -> int:
        # one pass of sympy's count_ops loop: its op weights, then its pushes
        n_ops = 0
        if a.is_Rational:
            if a is not sp.S.One:
                return (a.p < 0) + (a.q != 1)  # NEG, DIV
        elif a.is_Mul or a.is_MatMul:
            if _coeff_isneg(a):
                n_ops += 1  # NEG
                a = a.as_two_terms()[1] if a.args[0] is sp.S.NegativeOne else -a
            n, d = fraction(a)
            if n.is_Integer:
                return n_ops + 1 + bool(n < 0) + self.ops(d)  # DIV, NEG
            if d is not sp.S.One:
                return n_ops + 1 + (0 if d.is_Integer else self.ops(d)) + self.ops(n)
        elif a.is_Add or a.is_MatAdd:
            # one ADD or SUB per term after the first (-x + y records SUB - ADD,
            # i.e. nothing, on top), NEG if every term is negative
            n_ops = len(a.args) - 1
            negs = 0
            for ai in a.args:
                if _coeff_isneg(ai):
                    negs += 1
                    ai = -ai
                n_ops += self.ops(ai)
            return n_ops + (negs == len(a.args))
        if a.is_Pow and a.exp is sp.S.NegativeOne:
            return n_ops + 1 + self.ops(a.base)  # DIV
        if a == sp.S.Exp1:
            return n_ops + 1  # EXP
        if a.is_Pow and a.base == sp.S.Exp1:
            return n_ops + 1 + self.ops(a.exp)  # EXP
        if a.is_Mul or isinstance(a, LatticeOp):
            n_ops += len(a.args) - 1
        elif a.args and (
            a.is_Pow or a.is_Function or isinstance(a, (Derivative, sp.Integral, sp.Sum))
        ):
            n_ops += 1
        if not a.is_Symbol:
            n_ops += sum(map(self.ops, a.args))
        return n_ops


def simplify_terms(ac: AssignmentCollection) -> AssignmentCollection:
    """Simplify every assignment individually by factoring.

    Factors every right-hand side as :func:`sympy.factor_terms` would (pulls
    common factors out of sums) and keeps whichever of {original, factored}
    has fewer nodes.  The factoring is one :class:`MemoizedFactorTerms` and
    the count one :class:`NodeCounter` for the whole collection, so a
    subtree that several right-hand sides share is factored and counted
    once.
    """
    factor_terms = MemoizedFactorTerms()
    count = NodeCounter()
    return ac.transform_rhs(lambda expr: min((expr, factor_terms(expr)), key=count))


def count_nodes(expr: sp.Expr) -> int:
    """Total number of nodes in the expression tree (simplicity metric)."""
    return NodeCounter()(expr)


def global_cse(ac: AssignmentCollection) -> AssignmentCollection:
    """Global common-subexpression elimination across all assignments.

    Existing subexpressions are inlined first so that repeated runs converge
    to the same canonical SSA form — all but the collection's shared terms
    (``ac.shared_symbols``): inlining a term that several rows read, such as
    the Lagrange multiplier, would expand it into every row again.  Those
    stay named values and are CSEd together with the main assignments.
    Temporaries are named ``xi_0, xi_1, …``.
    """
    table: dict[sp.Symbol, sp.Expr] = {}
    shared: list[Assignment] = []
    for a in ac.subexpressions:
        rhs = a.rhs.xreplace(table)
        if a.lhs.name in ac.shared_symbols:
            shared.append(Assignment(a.lhs, rhs))
        else:
            table[a.lhs] = rhs
    targets = shared + [a.subs(table) for a in ac.main_assignments]
    replacements, reduced = sp.cse(
        [a.rhs for a in targets], symbols=sp.numbered_symbols("xi_", real=True), order="none"
    )
    reduced = [Assignment(a.lhs, rhs) for a, rhs in zip(targets, reduced)]
    subexpressions = [Assignment(lhs, rhs) for lhs, rhs in replacements]
    result = ac.copy(reduced[len(shared):], subexpressions + reduced[: len(shared)])
    result = result.topological_sort()
    result.validate()
    return result


def total_nodes(ac: AssignmentCollection) -> int:
    """Node count over all assignments (the pass-level progress metric)."""
    count = NodeCounter()
    return sum(count(a.rhs) for a in ac.all_assignments)


def _traced_pass(recorder, name: str, fn, ac: AssignmentCollection):
    """Run one pass inside a ``simplification`` span with op counts.

    Before/after node counts are only computed for a recorder that keeps
    every event (``capacity=None``: someone wants the whole timeline) —
    counting a large SSA program is not free (0.67–0.71 s for the 16 counts
    of the 8 passes of the P1 3-D kernel set, 8–9 % of its cold set-up
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
