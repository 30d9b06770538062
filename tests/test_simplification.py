"""Simplification passes: constant folding, CSE, with property-based checks."""

from collections import Counter

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from repro.simplification import (
    count_nodes,
    global_cse,
    optimize,
    simplify_terms,
    substitute_parameters,
)
from repro.simplification.passes import (
    MemoizedContentPrimitive,
    MemoizedFactorTerms,
    NodeCounter,
)
from repro.symbolic import Assignment, AssignmentCollection, Field


def _fields2():
    return Field("f", 2), Field("g", 2)


class TestSubstituteParameters:
    def test_by_symbol_and_name(self):
        f, g = _fields2()
        a, b = sp.symbols("a b")
        ac = AssignmentCollection([Assignment(g.center(), a * f.center() + b)])
        out = substitute_parameters(ac, {a: 2.0, "b": 3.0})
        (m,) = out.main_assignments
        assert m.rhs == 2 * f.center() + 3

    def test_zero_triggers_simplification(self):
        """An isotropy factor of 0/1 must remove whole terms automatically."""
        f, g = _fields2()
        delta = sp.Symbol("delta")
        ac = AssignmentCollection(
            [Assignment(g.center(), f.center() + delta * f.center() ** 4)]
        )
        out = substitute_parameters(ac, {delta: 0})
        assert out.main_assignments[0].rhs == f.center()

    def test_field_accesses_never_substituted(self):
        f, g = _fields2()
        ac = AssignmentCollection([Assignment(g.center(), f.center())])
        out = substitute_parameters(ac, {"f__C": 5.0})
        assert out.main_assignments[0].rhs == f.center()


class TestGlobalCSE:
    def test_shared_subexpression_extracted(self):
        f, g = _fields2()
        h = Field("h", 2)
        common = (f.center() + 1) ** 2
        ac = AssignmentCollection(
            [
                Assignment(g.center(), common * 2),
                Assignment(h.center(), common + 5),
            ]
        )
        out = global_cse(ac)
        assert len(out.subexpressions) >= 1
        out.validate()

    def test_idempotent(self):
        f, g = _fields2()
        ac = AssignmentCollection(
            [Assignment(g.center(), sp.sqrt(f.center() + 1) * (f.center() + 1))]
        )
        once = global_cse(ac)
        twice = global_cse(once)
        assert once.inline_subexpressions().main_assignments[0].rhs == \
               twice.inline_subexpressions().main_assignments[0].rhs

    def test_a_shared_term_stays_a_value(self):
        """A shared term is CSEd with the rows, not inlined; other temporaries are."""
        f, g = _fields2()
        h = Field("h", 2)
        lam, tmp = sp.symbols("lam tmp", real=True)
        ac = AssignmentCollection(
            [
                Assignment(g.center(), f.center() * lam),
                Assignment(h.center(), f.center() + lam),
            ],
            [Assignment(tmp, (f[1, 0]() + 1) ** 2), Assignment(lam, tmp / 2 + tmp**3)],
            shared_symbols=[lam],
        )
        out = global_cse(ac)
        assert lam in out.defined_temporaries and tmp not in out.bound_symbols
        assert all(a.rhs.free_symbols >= {lam} for a in out.main_assignments)
        assert global_cse(out).all_assignments == out.all_assignments
        inlined = out.inline_subexpressions()
        assert inlined.main_assignments == ac.inline_subexpressions().main_assignments


@st.composite
def random_exprs(draw):
    """Random expression over two field accesses and a parameter."""
    f, g = _fields2()
    atoms = [f.center(), f[1, 0](), sp.Symbol("p"), sp.Integer(2), sp.Rational(1, 3)]
    expr = draw(st.sampled_from(atoms))
    for _ in range(draw(st.integers(1, 6))):
        op = draw(st.sampled_from(["add", "mul", "pow", "sub"]))
        other = draw(st.sampled_from(atoms))
        if op == "add":
            expr = expr + other
        elif op == "sub":
            expr = expr - other
        elif op == "mul":
            expr = expr * other
        else:
            expr = expr ** draw(st.sampled_from([2, 3]))
    return expr


class TestSemanticPreservation:
    @settings(max_examples=60, deadline=None)
    @given(expr=random_exprs(), seed=st.integers(0, 2**16))
    def test_optimize_preserves_value(self, expr, seed):
        """The full pipeline must never change the numerical value."""
        f, g = _fields2()
        ac = AssignmentCollection([Assignment(g.center(), expr)])
        out = optimize(ac, parameter_values={"p": 1.7})
        rng = np.random.default_rng(seed)
        vals = {
            f.center(): rng.uniform(0.5, 2.0),
            f[1, 0](): rng.uniform(0.5, 2.0),
            sp.Symbol("p"): 1.7,
        }
        expected = float(expr.xreplace(vals))
        inlined = out.inline_subexpressions().main_assignments[0].rhs
        actual = float(inlined.xreplace(vals))
        assert actual == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(expr=random_exprs())
    def test_simplify_never_grows_much(self, expr):
        f, g = _fields2()
        ac = AssignmentCollection([Assignment(g.center(), expr)])
        out = simplify_terms(ac)
        assert count_nodes(out.main_assignments[0].rhs) <= count_nodes(expr)


def _model_collections(params, monkeypatch) -> list[AssignmentCollection]:
    """The collections ``simplify_terms`` is given while a kernel set is derived."""
    from repro.pfm import GrandPotentialModel
    from repro.simplification import passes

    seen = []

    def capture(ac):
        seen.append(ac)
        return simplify_terms(ac)

    monkeypatch.setattr(passes, "simplify_terms", capture)
    GrandPotentialModel(params).create_kernels()
    assert seen, "the kernel set was loaded, not derived"
    return seen


def _model_right_hand_sides(params, monkeypatch) -> list[list[sp.Expr]]:
    """The right-hand sides ``simplify_terms`` factors, per collection."""
    return [
        [a.rhs for a in (*ac.main_assignments, *ac.subexpressions)]
        for ac in _model_collections(params, monkeypatch)
    ]


def _assert_factors_like_sympy(collections) -> None:
    for rhs in collections:
        factor = MemoizedFactorTerms()  # one memo per collection, as in the pass
        for expr in rhs:
            assert sp.srepr(factor(expr)) == sp.srepr(sp.factor_terms(expr))


def _assert_splits_like_sympy(collections) -> None:
    for rhs in collections:
        split = MemoizedContentPrimitive()  # one memo per collection, as in the pass
        for expr in rhs:
            expected = expr.as_content_primitive(radical=False, clear=False)
            assert sp.srepr(split(expr)) == sp.srepr(expected)


def _assert_counts_like_sympy(collections) -> None:
    for rhs in collections:
        # both candidates of every right-hand side share one counter, as in the pass
        count, factor = NodeCounter(), MemoizedFactorTerms()
        for expr in (*rhs, *map(factor, rhs)):
            assert count(expr) == expr.count_ops(visual=False) + len(expr.atoms(sp.Symbol))


@st.composite
def shared_subtree_sums(draw):
    """Sums over one shared random subtree: negative, exp(-(x+2)) and nested terms."""
    f, _ = _fields2()
    x, y = sp.symbols("x y")
    shared = draw(random_exprs())
    atoms = [x, y, f.center(), shared, sp.exp(-(x + 2)), sp.exp(-2 * (shared + y))]
    exprs = []
    for _ in range(draw(st.integers(1, 4))):
        negative = draw(st.booleans())
        terms = []
        for _ in range(draw(st.integers(1, 4))):
            coeff = draw(st.sampled_from([1, 2, 3, sp.Rational(1, 2), sp.Rational(3, 4)]))
            term = coeff * draw(st.sampled_from(atoms)) * draw(st.sampled_from(atoms))
            if draw(st.booleans()):
                term *= sp.Add(shared, draw(st.sampled_from(atoms)))
            terms.append(-term if negative else term)
        exprs.append(sp.Add(*terms))
    return exprs


class TestMemoizedFactorTerms:
    """The memoized copy factors exactly as ``sympy.factor_terms`` does."""

    # the model cases capture what a derivation factors: on an empty cache
    def test_binary_right_hand_sides(self, monkeypatch, cold_cache):
        from repro.pfm import make_two_phase_binary

        _assert_factors_like_sympy(
            _model_right_hand_sides(make_two_phase_binary(dim=3), monkeypatch)
        )

    @pytest.mark.slow
    def test_p1_right_hand_sides(self, monkeypatch, cold_cache):
        from repro.pfm import make_p1

        _assert_factors_like_sympy(_model_right_hand_sides(make_p1(dim=3), monkeypatch))

    @settings(max_examples=60, deadline=None)
    @given(exprs=shared_subtree_sums())
    def test_shared_subtrees(self, exprs):
        _assert_factors_like_sympy([exprs])

    def test_special_exponent_and_common_negative(self):
        x, y = sp.symbols("x y")
        exprs = [-2 * x * sp.exp(-(x + 2)) - 4 * y, sp.exp(-(x + 2)) + x * sp.exp(-(x + 2))]
        _assert_factors_like_sympy([exprs, exprs[::-1]])


class TestMemoizedContentPrimitive:
    """The memoized split equals ``as_content_primitive(radical=False, clear=False)``."""

    def test_binary_right_hand_sides(self, monkeypatch, cold_cache):
        from repro.pfm import make_two_phase_binary

        _assert_splits_like_sympy(
            _model_right_hand_sides(make_two_phase_binary(dim=3), monkeypatch)
        )

    @pytest.mark.slow
    def test_p1_right_hand_sides(self, monkeypatch, cold_cache):
        from repro.pfm import make_p1

        _assert_splits_like_sympy(_model_right_hand_sides(make_p1(dim=3), monkeypatch))

    @settings(max_examples=60, deadline=None)
    @given(exprs=shared_subtree_sums())
    def test_shared_subtrees(self, exprs):
        _assert_splits_like_sympy([exprs])

    def test_powers(self):
        x, y = sp.symbols("x y")
        exprs = [
            (2 * x + 2) ** 2, sp.sqrt(4 + 4 * sp.sqrt(2)), 4 ** ((1 + y) / 2),
            3 ** ((5 + y) / 2), 3 ** (2 + 2 * x), (2 + 2 * x) ** y, (6 * x * y) ** 3,
        ]
        _assert_splits_like_sympy([exprs])


class TestNodeCounter:
    """The memoized count equals ``count_ops(visual=False) + len(atoms(Symbol))``."""

    def test_binary_right_hand_sides(self, monkeypatch, cold_cache):
        from repro.pfm import make_two_phase_binary

        _assert_counts_like_sympy(
            _model_right_hand_sides(make_two_phase_binary(dim=3), monkeypatch)
        )

    @pytest.mark.slow
    def test_p1_right_hand_sides(self, monkeypatch, cold_cache):
        from repro.pfm import make_p1

        _assert_counts_like_sympy(_model_right_hand_sides(make_p1(dim=3), monkeypatch))

    @settings(max_examples=60, deadline=None)
    @given(exprs=shared_subtree_sums())
    def test_shared_subtrees(self, exprs):
        _assert_counts_like_sympy([exprs])

    def test_every_op_kind(self):
        x, y = sp.symbols("x y")
        exprs = [
            -x - y, -x + y, x - y, -sp.Rational(1, 3), 1 / x / y, -2 / x, x / (2 * y),
            -(x + y), sp.E, sp.exp(x + 1), sp.Max(x, y, 1), sp.sin(x) ** 2 + x,
            sp.Piecewise((x, x < y), (y, True)), sp.Integer(1), sp.Integer(0),
        ]
        _assert_counts_like_sympy([exprs])
        assert count_nodes(-x - y) == (-x - y).count_ops() + 2


class TestOncePerSubtree:
    """Counts calls, not time, so it holds on any host.

    Within one collection the content/primitive split and the node count of
    a subtree are each computed at most once: by the memo on a miss, or by
    sympy (its ``as_content_primitive`` methods, a ``count_ops`` walk or an
    ``atoms(Symbol)`` walk, which compute every subtree they visit).  A
    factoring that splits its whole subtree again at every level, or a node
    count that walks both candidates from the top, fails here.
    """

    def _record(self, monkeypatch) -> dict[str, Counter]:
        import sympy.core.function

        done = {"split": Counter(), "ops": Counter(), "symbols": Counter()}

        def memo_miss(kind, method):
            def wrapper(self, expr):
                done[kind][expr] += 1
                return method(self, expr)
            return wrapper

        def sympy_split(method):
            def wrapper(self, *args, **kwargs):
                done["split"][self] += 1
                return method(self, *args, **kwargs)
            return wrapper

        def walk(kind, fn):
            def wrapper(expr, *args, **kwargs):
                done[kind].update(sp.preorder_traversal(expr))
                return fn(expr, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            MemoizedContentPrimitive, "_split",
            memo_miss("split", MemoizedContentPrimitive._split),
        )
        monkeypatch.setattr(NodeCounter, "_ops", memo_miss("ops", NodeCounter._ops))
        monkeypatch.setattr(NodeCounter, "_symbols", memo_miss("symbols", NodeCounter._symbols))
        for cls in (sp.Add, sp.Mul, sp.Pow):
            monkeypatch.setattr(cls, "as_content_primitive", sympy_split(cls.as_content_primitive))
        monkeypatch.setattr(
            sympy.core.function, "count_ops", walk("ops", sympy.core.function.count_ops)
        )
        monkeypatch.setattr(sp.Basic, "atoms", walk("symbols", sp.Basic.atoms))
        return done

    def test_binary_collections(self, monkeypatch, cold_cache):
        from repro.pfm import make_two_phase_binary

        collections = _model_collections(make_two_phase_binary(dim=3), monkeypatch)
        done = self._record(monkeypatch)
        for ac in collections:
            for counter in done.values():
                counter.clear()
            simplify_terms(ac)
            for kind, counter in done.items():
                assert counter, f"no {kind} computed for {ac.name}"
                subtree, times = counter.most_common(1)[0]
                assert times == 1, f"{kind} of {subtree} computed {times} times in {ac.name}"


class TestAssignmentCollection:
    def test_topological_sort(self):
        f, g = _fields2()
        x, y = sp.symbols("x y")
        ac = AssignmentCollection(
            [Assignment(g.center(), y)],
            subexpressions=[Assignment(y, x + 1), Assignment(x, f.center())],
        )
        sorted_ac = ac.topological_sort()
        names = [a.lhs for a in sorted_ac.subexpressions]
        assert names == [x, y]
        sorted_ac.validate()

    def test_cycle_detected(self):
        f, g = _fields2()
        x, y = sp.symbols("x y")
        ac = AssignmentCollection(
            [Assignment(g.center(), y)],
            subexpressions=[Assignment(y, x), Assignment(x, y)],
        )
        with pytest.raises(ValueError, match="cyclic"):
            ac.topological_sort()

    def test_prune_dead(self):
        f, g = _fields2()
        x, dead = sp.symbols("x dead")
        ac = AssignmentCollection(
            [Assignment(g.center(), x)],
            subexpressions=[Assignment(x, f.center()), Assignment(dead, 42)],
        )
        out = ac.prune_dead_subexpressions()
        assert [a.lhs for a in out.subexpressions] == [x]

    def test_free_symbols_and_parameters(self):
        f, g = _fields2()
        p = sp.Symbol("p")
        x = sp.Symbol("x")
        ac = AssignmentCollection(
            [Assignment(g.center(), x * p)],
            subexpressions=[Assignment(x, f.center() + p)],
        )
        assert p in ac.parameters
        assert x not in ac.parameters
        assert f.center() in ac.field_reads

    def test_validate_rejects_double_assignment(self):
        f, g = _fields2()
        x = sp.Symbol("x")
        ac = AssignmentCollection(
            [Assignment(g.center(), x)],
            subexpressions=[Assignment(x, 1), Assignment(x, 2)],
        )
        with pytest.raises(ValueError, match="SSA"):
            ac.validate()

    def test_validate_rejects_use_before_definition(self):
        f, g = _fields2()
        x, y = sp.symbols("x y")
        ac = AssignmentCollection(
            [Assignment(g.center(), y)],
            subexpressions=[Assignment(y, x + 1), Assignment(x, f.center())],
        )
        with pytest.raises(ValueError, match=r"^y uses temporaries before definition: \{x\}$"):
            ac.validate()

    def test_ghost_layer_requirement(self):
        f, g = _fields2()
        ac = AssignmentCollection([Assignment(g.center(), f[2, -1]() + f[0, 1]())])
        assert ac.ghost_layers_required() == 2
