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


def simplify_terms(ac: AssignmentCollection) -> AssignmentCollection:
    """Simplify every assignment individually by factoring.

    Applies :func:`sympy.factor_terms` (pulls common factors out of sums)
    and keeps whichever of {original, factored} has fewer nodes.
    """

    def best(expr: sp.Expr) -> sp.Expr:
        candidates = [expr]
        try:
            candidates.append(sp.factor_terms(expr))
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
    counting a large SSA program is not free (0.9 s over the 16 passes of
    the P1 3-D kernel set, 10 % of its set-up).
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
