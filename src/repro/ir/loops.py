"""Loop construction: ordering and loop-invariant code motion (paper §3.4).

Every component of a field is one contiguous block with the spatial axes in
C order (:meth:`repro.symbolic.field.Field.strides`): the *last* spatial
axis has stride 1, so the innermost loop should iterate that axis — every
access of the loop body is then unit-stride.  Analytic
dependencies (e.g. a temperature ``T(x_0, t)`` that varies along a single
coordinate) are exploited by making their axes the *outermost* loops and
hoisting every subexpression that only depends on outer-loop state out of
the inner loops — "all temperature-dependent subexpressions are pulled out
of the inner loops".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import sympy as sp

from ..symbolic.assignment import Assignment, AssignmentCollection
from ..symbolic.coordinates import CoordinateSymbol
from ..symbolic.field import FieldAccess
from ..symbolic.random import RandomValue

__all__ = [
    "AxisInterval",
    "IterationSpace",
    "interior_space",
    "frontier_spaces",
    "write_region",
    "needed_subexpressions",
    "choose_loop_order",
    "classify_hoist_levels",
    "extract_invariant_subexpressions",
    "analytic_axes",
]


@dataclass(frozen=True)
class AxisInterval:
    """Half-open interval of interior cells along one axis.

    Endpoints are expressed relative to either end of the (runtime-sized)
    interior extent ``n``: an endpoint with ``*_from_end`` counts from the
    upper end (``value + n``), otherwise from the lower end.  The full axis
    is ``AxisInterval(0, 0, False, True)`` → ``[0, n)``; an interior band of
    margin ``m`` is ``AxisInterval(m, -m)`` → ``[m, n - m)``; the low face is
    ``AxisInterval(0, m, False, False)`` → ``[0, m)``; the high face is
    ``AxisInterval(-m, 0, True, True)`` → ``[n - m, n)``.
    """

    start: int
    stop: int
    start_from_end: bool = False
    stop_from_end: bool = True

    def concrete(self, n: int) -> tuple[int, int]:
        """Resolve to absolute ``(lo, hi)`` cell indices for interior size *n*."""
        lo = self.start + (n if self.start_from_end else 0)
        hi = self.stop + (n if self.stop_from_end else 0)
        if not (0 <= lo <= hi <= n):
            raise ValueError(
                f"interval {self} is empty or out of bounds for extent {n} "
                f"(resolved to [{lo}, {hi})) — block too small to hold this margin"
            )
        return lo, hi

    @property
    def is_full(self) -> bool:
        return (self.start, self.stop, self.start_from_end, self.stop_from_end) == (
            0, 0, False, True,
        )

    @property
    def is_face(self) -> bool:
        """Both endpoints count from the same end: ``stop - start`` cells at any extent."""
        return self.start_from_end == self.stop_from_end


FULL_AXIS = AxisInterval(0, 0, False, True)


@dataclass(frozen=True)
class IterationSpace:
    """A rectangular subspace of a kernel's interior iteration domain.

    The subspace is a product of per-axis :class:`AxisInterval`\\ s, resolved
    against the runtime interior shape by the backends (ranged loop bounds in
    C, adjusted slices in numpy).  Ghost layers are *not* part of the space:
    index 0 is the first interior cell, exactly as in the unrestricted kernel,
    so Philox counters, coordinates and analytic terms are unchanged — a
    restricted kernel computes bit-identical values on its subset of cells.
    """

    name: str
    intervals: tuple[AxisInterval, ...]

    @property
    def dim(self) -> int:
        return len(self.intervals)

    @property
    def is_full(self) -> bool:
        return all(iv.is_full for iv in self.intervals)

    def concrete(self, interior_shape: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
        """Absolute per-axis ``(lo, hi)`` interior index ranges."""
        if len(interior_shape) != self.dim:
            raise ValueError(
                f"iteration space {self.name!r} is {self.dim}D but the block "
                f"interior is {len(interior_shape)}D"
            )
        return tuple(iv.concrete(n) for iv, n in zip(self.intervals, interior_shape))

    def offsets(self, interior_shape: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
        """Per-axis ``(lo, hi - n)`` offsets from the full range ``[0, n)``.

        This is the form the backends consume: the low offset is added to the
        loop start / slice start, the (non-positive) high offset to the loop
        bound / slice stop.
        """
        conc = self.concrete(interior_shape)
        return tuple((lo, hi - n) for (lo, hi), n in zip(conc, interior_shape))

    @classmethod
    def full(cls, dim: int) -> IterationSpace:
        return cls("full", (FULL_AXIS,) * dim)


def interior_space(dim: int, margin: int) -> IterationSpace:
    """Cells at distance ≥ *margin* from every block face.

    A kernel with stencil reach *margin* restricted to this space never reads
    ghost cells, so it can run while a ghost exchange is still in flight.
    """
    if margin < 1:
        raise ValueError(f"interior margin must be >= 1, got {margin}")
    return IterationSpace("interior", (AxisInterval(margin, -margin),) * dim)


def frontier_spaces(dim: int, margin: int) -> tuple[IterationSpace, ...]:
    """Onion decomposition of the *margin*-wide shell around the interior.

    For axis ``a`` the low/high face slabs span the face band on axis ``a``,
    the already-covered interior band on every axis ``< a`` and the full
    extent on every axis ``> a``, so interior ∪ frontiers tiles the block
    exactly once (no cell computed twice, none missed).
    """
    if margin < 1:
        raise ValueError(f"frontier margin must be >= 1, got {margin}")
    spaces: list[IterationSpace] = []
    for axis in range(dim):
        for side, label, face in (
            (-1, "lo", AxisInterval(0, margin, False, False)),
            (+1, "hi", AxisInterval(-margin, 0, True, True)),
        ):
            intervals = tuple(
                AxisInterval(margin, -margin) if d < axis
                else face if d == axis
                else FULL_AXIS
                for d in range(dim)
            )
            spaces.append(IterationSpace(f"frontier_a{axis}{label}", intervals))
    return tuple(spaces)


def write_region(assignment: Assignment, dim: int) -> tuple[tuple[int, int], ...]:
    """Write region of a main assignment: interior, extended for flux fields.

    Per axis ``(lo, hi)``: the cells ``[-lo, n + hi)`` are written.
    """
    ext = [(0, 0)] * dim
    lhs = assignment.lhs
    if isinstance(lhs, FieldAccess) and lhs.field.staggered:
        slot_axes = getattr(lhs.field, "slot_axes", None)
        if slot_axes is None:
            raise ValueError(
                f"staggered field {lhs.field.name} lacks slot_axes metadata"
            )
        axis = slot_axes[lhs.index[0]]
        ext[axis] = (0, 1)
    return tuple(ext)


def needed_subexpressions(
    ac: AssignmentCollection, targets: list[Assignment]
) -> list[Assignment]:
    """Subset of subexpressions (in order) feeding the given main assignments."""
    needed: set[sp.Symbol] = set()
    for a in targets:
        needed |= a.rhs.free_symbols
    chosen: list[Assignment] = []
    for a in reversed(ac.subexpressions):
        if a.lhs in needed:
            chosen.append(a)
            needed |= a.rhs.free_symbols
    return list(reversed(chosen))


def analytic_axes(assignments: Iterable[Assignment]) -> set[int]:
    """Spatial axes whose coordinate symbol the assignments (or a collection) read."""
    axes: set[int] = set()
    for a in assignments:
        axes |= {s.axis for s in a.rhs.atoms(CoordinateSymbol)}
    return axes


def choose_loop_order(ac: AssignmentCollection, dim: int) -> tuple[int, ...]:
    """Loop order (outermost → innermost) for a kernel.

    The unit-stride axis (``dim-1`` under the layout rule of
    :meth:`~repro.symbolic.field.Field.strides`, for every component of
    every field) is placed innermost whenever possible; axes carrying
    analytic coordinate dependencies are pushed outward so their
    subexpressions can be hoisted.
    """
    analytic = analytic_axes(ac)
    inner_candidates = [a for a in range(dim) if a not in analytic]
    if inner_candidates:
        # last (contiguous) non-analytic axis goes innermost
        rest = sorted(analytic) + [a for a in inner_candidates[:-1]]
        return tuple(rest + [inner_candidates[-1]])
    # every axis is analytic: keep natural order, contiguous axis innermost
    return tuple(range(dim))


def classify_hoist_levels(
    ac: AssignmentCollection, loop_order: tuple[int, ...]
) -> dict[sp.Symbol, int]:
    """Compute, for every temporary, the loop depth at which it can live.

    Returns a map ``symbol → level`` where level ``0`` means the assignment
    is computable before all loops, level ``k`` inside the loop over
    ``loop_order[k-1]``, and level ``len(loop_order)`` (the full depth) means
    it must stay in the loop body.  An assignment's level is the maximum
    over the levels demanded by its atoms:

    * a field access or RNG call demands full depth,
    * a coordinate symbol of axis ``a`` demands ``position(a) + 1``,
    * a temporary demands its own level,
    * plain parameters and numbers demand 0.
    """
    depth = len(loop_order)
    pos = {axis: i for i, axis in enumerate(loop_order)}
    levels: dict[sp.Symbol, int] = {}

    def expr_level(expr: sp.Expr) -> int:
        lvl = 0
        for atom in sp.preorder_traversal(expr):
            if isinstance(atom, (FieldAccess, RandomValue)):
                return depth
            if isinstance(atom, CoordinateSymbol):
                lvl = max(lvl, pos.get(atom.axis, depth - 1) + 1)
            elif isinstance(atom, sp.Symbol) and atom in levels:
                lvl = max(lvl, levels[atom])
        return lvl

    for a in ac.subexpressions:
        levels[a.lhs] = expr_level(a.rhs)
    return levels


def extract_invariant_subexpressions(ac: AssignmentCollection) -> AssignmentCollection:
    """Pull maximal loop-invariant subtrees into their own temporaries.

    Global CSE only extracts *repeated* subexpressions; a temperature factor
    used once would stay inline and could not be hoisted.  This pass finds
    maximal subtrees that contain coordinate symbols but no field accesses or
    RNG calls and binds them to fresh temporaries so that
    :func:`classify_hoist_levels` can move them out of the inner loops.
    """
    gen = ac.fresh_symbol_generator("inv")
    new_subs: list = []
    cache: dict[sp.Expr, sp.Symbol] = {}

    bound = ac.defined_temporaries

    def is_invariant(e: sp.Expr) -> bool:
        # conservative: referencing an existing temporary disqualifies the
        # subtree (the temporary may hide field accesses)
        return (
            not e.atoms(FieldAccess, RandomValue)
            and bool(e.atoms(CoordinateSymbol))
            and not (e.free_symbols & bound)
        )

    def rec(e: sp.Expr) -> sp.Expr:
        if not e.args or isinstance(e, (FieldAccess, CoordinateSymbol)):
            return e
        if is_invariant(e):
            if e in cache:
                return cache[e]
            sym = next(gen)
            cache[e] = sym
            new_subs.append(Assignment(sym, e))
            return sym
        return e.func(*[rec(a) for a in e.args])

    subexpressions = [Assignment(a.lhs, rec(a.rhs)) for a in ac.subexpressions]
    mains = [Assignment(a.lhs, rec(a.rhs)) for a in ac.main_assignments]
    if not new_subs:
        return ac
    # invariant temporaries come first: they depend on nothing bound later
    return ac.copy(mains, new_subs + subexpressions)
