"""SSA assignments and assignment collections — the stencil representation.

After discretization, a kernel is a list of assignments in static single
assignment (SSA) form: subexpression assignments bind fresh temporary
symbols, main assignments write field accesses.  This is the representation
all optimization passes (:mod:`repro.simplification`), the IR builder and
the backends consume.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import sympy as sp

from .field import Field, FieldAccess

__all__ = ["Assignment", "AssignmentCollection"]


@dataclass(frozen=True)
class Assignment:
    """A single ``lhs <- rhs`` binding.

    ``lhs`` is either a plain :class:`sympy.Symbol` (a temporary, assigned
    exactly once) or a :class:`FieldAccess` (an array store).
    """

    lhs: sp.Symbol
    rhs: sp.Expr

    def __post_init__(self):
        object.__setattr__(self, "rhs", sp.sympify(self.rhs))
        if not isinstance(self.lhs, sp.Symbol):
            raise TypeError(f"assignment lhs must be a symbol, got {self.lhs!r}")

    @property
    def is_field_store(self) -> bool:
        return isinstance(self.lhs, FieldAccess)

    def subs(self, mapping) -> "Assignment":
        return Assignment(self.lhs, self.rhs.xreplace(mapping))

    def transform_rhs(self, f: Callable[[sp.Expr], sp.Expr]) -> "Assignment":
        return Assignment(self.lhs, f(self.rhs))

    def __iter__(self):
        return iter((self.lhs, self.rhs))

    def __str__(self):
        return f"{self.lhs} <- {self.rhs}"


class AssignmentCollection:
    """An ordered SSA program: subexpressions followed by main assignments.

    Invariants (checked by :meth:`validate`):

    * every temporary is assigned at most once,
    * temporaries are defined before use,
    * main assignments store to field accesses — unless their lhs name is
      listed in ``reduction_symbols``, which marks it as a *reduction
      output*: a scalar accumulated (summed) over the iteration space
      instead of stored per cell.

    A subexpression whose lhs name is in ``shared_symbols`` names a shared
    term of the discretized PDE system (the Lagrange multiplier of the φ
    equations, say): :func:`repro.simplification.passes.global_cse` keeps it
    a value instead of inlining it into every assignment that reads it.
    """

    def __init__(
        self,
        main_assignments: Sequence[Assignment],
        subexpressions: Sequence[Assignment] = (),
        name: str = "kernel",
        reduction_symbols: Iterable[str] = (),
        shared_symbols: Iterable[str] = (),
    ):
        self.main_assignments = list(main_assignments)
        self.subexpressions = list(subexpressions)
        self.name = name
        # reduction outputs are tracked by *name* so the marking survives
        # rhs transformations that rebuild symbols (lhs objects are kept
        # by transform_rhs, but names are the stable identity here)
        self.reduction_symbols = frozenset(
            s.name if isinstance(s, sp.Symbol) else str(s)
            for s in reduction_symbols
        )
        self.shared_symbols = frozenset(
            s.name if isinstance(s, sp.Symbol) else str(s) for s in shared_symbols
        )

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_dict(cls, mapping: dict, name: str = "kernel") -> "AssignmentCollection":
        return cls([Assignment(k, v) for k, v in mapping.items()], name=name)

    def copy(
        self,
        main_assignments: Sequence[Assignment] | None = None,
        subexpressions: Sequence[Assignment] | None = None,
    ) -> "AssignmentCollection":
        return AssignmentCollection(
            list(self.main_assignments if main_assignments is None else main_assignments),
            list(self.subexpressions if subexpressions is None else subexpressions),
            name=self.name,
            reduction_symbols=self.reduction_symbols,
            shared_symbols=self.shared_symbols,
        )

    # -- inspection ------------------------------------------------------------

    @property
    def all_assignments(self) -> list[Assignment]:
        return self.subexpressions + self.main_assignments

    @property
    def bound_symbols(self) -> set[sp.Symbol]:
        return {a.lhs for a in self.all_assignments}

    @property
    def defined_temporaries(self) -> set[sp.Symbol]:
        return {a.lhs for a in self.subexpressions if not a.is_field_store}

    @property
    def free_symbols(self) -> set[sp.Symbol]:
        """Symbols read but never bound (kernel parameters + field reads)."""
        free: set[sp.Symbol] = set()
        bound: set[sp.Symbol] = set()
        for a in self.all_assignments:
            free |= a.rhs.free_symbols - bound
            bound.add(a.lhs)
        return free

    @property
    def field_reads(self) -> set[FieldAccess]:
        reads: set[FieldAccess] = set()
        written: set[FieldAccess] = set()
        for a in self.all_assignments:
            reads |= {
                s for s in a.rhs.atoms(FieldAccess) if s not in written
            }
            if a.is_field_store:
                written.add(a.lhs)
        return reads

    @property
    def field_writes(self) -> set[FieldAccess]:
        return {a.lhs for a in self.all_assignments if a.is_field_store}

    @property
    def fields_read(self) -> set[Field]:
        return {acc.field for acc in self.field_reads}

    @property
    def fields_written(self) -> set[Field]:
        return {acc.field for acc in self.field_writes}

    @property
    def fields(self) -> set[Field]:
        return self.fields_read | self.fields_written

    @property
    def parameters(self) -> set[sp.Symbol]:
        """Free non-field symbols — these become arguments of the kernel."""
        return {s for s in self.free_symbols if not isinstance(s, FieldAccess)}

    def ghost_layers_required(self) -> int:
        """Widest absolute integer offset over all field reads."""
        return max((acc.max_abs_offset for acc in self.field_reads), default=0)

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        seen: set[sp.Symbol] = set()
        temporaries = self.defined_temporaries
        for a in self.subexpressions:
            if a.is_field_store:
                raise ValueError(f"field store {a.lhs} among subexpressions")
            if a.lhs in seen:
                raise ValueError(f"temporary {a.lhs} assigned twice (not SSA)")
            undefined = {
                s
                for s in a.rhs.free_symbols
                if not isinstance(s, FieldAccess)
                and s in temporaries
                and s not in seen
            }
            if undefined:
                raise ValueError(f"{a.lhs} uses temporaries before definition: {undefined}")
            seen.add(a.lhs)
        for a in self.main_assignments:
            if not a.is_field_store and a.lhs.name not in self.reduction_symbols:
                raise ValueError(f"main assignment must store to a field: {a}")
            if a.is_field_store and a.lhs.name in self.reduction_symbols:
                raise ValueError(
                    f"reduction output {a.lhs} must not be a field store"
                )

    @property
    def reduction_outputs(self) -> list[Assignment]:
        """Main assignments accumulated as scalar sums (in program order)."""
        return [
            a
            for a in self.main_assignments
            if not a.is_field_store and a.lhs.name in self.reduction_symbols
        ]

    # -- transformations --------------------------------------------------------

    def transform_rhs(self, f: Callable[[sp.Expr], sp.Expr]) -> "AssignmentCollection":
        return self.copy(
            [a.transform_rhs(f) for a in self.main_assignments],
            [a.transform_rhs(f) for a in self.subexpressions],
        )

    def inline_subexpressions(self) -> "AssignmentCollection":
        """Substitute all temporaries back into the main assignments."""
        table: dict[sp.Symbol, sp.Expr] = {}
        for a in self.subexpressions:
            table[a.lhs] = a.rhs.xreplace(table)
        return self.copy(
            [a.subs(table) for a in self.main_assignments], subexpressions=[]
        )

    def topological_sort(self) -> "AssignmentCollection":
        """Re-order subexpressions so definitions precede uses."""
        remaining = list(self.subexpressions)
        defined: set[sp.Symbol] = set()
        temps = {a.lhs for a in remaining}
        ordered: list[Assignment] = []
        while remaining:
            progressed = False
            still = []
            for a in remaining:
                deps = a.rhs.free_symbols & temps
                if deps <= defined:
                    ordered.append(a)
                    defined.add(a.lhs)
                    progressed = True
                else:
                    still.append(a)
            if not progressed:
                raise ValueError("cyclic dependency among subexpressions")
            remaining = still
        return self.copy(subexpressions=ordered)

    def prune_dead_subexpressions(self) -> "AssignmentCollection":
        """Drop temporaries that do not (transitively) feed a main assignment."""
        needed: set[sp.Symbol] = set()
        for a in self.main_assignments:
            needed |= a.rhs.free_symbols
        kept: list[Assignment] = []
        for a in reversed(self.subexpressions):
            if a.lhs in needed:
                kept.append(a)
                needed |= a.rhs.free_symbols
        return self.copy(subexpressions=list(reversed(kept)))

    def fresh_symbol_generator(self, prefix: str = "xi") -> Iterable[sp.Symbol]:
        taken = {s.name for s in self.bound_symbols | self.free_symbols}
        for i in itertools.count():
            name = f"{prefix}_{i}"
            if name not in taken:
                yield sp.Symbol(name, real=True)

    # -- dunder ------------------------------------------------------------------

    def __len__(self):
        return len(self.all_assignments)

    def __iter__(self):
        return iter(self.all_assignments)

    def __str__(self):
        lines = [f"AssignmentCollection '{self.name}':"]
        lines += [f"  [sub ] {a}" for a in self.subexpressions]
        lines += [f"  [main] {a}" for a in self.main_assignments]
        return "\n".join(lines)

    __repr__ = __str__
