"""Kernel objects — the bridge between SSA stencils and the backends.

A :class:`Kernel` bundles the optimized assignment collection with the
structural decisions of the IR layer: loop order, hoist levels, ghost-layer
width, typing and the target architecture.  :func:`create_kernel` is the
single entry point used by applications (paper Fig. 1, "intermediate
representation layer").
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import Mapping

import sympy as sp

from ..simplification.passes import optimize
from ..symbolic.assignment import AssignmentCollection
from ..symbolic.field import Field, FieldAccess
from .approximations import insert_approximations
from .loops import (
    IterationSpace,
    choose_loop_order,
    classify_hoist_levels,
    extract_invariant_subexpressions,
    frontier_spaces,
    interior_space,
)
from .types import BasicType, infer_types, kernel_parameters

__all__ = ["Kernel", "create_kernel", "KernelConfig", "split_interior_frontier"]


@dataclass
class KernelConfig:
    """Code-generation options (the per-model, per-machine tuning knobs)."""

    target: str = "cpu"                      # "cpu" | "gpu"
    approximations: tuple = ()               # subset of ("division","sqrt","rsqrt")
    cse: bool = True
    parameter_values: Mapping | None = None  # compile-time constants
    loop_order: tuple | None = None          # override automatic choice
    vector_width: int = 8                    # doubles per SIMD register (AVX-512)


@dataclass
class Kernel:
    """A fully lowered compute kernel ready for backend code generation."""

    name: str
    ac: AssignmentCollection
    dim: int
    ghost_layers: int
    loop_order: tuple[int, ...]
    hoist_levels: dict[sp.Symbol, int]
    types: dict[sp.Symbol, BasicType]
    config: KernelConfig = dc_field(default_factory=KernelConfig)
    #: names of scalar sum-reduction outputs (empty for stencil sweeps)
    reductions: tuple[str, ...] = ()
    #: optional iteration-space restriction (None = the full interior)
    subspace: IterationSpace | None = None

    @property
    def is_reduction(self) -> bool:
        return bool(self.reductions)

    @property
    def has_staggered_writes(self) -> bool:
        return any(
            isinstance(a.lhs, FieldAccess) and a.lhs.field.staggered
            for a in self.ac.main_assignments
        )

    def restricted(self, subspace: IterationSpace) -> Kernel:
        """The same kernel, lowered over *subspace* instead of the full interior.

        The restricted kernel shares assignments, loop order, hoisting and
        typing with the original — only the loop bounds / slice ranges the
        backends emit change, so each cell it does visit computes bit-identical
        values (Philox counters and coordinates stay global).
        """
        if subspace.dim != self.dim:
            raise ValueError(
                f"iteration space {subspace.name!r} is {subspace.dim}D, "
                f"kernel {self.name!r} is {self.dim}D"
            )
        if self.is_reduction:
            raise ValueError(
                f"reduction kernel {self.name!r} cannot be restricted: partial "
                "sums over subspaces would change the fixed summation order"
            )
        if self.has_staggered_writes:
            raise ValueError(
                f"kernel {self.name!r} has staggered (flux) writes whose "
                "per-assignment regions cannot be composed with an iteration "
                "subspace; use the 'full' kernel variants for overlap"
            )
        if self.subspace is not None:
            raise ValueError(f"kernel {self.name!r} is already restricted")
        return replace(self, name=f"{self.name}:{subspace.name}", subspace=subspace)

    @property
    def parameters(self) -> list[sp.Symbol]:
        # memoized: backends enumerate the parameters on every kernel call,
        # and the sympy free-symbol traversal would otherwise dominate the
        # per-call cost of small (e.g. frontier-restricted) kernels
        cached = self.__dict__.get("_parameters")
        if cached is None:
            cached = self.__dict__["_parameters"] = kernel_parameters(self.ac)
        return cached

    @property
    def coordinate_axes(self) -> set[int]:
        """Spatial axes whose coordinate symbol occurs in the kernel body."""
        from ..symbolic.coordinates import CoordinateSymbol

        axes: set[int] = set()
        for a in self.ac.all_assignments:
            axes |= {s.axis for s in a.rhs.atoms(CoordinateSymbol)}
        return axes

    def folded_value(self, name: str):
        """Compile-time constant for *name*, or None if it stayed symbolic."""
        values = self.config.parameter_values or {}
        for k, v in values.items():
            key = k.name if isinstance(k, sp.Symbol) else str(k)
            if key == name:
                return v
        return None

    @property
    def fields(self) -> list[Field]:
        cached = self.__dict__.get("_fields")
        if cached is None:
            cached = self.__dict__["_fields"] = sorted(
                self.ac.fields, key=lambda f: f.name
            )
        return cached

    @property
    def hoisted(self) -> set[sp.Symbol]:
        return {s for s, lvl in self.hoist_levels.items() if lvl < self.dim}

    def operation_count(self, include_hoisted: bool = False):
        """Per-cell operation count (hoisted assignments amortized away)."""
        from ..perfmodel.flops import count_operations

        skip = () if include_hoisted else self.hoisted
        return count_operations(self.ac, skip_symbols=skip)

    def __repr__(self):
        return (
            f"Kernel({self.name!r}, {self.dim}D, gl={self.ghost_layers}, "
            f"{len(self.ac)} assignments, target={self.config.target})"
        )


def create_kernel(
    ac: AssignmentCollection,
    config: KernelConfig | None = None,
    name: str | None = None,
) -> Kernel:
    """Lower an assignment collection into a :class:`Kernel`.

    Runs the standard optimization pipeline (constant folding of
    ``config.parameter_values``, per-term simplification, global CSE),
    optionally inserts approximate operations, chooses the loop order and
    classifies hoistable subexpressions.
    """
    from ..observability.recorder import get_recorder

    config = config or KernelConfig()
    dims = {f.spatial_dimensions for f in ac.fields}
    if len(dims) != 1:
        raise ValueError(f"kernel mixes fields of different dimensionality: {dims}")
    (dim,) = dims

    with get_recorder().span(
        f"create_kernel:{name or ac.name}", category="ir", target=config.target
    ) as span:
        ac = optimize(ac, parameter_values=config.parameter_values, cse=config.cse)
        ac = extract_invariant_subexpressions(ac)
        if config.approximations:
            ac = insert_approximations(ac, config.approximations)
        ac.validate()

        loop_order = config.loop_order or choose_loop_order(ac, dim)
        if sorted(loop_order) != list(range(dim)):
            raise ValueError(f"loop_order {loop_order} is not a permutation of axes")

        reductions = tuple(a.lhs.name for a in ac.reduction_outputs)
        if reductions and ac.field_writes:
            raise ValueError(
                "a kernel cannot mix field stores with reduction outputs: "
                f"{ac.name}"
            )
        kernel = Kernel(
            name=name or ac.name,
            ac=ac,
            dim=dim,
            ghost_layers=ac.ghost_layers_required(),
            loop_order=tuple(loop_order),
            hoist_levels=classify_hoist_levels(ac, tuple(loop_order)),
            types=infer_types(ac),
            config=config,
            reductions=reductions,
        )
        span.update(
            assignments=len(ac), ghost_layers=kernel.ghost_layers,
            loop_order=str(kernel.loop_order),
        )
        return kernel


def split_interior_frontier(
    kernel: Kernel, margin: int | None = None
) -> tuple[Kernel, tuple[Kernel, ...]]:
    """Split *kernel* into an interior variant and per-face frontier variants.

    *margin* defaults to the kernel's stencil reach (``kernel.ghost_layers``):
    a cell at distance ≥ reach from every block face reads no ghost data, so
    the interior variant can run while a ghost exchange is in flight; the
    frontier variants sweep the remaining shell once the exchange finished.
    Interior ∪ frontiers tiles the block exactly once.
    """
    m = kernel.ghost_layers if margin is None else int(margin)
    m = max(m, 1)
    interior = kernel.restricted(interior_space(kernel.dim, m))
    frontiers = tuple(
        kernel.restricted(space) for space in frontier_spaces(kernel.dim, m)
    )
    return interior, frontiers
