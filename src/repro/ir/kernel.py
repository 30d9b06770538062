"""Kernel objects — the bridge between SSA stencils and the backends.

A :class:`Kernel` bundles the optimized assignment collection with the
structural decisions of the IR layer: loop order, hoist levels, ghost-layer
width, typing and the target architecture.  :func:`create_kernel` is the
single entry point used by applications (paper Fig. 1, "intermediate
representation layer").

The kernel also *declares* its interface, once, for every backend: the
argument list of the native function (:attr:`Kernel.signature`), what a
call has to supply (:attr:`Kernel.required_parameters`,
:attr:`Kernel.min_ghost_layers`, checked by :meth:`Kernel.check_arrays`
and :meth:`Kernel.check_parameters`) and which statements are lowered over
which write region (:attr:`Kernel.regions`).  Backends print, bind and
check these; none of them assembles an argument list — or a call check —
of its own.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property
from typing import Mapping

import numpy as np
import sympy as sp

from ..simplification.passes import optimize
from ..symbolic.assignment import AssignmentCollection
from ..symbolic.field import Field, FieldAccess
from .approximations import insert_approximations
from .loops import (
    IterationSpace,
    analytic_axes,
    choose_loop_order,
    classify_hoist_levels,
    extract_invariant_subexpressions,
    frontier_spaces,
    interior_space,
    needed_subexpressions,
    write_region,
)
from .types import DOUBLE, INT64, BasicType, infer_types, kernel_parameters

__all__ = [
    "Argument",
    "ARRAY_SET_ROLES",
    "Kernel",
    "create_kernel",
    "KernelConfig",
    "split_interior_frontier",
]

#: roles whose value follows from the array set and where it sits (the
#: ``arrays``, ``ghost_layers``, ``block_offset`` and ``origin`` of a call).
#: They form a prefix of every signature, so a compiled kernel may marshal
#: them once per array set; the arguments behind them are the scalars of a
#: call (``**params``) and, for a reduction, its output buffer.
ARRAY_SET_ROLES = (
    "field", "extent", "ghost_layers", "sub_lo", "sub_hi", "block_offset", "origin",
)


@dataclass(frozen=True)
class Argument:
    """One argument of the native kernel function, C and CUDA alike."""

    role: str          # what the caller passes, see :attr:`Kernel.signature`
    name: str          # identifier in the generated source
    type: BasicType
    #: selects the value among those of its role: the field's name, the
    #: axis, or the name the parameter has in ``**params``
    key: str | int | None = None

    @property
    def is_pointer(self) -> bool:
        return self.role in ("field", "reduce_out")

    def declaration(self, restrict: str = "restrict") -> str:
        """The argument as spelled in a prototype (CUDA says ``__restrict__``)."""
        if self.is_pointer:
            return f"{self.type.c_name} * {restrict} {self.name}"
        return f"const {self.type.c_name} {self.name}"


@dataclass
class KernelConfig:
    """Code-generation options (the per-model, per-machine tuning knobs)."""

    target: str = "cpu"                      # "cpu" | "gpu"
    approximations: tuple = ()               # subset of ("division","sqrt","rsqrt")
    parameter_values: Mapping | None = None  # compile-time constants


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

    @cached_property
    def parameters(self) -> list[sp.Symbol]:
        # memoized, like everything below that is derived from the (never
        # mutated) assignment collection: backends read these on every
        # kernel call, and a sympy traversal would dominate the per-call
        # cost of small (e.g. frontier-restricted) kernels
        return kernel_parameters(self.ac)

    @cached_property
    def fields(self) -> list[Field]:
        return sorted(self.ac.fields, key=lambda f: f.name)

    @cached_property
    def coordinate_axes(self) -> frozenset[int]:
        """Spatial axes whose coordinate symbol occurs in the kernel body."""
        return frozenset(analytic_axes(self.ac))

    def folded_value(self, name: str):
        """Compile-time constant for *name*, or None if it stayed symbolic."""
        values = self.config.parameter_values or {}
        for k, v in values.items():
            key = k.name if isinstance(k, sp.Symbol) else str(k)
            if key == name:
                return v
        return None

    # -- the kernel ABI: declared here, printed / bound / checked by backends ---

    @cached_property
    def c_name(self) -> str:
        """The native function's identifier (restricted names contain ':')."""
        return "kernel_" + re.sub(r"[^0-9A-Za-z_]", "_", self.name)

    @cached_property
    def signature(self) -> tuple[Argument, ...]:
        """Ordered, typed argument list of the native kernel function.

        ``field`` pointers (sorted by name), interior ``extent`` ``n<d>``,
        ``ghost_layers`` ``gl``, for a restricted kernel the ``sub_lo`` /
        ``sub_hi`` offsets of its loop range ``[sub_lo, n + sub_hi)``, the
        ``block_offset`` ``off<d>`` and ``origin<d>`` of the block, then the
        scalars of a call: ``spacing`` ``h<d>``, every free ``parameter``
        as ``p_<name>``, ``time_step`` and ``seed``; a reduction kernel
        ends with its output buffer ``reduce_out``.  To give every kernel
        one more argument, add it here.
        """
        axes = range(self.dim)

        def per_axis(role: str, stem: str, type_: BasicType) -> list[Argument]:
            return [Argument(role, f"{stem}{d}", type_, d) for d in axes]

        args = [Argument("field", f"f_{f.name}", DOUBLE, f.name) for f in self.fields]
        args += per_axis("extent", "n", INT64)
        args.append(Argument("ghost_layers", "gl", INT64))
        if self.subspace is not None:
            args += per_axis("sub_lo", "sub_lo", INT64)
            args += per_axis("sub_hi", "sub_hi", INT64)
        args += per_axis("block_offset", "off", INT64)
        args += per_axis("origin", "origin", DOUBLE)
        args += [Argument("spacing", f"h{d}", DOUBLE, f"dx_{d}") for d in axes]
        args += [
            Argument("parameter", f"p_{p.name}", DOUBLE, p.name)
            for p in self.parameters
            if p.name not in ("time_step", "seed")
        ]
        args += [
            Argument("time_step", "time_step", INT64, "time_step"),
            Argument("seed", "seed", INT64, "seed"),
        ]
        if self.is_reduction:
            args.append(Argument("reduce_out", "reduce_out", DOUBLE))
        return tuple(args)

    @cached_property
    def required_parameters(self) -> tuple[str, ...]:
        """Names a call must supply in ``**params``, sorted.

        Every free parameter (``time_step`` and ``seed`` default to 0) and
        the spacing ``dx_<d>`` of every axis whose coordinate the body
        reads, unless it was folded at compile time.
        """
        names = {a.key for a in self.signature if a.role == "parameter"}
        names |= {
            f"dx_{d}"
            for d in self.coordinate_axes
            if self.folded_value(f"dx_{d}") is None
        }
        return tuple(sorted(names))

    @cached_property
    def min_ghost_layers(self) -> int:
        """Narrowest ghost width of the arrays the kernel may be called on.

        The stencil reach; a staggered (flux) write extends one layer past
        the interior even where no read does.
        """
        return max(self.ghost_layers, int(self.has_staggered_writes))

    def check_arrays(
        self, arrays: Mapping, ghost_layers: int, block_offset, origin
    ) -> tuple[int, ...]:
        """The array check of every backend; returns the ghosted spatial shape.

        One named exception per defect, in this order: a field without an
        array (``KeyError`` naming all of them); per field, in name order,
        an object that is no ``ndarray`` (``TypeError``), then ``ValueError``
        for a shape other than ``dim`` spatial axes + ``Field.index_shape``,
        spatial extents other than the first field's and a dtype other than
        ``float64``; then an axis too short to hold one interior cell
        between its ghost layers, a ghost width below
        :attr:`min_ghost_layers` and a ``block_offset`` / ``origin`` with
        fewer than ``dim`` entries.  What is specific to how a backend
        addresses memory (byte strides) is that backend's to check, after
        this.
        """
        missing = [f.name for f in self.fields if f.name not in arrays]
        if missing:
            raise KeyError(f"missing arrays for fields: {missing}")
        dim, gl = self.dim, ghost_layers
        first = self.fields[0].name
        spatial = None
        for f in self.fields:
            a = arrays[f.name]
            if not isinstance(a, np.ndarray):
                raise TypeError(
                    f"array {f.name} must be a numpy.ndarray, got {type(a).__name__}"
                )
            if a.ndim != dim + len(f.index_shape) or a.shape[dim:] != f.index_shape:
                raise ValueError(
                    f"array {f.name} has shape {a.shape}, expected {dim} spatial "
                    f"axes followed by the index shape {f.index_shape}"
                )
            if spatial is None:
                spatial = a.shape[:dim]
            elif a.shape[:dim] != spatial:
                raise ValueError(
                    f"inconsistent spatial shapes: array {f.name} has shape "
                    f"{a.shape}, expected the extents {spatial} of array {first}"
                )
            if a.dtype != np.float64:
                raise ValueError(f"array {f.name} must be float64, got {a.dtype}")
        if any(n < 2 * gl + 1 for n in spatial):
            raise ValueError(
                f"array {first} with spatial extents {spatial} too small for "
                f"{gl} ghost layers"
            )
        if gl < self.min_ghost_layers:
            raise ValueError(
                f"kernel {self.name} needs at least {self.min_ghost_layers} "
                f"ghost layers, got {gl}"
            )
        for what, value in (("block_offset", block_offset), ("origin", origin)):
            if len(value) < dim:
                raise ValueError(
                    f"{what} {tuple(value)} of a call to the {dim}D kernel "
                    f"{self.name} has fewer than {dim} entries"
                )
        return spatial

    def check_parameters(self, params: Mapping) -> None:
        """The call check of every backend: *params* names what is required."""
        missing = [n for n in self.required_parameters if n not in params]
        if missing:
            raise KeyError("missing kernel parameter " + ", ".join(map(repr, missing)))

    @cached_property
    def regions(self) -> tuple[tuple[tuple, list, list], ...]:
        """The region plan: ``(write region, main assignments, subexpressions)``.

        Main assignments grouped by write region (flux kernels write one
        region per staggered axis, everything else the interior), regions
        in sorted order, each with the subexpressions its assignments need.
        """
        groups: dict[tuple, list] = {}
        for a in self.ac.main_assignments:
            groups.setdefault(write_region(a, self.dim), []).append(a)
        return tuple(
            (region, assignments, needed_subexpressions(self.ac, assignments))
            for region, assignments in sorted(groups.items())
        )

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
        ac = optimize(ac, parameter_values=config.parameter_values)
        ac = extract_invariant_subexpressions(ac)
        if config.approximations:
            ac = insert_approximations(ac, config.approximations)
        ac.validate()

        loop_order = choose_loop_order(ac, dim)

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
            loop_order=loop_order,
            hoist_levels=classify_hoist_levels(ac, loop_order),
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
