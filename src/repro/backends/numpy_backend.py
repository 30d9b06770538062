"""NumPy backend: generates and executes vectorized Python kernels.

This is the reference execution engine of the pipeline (the paper's
interactive workflow, §4.2: "generated kernels ... operate on objects
implementing the Python buffer protocol, e.g. numpy arrays").  Every stencil
assignment becomes a slice expression over the block; temporaries become
intermediate arrays; staggered (flux) writes use per-assignment regions
extended by one face layer along the flux axis.  A contracted split
kernel's flux field (:func:`repro.ir.kernel.contract`) is an array the
call allocates per slab: its flux regions fill it, its update reads it.

A call evaluates the generated function slab by slab: rows ``[r0, r1)`` of
the outermost axis, ``_SLAB_CELLS`` cells at a time, each slab handed over
as the smaller ghost-layered block of rows ``[r0, r1 + 2·gl)`` with its
``block_offset`` shifted by ``r0``.  Temporaries are therefore slab-sized
and stay in cache.  Coordinates and Philox values are keyed on global
cells, so they follow the shift; a restricted kernel is cut into slabs of
its own rows.  Every cell computes the same operations on the same inputs
as in one whole-block call — :func:`repro.ir.kernel.create_kernel` refuses
a kernel that reads a field it writes at a non-zero offset — so the slab
size changes no bit.  A reduction returns its density values per slab;
the call gathers them into one interior-sized array per output and sums
that once.

The generated kernels index *logically* (``array[slices, component]``), so
they take arrays of any strides: the structure-of-arrays views
:func:`create_arrays` hands out, or plain C-ordered ``spatial + index_shape``
arrays — with bit-identical results.  Only the C backend, which computes
addresses itself, depends on the storage order.

The generated source is kept on the compiled object (``.source``) for
inspection and testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from sympy.printing.numpy import NumPyPrinter

from ..ir.kernel import Kernel
from ..symbolic.assignment import Assignment
from ..symbolic.coordinates import CoordinateSymbol
from ..symbolic.field import FieldAccess
from ..symbolic.ordering import BalancedSums, CanonicalTermOrder, SmallPowersAsProducts
from ..symbolic.random import RandomValue
from .runtime import RUNTIME_NAMESPACE, tile_sum

__all__ = ["compile_numpy_kernel", "CompiledNumpyKernel", "create_arrays"]

#: Cells of one slab (see :func:`_slabs`), 32 rows of a 1024² block: a
#: temporary is 256 KiB, so the operands and the result of one elementwise
#: operation stay in a core's L2 cache for the next operation that reads them.
_SLAB_CELLS = 32768


def create_arrays(
    fields, interior_shape: tuple[int, ...], ghost_layers: int = 1, fill: float = 0.0
) -> dict[str, np.ndarray]:
    """Allocate ghost-layered arrays for a set of fields.

    The only allocation site of field storage: every array is a view of
    the logical shape ``spatial + index_shape`` over the structure-of-arrays
    storage of :meth:`repro.symbolic.field.Field.allocate`, which is what a
    compiled C kernel requires.  A plain ``copy()`` of such an array is
    C-ordered in the logical shape, i.e. a different layout; use
    ``copy(order="K")`` (or assign into a fresh ``create_arrays`` result) to
    keep it.
    """
    spatial = tuple(s + 2 * ghost_layers for s in interior_shape)
    return {f.name: f.allocate(spatial, fill) for f in fields}


class _Printer(BalancedSums, CanonicalTermOrder, SmallPowersAsProducts, NumPyPrinter):
    """Expression printer with symbol renaming and fast-math lowering."""

    def __init__(self, rename: dict[str, str]):
        # fully qualified names ("numpy.sqrt") keep the generated source
        # independent of what happens to be imported into its namespace;
        # precision 17 guarantees doubles round-trip exactly (bitwise parity
        # with the C backend, which prints at the same precision)
        super().__init__({"precision": 17})
        self._rename = rename

    def _print_Float(self, expr):
        # shortest round-trip representation: bitwise parity with C backend
        return repr(float(expr))

    def _print_Symbol(self, expr):
        return self._rename.get(expr.name, expr.name)

    def _print_RandomValue(self, r: RandomValue):
        # the region's bound array; the expression keeps the RandomValue, so
        # its terms are ordered as the C printer orders them
        return self._rename[f"__rng_{r.stream}"]

    def _print_fast_division(self, expr):
        return f"_fast_div({self._print(expr.args[0])}, {self._print(expr.args[1])})"

    def _print_fast_sqrt(self, expr):
        return f"_fast_sqrt({self._print(expr.args[0])})"

    def _print_fast_rsqrt(self, expr):
        return f"_fast_rsqrt({self._print(expr.args[0])})"


def _slice_str(offset: int, lo_ext: int, hi_ext: int, axis: int | None = None) -> str:
    """Runtime-ghost-width slice: ``slice(__gl + a, (b - __gl) or None)``.

    With *axis* set (subspace-restricted kernels) the runtime ``__sub`` tuple
    shifts both ends: ``__sub[d][0] >= 0`` moves the start inward from the low
    face, ``__sub[d][1] <= 0`` moves the stop inward from the high face.
    """
    a = int(offset) - lo_ext
    b = hi_ext + int(offset)
    if axis is None:
        return f"slice(__gl + {a}, ({b} - __gl) or None)"
    return (
        f"slice(__gl + {a} + __sub[{axis}][0], "
        f"({b} - __gl + __sub[{axis}][1]) or None)"
    )


@dataclass
class CompiledNumpyKernel:
    """A generated, executable NumPy kernel."""

    kernel: Kernel
    source: str
    _func: callable

    @property
    def name(self) -> str:
        return self.kernel.name

    def __call__(
        self,
        arrays: dict[str, np.ndarray],
        block_offset: tuple[int, ...] = (0, 0, 0),
        origin: tuple[float, ...] = (0.0, 0.0, 0.0),
        ghost_layers: int | None = None,
        tile_shape: tuple[int, ...] | None = None,
        **params,
    ):
        """Execute one sweep over the interior of *arrays* (in place).

        ``arrays`` maps field names to ghost-layered ndarrays; ``params``
        supplies every free kernel parameter by name (``dt``, ``dx_0``, model
        constants, ``t``, ``time_step``, ``seed`` …).  ``ghost_layers`` is
        the actual ghost width of the arrays (defaults to the kernel's
        minimum requirement).  Every call is checked against the kernel's
        call contract (:meth:`Kernel.check_arrays
        <repro.ir.kernel.Kernel.check_arrays>`, ``check_parameters``).

        The generated function runs once per slab of rows of the outermost
        axis (:func:`_slabs`), each slab a smaller ghost-layered block.

        Stencil kernels write in place and return ``None``.  Reduction
        kernels leave the arrays untouched and return ``{name: float}`` with
        one raw (unscaled) interior sum per reduction output: the slabs'
        density values are gathered into one interior-sized array per
        output, summed once by :func:`repro.backends.runtime.tile_sum`;
        ``tile_shape`` selects its fixed-order tiled summation, which makes
        the result partition-invariant.
        """
        kernel = self.kernel
        gl = kernel.ghost_layers if ghost_layers is None else int(ghost_layers)
        spatial = kernel.check_arrays(arrays, gl, block_offset, origin)
        kernel.check_parameters(params)
        if tile_shape is not None and not kernel.is_reduction:
            raise ValueError(
                f"tile_shape only applies to reduction kernels, not {self.name}"
            )
        interior = tuple(int(s) - 2 * gl for s in spatial)
        origin = tuple(origin)
        rows, sub = (0, interior[0]), ()
        if kernel.subspace is not None:
            (lo, hi), *rest = kernel.subspace.offsets(interior)
            # slabs hold only the restricted rows: axis 0 is whole in each
            rows, sub = (lo, interior[0] + hi), (((0, 0), *rest),)
        values = {name: np.empty(interior) for name in kernel.reductions}
        for r0, r1 in _slabs(*rows, interior):
            views = {f.name: arrays[f.name][r0 : r1 + 2 * gl] for f in kernel.fields}
            offset = (block_offset[0] + r0, *block_offset[1:])
            out = self._func(views, params, offset, origin, gl, *sub)
            for name, v in values.items():
                v[r0:r1] = out[name]
        if kernel.is_reduction:
            tiles = tuple(int(t) for t in tile_shape) if tile_shape else None
            return {name: tile_sum(v, tiles) for name, v in values.items()}
        return None


def _slabs(lo: int, hi: int, interior: tuple[int, ...]):
    """``(r0, r1)`` row ranges of axis 0 that tile ``[lo, hi)`` in order.

    Each holds ``_SLAB_CELLS`` cells of *interior* (at least one row; the
    last slab may be shorter).
    """
    rows = max(1, _SLAB_CELLS // math.prod(interior[1:]))
    for r0 in range(lo, hi, rows):
        yield r0, min(r0 + rows, hi)


def compile_numpy_kernel(kernel: Kernel) -> CompiledNumpyKernel:
    """Generate and compile the NumPy implementation of *kernel*."""
    from ..observability.recorder import get_recorder

    with get_recorder().span(
        f"codegen:numpy:{kernel.name}", category="backend"
    ) as span:
        src = generate_numpy_source(kernel)
        import builtins
        import functools

        namespace = dict(RUNTIME_NAMESPACE)
        namespace["numpy"] = np
        namespace["functools"] = functools
        namespace["builtins"] = builtins
        exec(compile(src, f"<numpy kernel {kernel.name}>", "exec"), namespace)
        span["source_lines"] = src.count("\n")
        return CompiledNumpyKernel(kernel, src, namespace["_kernel"])


def generate_numpy_source(kernel: Kernel) -> str:
    """Produce the Python source of the vectorized kernel."""
    param_names = sorted(p.name for p in kernel.parameters)
    body: list[str] = []
    body.append(f"# generated NumPy kernel: {kernel.name}")
    if kernel.subspace is not None:
        body.append(
            "def _kernel(__arrays, __params, __block_offset, __origin, __gl,"
            " __sub):"
        )
    else:
        body.append(
            "def _kernel(__arrays, __params, __block_offset, __origin, __gl):"
        )
    ind = "    "
    body.append(ind + f"__shape = __arrays[{kernel.fields[0].name!r}].shape")
    if kernel.flux_field is not None:
        # a contracted flux field: an array of the slab's cells, this call's own
        flux = kernel.flux_field
        body.append(
            ind + f"__arrays = {{**__arrays, {flux.name!r}: "
            f"numpy.empty(__shape[:{kernel.dim}] + {flux.index_shape!r})}}"
        )
    for p in param_names:
        if p in ("time_step", "seed"):
            body.append(ind + f"{p} = __params.get({p!r}, 0)")
        else:
            body.append(ind + f"{p} = __params[{p!r}]")

    if kernel.is_reduction:
        body.extend(_emit_reduction_block(kernel, ind))
        return "\n".join(body) + "\n"

    for gid, (region, assignments, sub) in enumerate(kernel.regions):
        body.extend(
            _emit_region_block(kernel, region, assignments, sub, gid, ind)
        )
    body.append(ind + "return None")
    return "\n".join(body) + "\n"


def _emit_bindings(
    kernel: Kernel,
    region: tuple[tuple[int, int], ...],
    assignments: list[Assignment],
    sub: list[Assignment],
    gid: int,
    ind: str,
):
    """Emit field-read/coordinate/RNG/subexpression bindings for a region.

    Returns ``(lines, pr, region_shape)`` where ``pr`` prints an expression
    with all renames applied and ``region_shape`` is the source string of
    the region's spatial shape tuple.
    """
    dim = kernel.dim
    restricted = kernel.subspace is not None

    def sub_axis(d: int) -> int | None:
        return d if restricted else None

    def sub_lo(d: int) -> str:
        return f" + __sub[{d}][0]" if restricted else ""

    def sub_extent(d: int) -> str:
        return f" + __sub[{d}][1] - __sub[{d}][0]" if restricted else ""

    exprs = [a.rhs for a in sub + assignments]

    # gather atoms
    reads: set[FieldAccess] = set()
    coords: set[CoordinateSymbol] = set()
    rngs: set[RandomValue] = set()
    for e in exprs:
        reads |= e.atoms(FieldAccess)
        coords |= e.atoms(CoordinateSymbol)
        rngs |= e.atoms(RandomValue)

    suffix = f"__r{gid}"
    rename: dict[str, str] = {}
    lines: list[str] = [ind + f"# region {region}"]

    # field read bindings
    for acc in sorted(reads, key=lambda a: a.name):
        slices = ", ".join(
            _slice_str(acc.offsets[d], region[d][0], region[d][1], sub_axis(d))
            for d in range(dim)
        )
        idx = "".join(f", {i}" for i in acc.index)
        rename[acc.name] = acc.name + suffix
        lines.append(
            ind + f"{acc.name}{suffix} = __arrays[{acc.field.name!r}][{slices}{idx}]"
        )

    # coordinate bindings (cell-centre positions over this region)
    for c in sorted(coords, key=lambda s: s.axis):
        d = c.axis
        lo, hi = region[d]
        n_expr = f"__shape[{d}] - 2 * __gl + {lo + hi}" + sub_extent(d)
        reshape = ", ".join("-1" if dd == d else "1" for dd in range(dim))
        folded = kernel.folded_value(f"dx_{d}")
        h_expr = repr(float(folded)) if folded is not None else f"__params['dx_{d}']"
        rename[c.name] = c.name + suffix
        lines.append(
            ind
            + f"{c.name}{suffix} = (__origin[{d}] + (np.arange({n_expr}) "
            + f"+ __block_offset[{d}] - {lo}{sub_lo(d)} + 0.5) * {h_expr})"
            + (f".reshape({reshape})" if dim > 1 else "")
        )

    # RNG bindings
    printer = _Printer(rename)
    region_shape = (
        "("
        + ", ".join(
            f"__shape[{d}] - 2 * __gl + {region[d][0] + region[d][1]}"
            + sub_extent(d)
            for d in range(dim)
        )
        + ("," if dim == 1 else "")
        + ")"
    )
    region_offset = (
        "("
        + ", ".join(
            f"__block_offset[{d}] - {region[d][0]}" + sub_lo(d)
            for d in range(dim)
        )
        + ("," if dim == 1 else "")
        + ")"
    )
    for r in sorted(rngs, key=lambda r: r.stream):
        name = rename[f"__rng_{r.stream}"] = f"__rng_{r.stream}{suffix}"
        low = printer.doprint(r.low)
        high = printer.doprint(r.high)
        ts = "__params.get('time_step', 0)"
        seed = "__params.get('seed', 0)"
        lines.append(
            ind
            + f"{name} = _rng_uniform({region_shape}, {ts}, {seed}, "
            + f"{r.stream}, {region_offset}, {low}, {high})"
        )

    pr = printer.doprint

    # subexpressions
    for a in sub:
        rename[a.lhs.name] = a.lhs.name + suffix
        lines.append(ind + f"{a.lhs.name}{suffix} = {pr(a.rhs)}")

    return lines, pr, region_shape


def _emit_region_block(
    kernel: Kernel,
    region: tuple[tuple[int, int], ...],
    assignments: list[Assignment],
    sub: list[Assignment],
    gid: int,
    ind: str,
) -> list[str]:
    dim = kernel.dim
    restricted = kernel.subspace is not None
    lines, pr, _ = _emit_bindings(kernel, region, assignments, sub, gid, ind)

    # main stores
    for a in assignments:
        lhs: FieldAccess = a.lhs
        slices = ", ".join(
            _slice_str(
                lhs.offsets[d], region[d][0], region[d][1],
                d if restricted else None,
            )
            for d in range(dim)
        )
        idx = "".join(f", {i}" for i in lhs.index)
        lines.append(
            ind + f"__arrays[{lhs.field.name!r}][{slices}{idx}] = {pr(a.rhs)}"
        )
    return lines


def _emit_reduction_block(kernel: Kernel, ind: str) -> list[str]:
    """Emit the body of a sum-reduction kernel (interior region only).

    The function returns each reduction output's density values over the
    cells it was called on (an array, or a scalar where the density is
    constant); :meth:`CompiledNumpyKernel.__call__` gathers them into one
    interior-sized array per output and sums that once.
    """
    ((region, outputs, sub),) = kernel.regions
    lines, pr, _ = _emit_bindings(kernel, region, outputs, sub, 0, ind)
    lines.append(ind + "__out = {}")
    for a in outputs:
        lines.append(ind + f"__out[{a.lhs.name!r}] = {pr(a.rhs)}")
    lines.append(ind + "return __out")
    return lines
