"""C backend: generates C99 + OpenMP sources and executes them via ctypes.

Mirrors the paper's CPU backend (§3.5): loop nests ordered by the IR layer,
loop-invariant subexpressions hoisted to their loop level (the temperature
optimization), restrict-qualified pointers, an OpenMP-parallel outer loop, an
``omp simd`` innermost loop (the paper emits explicit SIMD) and
optional approximate math (single-precision div/sqrt paths standing in for
the AVX-512 ``rsqrt14`` intrinsics).  An embedded scalar Philox-4x32-10
matches the NumPy backend bit for bit.

Fields are addressed in the structure-of-arrays ("fzyx") layout of
:meth:`repro.symbolic.field.Field.strides` — one contiguous block per
component, so every access of the innermost loop is unit-stride.  The
emitter prints that rule (:func:`_declare_strides`), :func:`create_arrays
<repro.backends.numpy_backend.create_arrays>` allocates by it and a compiled
kernel refuses an array that does not follow it.

Generated kernels are compiled on the fly with the system C compiler and
published into the persistent cross-process cache
(:mod:`repro.profiling.diskcache`): keyed by the kernel's structural IR
fingerprint plus compiler identity and codegen revision, file-locked so
concurrent processes compile each kernel at most once, and atomically
renamed into place so no process can ever ``dlopen`` a partial ``.so``.
Results are bitwise equal to the NumPy backend's (binary and P1 models,
verified in tests): no fast-math flag, and both printers lower small integer
powers to the same multiplication chains.

Calling a compiled kernel validates and marshals an array set once and
serves repeat calls from that binding; :class:`CompiledCKernel` says what
is checked when, what invalidates a binding and why it holds its arrays
weakly.  Every kernel's translation unit also holds a *packed* entry
(:func:`packed_entry`), which takes the arguments from two blocks a binding
fills once, so a repeat call is one two-argument foreign call.

The ghost fill of :mod:`repro.parallel.boundary` has a native form too: one
routine for any array (:func:`compile_c_fill`), which runs the fill's slice
plan as lowered for each array by :class:`CompiledCFill`.  Its translation
unit also holds ``repro_run``, which runs *n* time steps of a schedule
lowered to packed entries (:mod:`repro.timeloop`).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
import weakref
from functools import cache, partial, reduce
from pathlib import Path

import numpy as np
import sympy as sp
from sympy.printing.c import C99CodePrinter

from ..ir.kernel import ARRAY_SET_ROLES, Argument, Kernel
from ..ir.loops import analytic_axes
from ..symbolic.assignment import Assignment
from ..symbolic.coordinates import CoordinateSymbol
from ..symbolic.field import FieldAccess
from ..symbolic.ordering import BalancedSums, CanonicalTermOrder, SmallPowersAsProducts
from ..symbolic.random import RandomValue

__all__ = [
    "generate_c_source",
    "packed_entry",
    "compile_c_kernel",
    "CompiledCKernel",
    "compile_c_fill",
    "CompiledCFill",
    "pack_ops",
    "c_compiler_available",
    "CStatementPrinter",
    "function_head",
    "CODEGEN_FLAGS",
    "compile_attempts",
]

_PHILOX_C = r"""
#include <math.h>
#include <stdint.h>

#ifndef M_PI
#define M_PI 3.14159265358979323846
#endif

static inline uint32_t _mulhilo(uint32_t a, uint32_t b, uint32_t *lo) {
    uint64_t p = (uint64_t)a * (uint64_t)b;
    *lo = (uint32_t)p;
    return (uint32_t)(p >> 32);
}

/* Philox-4x32-10, bit-identical to repro.rng.philox */
static inline double _philox_uniform(
    int64_t g0, int64_t g1, int64_t g2, uint32_t c3,
    uint32_t k0, uint32_t k1, int lane, double low, double high)
{
    uint32_t x0 = (uint32_t)(g0 & 0xFFFFFFFF);
    uint32_t x1 = (uint32_t)(g1 & 0xFFFFFFFF);
    uint32_t x2 = (uint32_t)(g2 & 0xFFFFFFFF);
    uint32_t x3 = c3;
    for (int r = 0; r < 10; ++r) {
        uint32_t lo0, lo1;
        uint32_t hi0 = _mulhilo(0xD2511F53u, x0, &lo0);
        uint32_t hi1 = _mulhilo(0xCD9E8D57u, x2, &lo1);
        uint32_t y0 = hi1 ^ x1 ^ k0;
        uint32_t y1 = lo1;
        uint32_t y2 = hi0 ^ x3 ^ k1;
        uint32_t y3 = lo0;
        x0 = y0; x1 = y1; x2 = y2; x3 = y3;
        k0 += 0x9E3779B9u; k1 += 0xBB67AE85u;
    }
    double u;
    if (lane == 0)
        u = ((double)x0 * 0x1p-32 + (double)x1) * 0x1p-32;
    else
        u = ((double)x2 * 0x1p-32 + (double)x3) * 0x1p-32;
    return low + (high - low) * u;
}

static inline double _fast_div(double a, double b) {
    return (double)((float)a / (float)b);
}
static inline double _fast_sqrt(double x) { return (double)sqrtf((float)x); }
static inline double _fast_rsqrt(double x) { return (double)(1.0f / sqrtf((float)x)); }

/* Max/Min of the IR. A NaN in either operand propagates, as in numpy.amax /
   numpy.amin. The compare-and-select has the exact semantics of the SSE/AVX
   max/min instructions (second operand on NaN or a tie), so the compiler is
   free to inline and vectorize it: a vmaxpd/vminpd or a compare, plus one
   blend for a NaN in the first operand. */
static inline double _max(double a, double b) {
    double m = a > b ? a : b;
    return a != a ? a : m;
}
static inline double _min(double a, double b) {
    double m = a < b ? a : b;
    return a != a ? a : m;
}
"""


class CStatementPrinter(
    BalancedSums, CanonicalTermOrder, SmallPowersAsProducts, C99CodePrinter
):
    """Prints the statements of one write region of a kernel as C.

    What a field access, an RNG call, a kernel parameter, a spacing and a
    cell-centre coordinate look like in the generated source is decided
    here, once; the C emitter adds the loop nest and the hoist levels, the
    CUDA emitter the thread mapping, guards and fences.
    """

    def __init__(self, kernel: Kernel, region):
        super().__init__()
        self._region_lo = [lo for lo, _ in region]
        # per axis: a spacing folded at compile time is a literal, else the
        # argument h<d>
        self._spacing = [
            a.name if (h := kernel.folded_value(a.key)) is None else repr(float(h))
            for a in kernel.signature
            if a.role == "spacing"
        ]
        # a parameter is read through its argument, p_<name>
        self._rename = {
            a.key: sp.Symbol(a.name, real=True)
            for a in kernel.signature
            if a.role == "parameter"
        }

    def _print_Symbol(self, expr):
        if isinstance(expr, FieldAccess):
            return self.access(expr)
        return super()._print_Symbol(expr)

    def access(self, acc: FieldAccess) -> str:
        """The element a field access reads or writes."""
        return _access_str(acc)

    def _print_Float(self, expr):
        # shortest round-trip decimal; C strtod parses to the nearest double,
        # so this is bit-identical to the Python value
        return repr(float(expr))

    def _print_RandomValue(self, r: RandomValue):
        # counter = global cell index: Philox streams do not depend on the
        # block decomposition or on the write region's extension
        g = [f"i{d} + off{d} - {lo}" for d, lo in enumerate(self._region_lo)]
        g += ["0"] * (3 - len(g))
        return (
            f"_philox_uniform({g[0]}, {g[1]}, {g[2]}, {r.stream // 2}u, "
            f"(uint32_t)(time_step & 0xFFFFFFFF), (uint32_t)(seed & 0xFFFFFFFF), "
            f"{r.stream % 2}, {self._print(r.low)}, {self._print(r.high)})"
        )

    def _print_fast_division(self, expr):
        return f"_fast_div({self._print(expr.args[0])}, {self._print(expr.args[1])})"

    def _print_fast_sqrt(self, expr):
        return f"_fast_sqrt({self._print(expr.args[0])})"

    def _print_fast_rsqrt(self, expr):
        return f"_fast_rsqrt({self._print(expr.args[0])})"

    def _fold_left(self, func, expr):
        # not libm's fmax/fmin (sympy's default): without -ffinite-math-only
        # gcc must *call* them, which drops NaNs, blocks vectorization and
        # made the projection the slowest sweep (see DESIGN.md)
        return reduce(lambda out, a: f"{func}({out}, {a})", map(self._print, expr.args))

    def _print_Max(self, expr):
        return self._fold_left("_max", expr)

    def _print_Min(self, expr):
        return self._fold_left("_min", expr)

    def _print_Pow(self, expr):
        base, expo = expr.args
        if expo == sp.Rational(-1, 2):
            return f"(1.0/sqrt({self._print(base)}))"
        return super()._print_Pow(expr)

    def rhs(self, a: Assignment) -> str:
        """Right-hand side of *a* with parameters read through their arguments."""
        e = a.rhs
        mapping = {
            s: self._rename[s.name]
            for s in e.free_symbols
            if not isinstance(s, (FieldAccess, CoordinateSymbol)) and s.name in self._rename
        }
        return self.doprint(e.xreplace(mapping) if mapping else e)

    def statement(self, a: Assignment) -> str:
        """A field store, or the definition of a temporary."""
        if a.is_field_store:
            return f"{self.access(a.lhs)} = {self.rhs(a)};"
        return f"const double {a.lhs.name} = {self.rhs(a)};"

    def coordinate(self, axis: int) -> str:
        """Definition of ``x_<axis>``: the global cell-centre position."""
        h = self._spacing[axis]
        return (
            f"const double x_{axis} = origin{axis} + "
            f"(double)(i{axis} + off{axis} - {self._region_lo[axis]}) * {h} + 0.5 * {h};"
        )


def _declare_strides(fields, dim: int) -> list[str]:
    """Declarations of the ghosted extents ``m<d>`` and every field's strides.

    ``s_<field>_<k>`` is the stride, in doubles, of logical axis *k* (the
    spatial axes, then the index axes): the products
    :meth:`~repro.symbolic.field.Field.strides` forms over the ghosted
    extents — the one layout rule, printed.  The innermost spatial stride is
    the literal 1.
    """
    extents = sp.symbols(f"m:{dim}", integer=True)
    lines = [f"    const int64_t m{d} = n{d} + 2*gl;" for d in range(dim)]
    for f in fields:
        lines += [
            f"    const int64_t s_{f.name}_{k} = {sp.ccode(stride)};"
            for k, stride in enumerate(f.strides(extents))
        ]
    return lines


def _access_str(acc: FieldAccess) -> str:
    """``f_<field>[...]``: the access's logical index dotted with the strides."""
    name = acc.field.name
    terms = [f"(i{d} + gl + {int(o)}) * s_{name}_{d}" for d, o in enumerate(acc.offsets)]
    terms += [
        f"{i} * s_{name}_{len(acc.offsets) + k}" for k, i in enumerate(acc.index) if i
    ]
    return f"f_{name}[{' + '.join(terms)}]"


def function_head(kernel: Kernel, prefix: str = "void", restrict: str = "restrict") -> list[str]:
    """Prototype (``kernel.signature``, printed), opening brace, stride declarations."""
    return [
        f"{prefix} {kernel.c_name}(",
        "    " + ",\n    ".join(a.declaration(restrict) for a in kernel.signature) + ")",
        "{",
        *_declare_strides(kernel.fields, kernel.dim),
        "",
    ]


def generate_c_source(kernel: Kernel) -> str:
    """Emit the complete C99 translation unit for *kernel*."""
    lines = [f"/* generated C kernel: {kernel.name} */", _PHILOX_C, ""]
    if kernel.flux_field is not None:
        lines += ["#include <stdlib.h>", ""]
    lines += function_head(kernel)
    if kernel.flux_field is not None:
        lines += _emit_contracted(kernel)
    else:
        for region, assignments, sub in kernel.regions:
            lines += _emit_c_loop_nest(kernel, region, assignments, sub)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _is_int_slot(arg: Argument) -> bool:
    """Whether the packed entry reads *arg* from its integer block."""
    return arg.is_pointer or arg.type.is_int


def packed_entry(kernel: Kernel) -> str:
    """``<c_name>_packed(ia, da)``: the kernel called with its arguments unpacked.

    Pointers and integers are read from ``ia``, doubles from ``da``, each
    block in ``kernel.signature`` order.  Appended to
    :func:`generate_c_source`'s text when the kernel is built, so the
    emitted source — and everything hashed from it — is unchanged.
    """
    taken = {True: 0, False: 0}
    args = []
    for a in kernel.signature:
        is_int = _is_int_slot(a)
        read = f"{'ia' if is_int else 'da'}[{taken[is_int]}]"
        taken[is_int] += 1
        args.append(f"(double *)(intptr_t){read}" if a.is_pointer else read)
    return "\n".join([
        f"void {kernel.c_name}_packed(const int64_t *ia, const double *da)",
        "{",
        f"    {kernel.c_name}(" + ", ".join(args) + ");",
        "}",
        "",
    ])


def _loop_range(kernel: Kernel, region, axis: int) -> tuple[str, str]:
    """Start and bound of the loop over *axis* writing *region*, restricted or not."""
    lo, hi = region[axis]
    bound = f"n{axis} + {lo + hi}" if (lo or hi) else f"n{axis}"
    if kernel.subspace is None:
        return "0", bound
    return f"sub_lo{axis}", f"{bound} + sub_hi{axis}"


def _emit_c_loop_nest(kernel, region, assignments, sub) -> list[str]:
    dim = kernel.dim
    loop_order = kernel.loop_order
    levels = kernel.hoist_levels
    printer = CStatementPrinter(kernel, region)

    # organize subexpressions by hoist level (position in loop order)
    by_level: dict[int, list[Assignment]] = {}
    for a in sub:
        by_level.setdefault(levels.get(a.lhs, dim), []).append(a)

    out: list[str] = [f"    /* region {region} */", "    {"]
    indent = "    "

    # level 0 subexpressions (pure parameter math)
    for a in by_level.get(0, []):
        out.append(f"{indent}    {printer.statement(a)}")

    pad = indent + "    "
    coords_needed = analytic_axes(sub + assignments)
    # reduction kernels accumulate into per-output scalars instead of storing
    reductions = kernel.reductions if kernel.is_reduction else ()
    acc_names = {}
    if reductions:
        for i, a in enumerate(assignments):
            acc_names[a.lhs.name] = f"__acc_{i}"
            out.append(f"{indent}    double __acc_{i} = 0.0;")

    restricted = kernel.subspace is not None
    for level, axis in enumerate(loop_order, start=1):
        start, bound = _loop_range(kernel, region, axis)
        # threads on the outermost loop, vector lanes on the innermost: each
        # iteration writes only its own cell through restrict pointers.  A
        # reduction stays scalar, "simd reduction" would reorder its sums; a
        # frontier slab on the face of its innermost axis runs that loop
        # `margin` times, and the vector prologue costs more than it saves
        face = restricted and kernel.subspace.intervals[axis].is_face
        simd = " simd" if level == dim and not acc_names and not face else ""
        if level == 1:
            clause = (
                " reduction(+:" + ",".join(acc_names.values()) + ")"
                if acc_names
                else ""
            )
            out.append(f"{pad}#pragma omp parallel for{simd} schedule(static){clause}")
        elif simd:
            out.append(f"{pad}#pragma omp simd")
        out.append(
            f"{pad}for (int64_t i{axis} = {start}; i{axis} < {bound}; ++i{axis}) {{"
        )
        pad += "    "
        if axis in coords_needed:
            out.append(pad + printer.coordinate(axis))
        for a in by_level.get(level, []):
            out.append(pad + printer.statement(a))

    for a in assignments:
        if acc_names:
            out.append(f"{pad}{acc_names[a.lhs.name]} += {printer.rhs(a)};")
        else:
            out.append(pad + printer.statement(a))

    for _ in range(dim):
        pad = pad[:-4]
        out.append(f"{pad}}}")
    if reductions:
        for i, a in enumerate(assignments):
            out.append(f"{pad}reduce_out[{i}] = __acc_{i};")
    out.append("    }")
    return out


class _BufferPrinter(CStatementPrinter):
    """A contracted kernel's printer: its flux field is the thread's buffer ``buf``.

    The buffer holds one *plane* per slot — the cells of every axis but the
    outermost loop's, one more along each for the upper faces — in C
    order over the loop's inner axes.  Slots whose faces are normal to the
    outermost axis have a ring of two planes, the lower faces of plane
    ``i`` at ``i & 1``; every other slot has the current plane's.
    """

    def __init__(self, kernel: Kernel, region):
        super().__init__(kernel, region)
        self._kernel = kernel
        self._ring, self._rest = _buffer_slots(kernel)

    def access(self, acc: FieldAccess) -> str:
        k = self._kernel
        if acc.field != k.flux_field:
            return _access_str(acc)
        outer, *inner = k.loop_order
        (slot,) = acc.index
        off = [int(o) for o in acc.offsets]
        if slot in self._ring:
            ring = len(self._ring)
            plane = f"((i{outer} + {off[outer]}) & 1) * {ring} + {self._ring.index(slot)}"
        else:
            plane = str(2 * len(self._ring) + self._rest.index(slot))
        cell = "0"
        for d in inner:
            at = f"i{d}" + (f" - sub_lo{d}" if k.subspace is not None else "")
            at += f" + {off[d]}" if off[d] else ""
            cell = at if cell == "0" else f"({cell}) * buf_e{d} + {at}"
        return f"buf[({plane}) * buf_plane + {cell}]"


def _buffer_slots(kernel: Kernel) -> tuple[list[int], list[int]]:
    """A contracted kernel's flux slots: the ring's (normal to the outer loop axis), the rest."""
    outer = kernel.loop_order[0]
    axes = kernel.flux_field.slot_axes
    return (
        [s for s, a in enumerate(axes) if a == outer],
        [s for s, a in enumerate(axes) if a != outer],
    )


def _emit_contracted(kernel: Kernel) -> list[str]:
    """The loop nest of a contracted split kernel (:func:`repro.ir.kernel.contract`).

    One parallel loop over the outermost axis.  Per plane it runs the flux
    stage's regions into the thread's buffer (:class:`_BufferPrinter`),
    then the update, which reads them: each face flux is computed once —
    twice only for the lower faces of the first plane of a thread's chunk.
    """
    outer, *inner = kernel.loop_order
    restricted = kernel.subspace is not None
    ring, rest = _buffer_slots(kernel)
    planes = 2 * len(ring) + len(rest)
    lines = [
        f"    /* contracted flux field {kernel.flux_field.name}: per thread, {len(ring)} slot(s) "
        f"of axis {outer} in a ring of two planes, {len(rest)} in one plane */"
    ]
    for d in inner:
        lines.append(
            f"    const int64_t buf_e{d} = n{d} + 1"
            + (f" + sub_hi{d} - sub_lo{d};" if restricted else ";")
        )
    lines.append(
        "    const int64_t buf_plane = " + (" * ".join(f"buf_e{d}" for d in inner) or "1") + ";"
    )
    lines += [
        "    #pragma omp parallel",
        "    {",
        "        double * restrict buf = "
        f"(double *)malloc(sizeof(double) * {planes} * buf_plane);",
        "        if (buf == NULL)",
        "            abort();",
        "        /* the plane after the last one this thread updated: its lower faces are"
        " in the ring */",
        "        int64_t buf_next = -1;",
        "        #pragma omp for schedule(static)",
    ]
    start, bound = _loop_range(kernel, ((0, 0),) * kernel.dim, outer)
    lines.append(f"        for (int64_t i{outer} = {start}; i{outer} < {bound}; ++i{outer}) {{")
    pad = " " * 12
    for region, assignments, sub in kernel.regions:
        nest = _plane_nest(kernel, region, assignments, sub)
        if region[outer][1]:
            # the ring: the upper faces of this plane, and its lower ones
            # unless the previous iteration computed them
            lines += [
                f"{pad}for (int64_t buf_i = i{outer} == buf_next ? i{outer} + 1 : i{outer}; "
                f"buf_i <= i{outer} + 1; ++buf_i) {{",
                f"{pad}    const int64_t i{outer} = buf_i;",
                *(f"{pad}    {line}" for line in nest),
                f"{pad}}}",
                f"{pad}buf_next = i{outer} + 1;",
            ]
        else:
            lines += [pad + line for line in nest]
    lines += ["        }", "        free(buf);", "    }"]
    return lines


def _plane_nest(kernel: Kernel, region, assignments, sub) -> list[str]:
    """One region of a contracted kernel over the current plane of its outermost loop.

    The loops over the inner axes of :func:`_emit_c_loop_nest` for plane
    ``i<outer>``, with the statements of hoist levels 0 and 1 and the
    outermost axis' coordinate at its top.
    """
    outer, *inner = kernel.loop_order
    levels = kernel.hoist_levels
    printer = _BufferPrinter(kernel, region)
    restricted = kernel.subspace is not None
    coords = analytic_axes(sub + assignments)
    by_level: dict[int, list[Assignment]] = {}
    for a in sub:
        by_level.setdefault(levels.get(a.lhs, kernel.dim), []).append(a)
    out = [f"/* region {region} */", "{"]
    pad = "    "
    out += [pad + printer.statement(a) for a in by_level.get(0, [])]
    if outer in coords:
        out.append(pad + printer.coordinate(outer))
    out += [pad + printer.statement(a) for a in by_level.get(1, [])]
    for level, axis in enumerate(inner, start=2):
        start, bound = _loop_range(kernel, region, axis)
        # as in _emit_c_loop_nest: no lanes for a frontier slab's face axis
        face = restricted and kernel.subspace.intervals[axis].is_face
        if level == kernel.dim and not face:
            out.append(f"{pad}#pragma omp simd")
        out.append(f"{pad}for (int64_t i{axis} = {start}; i{axis} < {bound}; ++i{axis}) {{")
        pad += "    "
        if axis in coords:
            out.append(pad + printer.coordinate(axis))
        out += [pad + printer.statement(a) for a in by_level.get(level, [])]
    out += [pad + printer.statement(a) for a in assignments]
    for _ in inner:
        pad = pad[:-4]
        out.append(f"{pad}}}")
    out.append("}")
    return out


# ---------------------------------------------------------------------------
# compilation & execution


def c_compiler_available() -> bool:
    from shutil import which

    return which(os.environ.get("CC", "cc")) is not None


#: what decides the machine code of a loop nest.  -fno-math-errno is the one
#: math flag: no generated kernel reads errno, and without its branch
#: ``sqrt`` is one instruction with the same value, so the loop around it
#: can be vectorized.  It is not a fast-math flag.
CODEGEN_FLAGS = ("-O3", "-march=native", "-std=c99", "-fno-math-errno")

#: flag basis every shared-object build uses (the -fopenmp variant is
#: tried first, libm is linked last); folded into the cache key so a flag
#: change rebuilds
_BASE_FLAGS = (*CODEGEN_FLAGS, "-shared", "-fPIC")

#: what GCC alone is given on top of any flag list: no vectorized epilogue,
#: so a loop body is emitted twice (full-width vector loop, scalar
#: remainder) instead of three times (plus a half-width vector remainder):
#: gcc builds the P1 φ kernel in 1.0 s instead of 1.7 s (µ: 1.7 s either
#: way) on a 2-vCPU Xeon guest.  Not in the cache key's flag list: it
#: follows from the compiler identity and this file's bytes, which the
#: key holds
_GCC_FLAGS = ("--param=vect-epilogues-nomask=0",)


def _compiler_flags(flags: tuple[str, ...]) -> tuple[str, ...]:
    """*flags* as the configured compiler is given them (GCC: plus :data:`_GCC_FLAGS`)."""
    from ..profiling.diskcache import compiler_identity

    return (*flags, *_GCC_FLAGS) if compiler_identity()["gcc"] else tuple(flags)


def compile_attempts(
    tmp_path: Path, source: str, flags: tuple[str, ...] = _BASE_FLAGS
) -> None:
    """Compile *source* to *tmp_path*: ``-fopenmp`` first, serial fallback.

    The one place a compiler is run.  Each failed attempt unlinks whatever
    the compiler left at *tmp_path*, so the retry (and the caller) never
    sees a partial artifact.  libm is named behind the source: a linker
    that keeps only needed libraries drops one named before the object
    that needs it.
    """
    base = [os.environ.get("CC", "cc"), *_compiler_flags(flags)]
    last = None
    with tempfile.TemporaryDirectory() as td:
        c_path = Path(td) / "kernel.c"
        c_path.write_text(source)
        # -fopenmp-simd honours "#pragma omp simd" without linking libgomp,
        # so a host without OpenMP still gets the vector loop
        for omp in ("-fopenmp", "-fopenmp-simd"):
            try:
                subprocess.run(
                    [*base, omp, "-o", str(tmp_path), str(c_path), "-lm"],
                    check=True,
                    capture_output=True,
                )
                return
            except subprocess.CalledProcessError as err:
                tmp_path.unlink(missing_ok=True)
                last = err
    raise RuntimeError(
        f"C compilation failed:\n{last.stderr.decode(errors='replace')}"
    )


def _build_shared_object(
    source: str,
    func_name: str,
    key: str | None = None,
    extra_meta: dict | None = None,
    entry: str = "",
) -> Path:
    """Publish the compiled ``.so`` for *source* into the persistent cache.

    *key* defaults to a source-digest cache key; :func:`compile_c_kernel`
    passes the structural kernel-IR fingerprint instead so a disk hit can
    skip source generation entirely, and the kernel's packed *entry*, which
    is compiled behind *source* but not stored with it (a hit hands back
    the emitted source as it was).  Compilation happens under the
    entry's file lock into a unique temp name and is published with an
    atomic rename — concurrent or killed compiles can never leave a
    loadable partial artifact.
    """
    from ..profiling.diskcache import (
        KernelDiskCache,
        cache_key,
        codegen_revision,
        compiler_identity,
    )

    cache = KernelDiskCache()
    if key is None:
        digest = hashlib.sha256(source.encode()).hexdigest()
        key = cache_key(digest, flags=_BASE_FLAGS, backend="c")

    so_path, _hit = cache.get_or_build(
        key,
        partial(compile_attempts, source=source + entry),
        source=source,
        meta={
            "func_name": func_name,
            "flags": list(_BASE_FLAGS),
            "source_sha256": hashlib.sha256(source.encode()).hexdigest(),
            "compiler": compiler_identity(),
            "codegen_revision": codegen_revision(),
            **(extra_meta or {}),
        },
    )
    return so_path


#: the ctypes prototype of a packed entry, ``(const int64_t *, const double *)``:
#: every generated kernel's (:func:`packed_entry`) and the ghost fill's
_PACKED_ARGTYPES = (ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double))


def _packed_function(func):
    """*func*, a packed entry of a loaded library, typed to be called through ctypes."""
    func.restype = None
    func.argtypes = _PACKED_ARGTYPES
    return func


class _Bindings(dict):
    """Bindings of array sets, each served only while its arrays live unchanged.

    An entry holds its arrays by weak reference, with their shapes, and
    dies with any of them: compiled code lives in process-wide caches and
    outlives every solver, so a strong reference would pin a dead solver's
    fields, and no binding may outlive (or, through a recycled ``id``,
    alias) the memory it points into.  So the table needs no size limit.
    """

    def find(self, key: tuple, arrays):
        """The binding of *arrays* under *key*, or ``None`` if it is not live."""
        entry = self.get(key)
        if entry is None:
            return None
        refs, shapes, binding = entry
        for ref, shape, a in zip(refs, shapes, arrays):
            if ref() is not a or a.shape != shape:
                return None
        return binding

    def keep(self, key: tuple, arrays, binding):
        """Remember *binding* of *arrays* under *key*; returns it."""

        def drop(_ref, table=self):
            table.pop(key, None)

        self[key] = (
            tuple(weakref.ref(a, drop) for a in arrays), tuple(a.shape for a in arrays), binding,
        )
        return binding


class CompiledCKernel:
    """A compiled, callable C kernel with the NumPy-backend calling convention.

    The native loop nest trusts the extents it is passed and computes its
    own addresses, so before an address reaches C the call is checked
    against :meth:`Kernel.check_arrays <repro.ir.kernel.Kernel.check_arrays>`
    — the check of every backend — and then, the one check that is this
    backend's own, every array's byte strides against the layout rule.  The
    stride comparison is what keeps an array of the right shape in another
    layout — ``np.zeros(shape)``, a plain ``copy()``, a Fortran-ordered or
    sliced array — from being read in bounds as garbage; it names the field
    and points at ``create_arrays``.  That validation runs
    once per *array set*: the first call on a set — the arrays of the
    kernel's fields as objects, together with ``ghost_layers``,
    ``block_offset`` and ``origin`` — marshals them into the two argument
    blocks of the kernel's packed entry (:func:`packed_entry`), the
    *binding*; a later call that finds the same set writes the scalars of
    the call (spacing, parameters, ``time_step``, ``seed``, a reduction's
    output) into those blocks, validates nothing and makes one foreign call
    with two arguments.  The plain entry, with the prototype of
    :func:`generate_c_source`, stays in the library (:attr:`_lib`) uncalled.

    A binding is served only while every array of the set is the same live
    object with the shape it was bound with; anything else — another array
    under the same name (a swap is simply a second set), a reshaped or
    resized array, a different ghost width or offset — takes the full
    validation again.  Arrays are held by weak reference and a binding is
    dropped when one of them dies (:class:`_Bindings`): compiled kernels
    live in the process-wide :func:`repro.profiling.compile_cached` table.
    The calling thread is part of a set, so threads that share one compiled
    kernel — simulated ranks — each bind their own blocks and never write
    another thread's call state (the native call drops the GIL).
    """

    def __init__(self, kernel: Kernel, source: str, lib):
        self.kernel = kernel
        self.source = source
        self._fields = tuple(kernel.fields)
        signature = kernel.signature
        self._lib = lib
        #: the packed entry's two blocks, each in signature order
        ints = [a for a in signature if _is_int_slot(a)]
        doubles = [a for a in signature if not _is_int_slot(a)]
        self._Ints = ctypes.c_int64 * len(ints)
        self._Doubles = ctypes.c_double * len(doubles)
        self._packed = _packed_function(getattr(lib, f"{kernel.c_name}_packed"))
        self._entry = ctypes.cast(self._packed, ctypes.c_void_p).value
        #: what a binding marshals, by role; the rest are the scalars of a call
        self._bound = tuple(a for a in signature if a.role in ARRAY_SET_ROLES)
        self._required = kernel.required_parameters
        # the doubles of a call — their slot, name and the value passed when
        # the caller names none.  Only a spacing may go unnamed: folded at
        # compile time it is a literal in the source, and unless a
        # coordinate needs it (then it is required, like every parameter)
        # nothing reads the argument.
        self._doubles = tuple(
            (slot, a.key, 1.0 if a.role == "spacing" else None)
            for slot, a in enumerate(doubles)
            if a.role in ("spacing", "parameter")
        )
        #: time_step, then seed, then a reduction's output: the last integers
        self._step_slot = [a.role for a in ints].index("time_step")
        #: where the parameter ``t`` goes among the doubles (-1: none)
        self._t_slot = next((slot for slot, key, _ in self._doubles if key == "t"), -1)
        #: (ghost_layers, block_offset, origin, thread, *id(array)) -> (ints, doubles)
        self._bindings = _Bindings()

    @property
    def name(self) -> str:
        return self.kernel.name

    def _bind(self, key: tuple, arrays) -> tuple:
        """Validate the array set of *arrays* under *key*, marshal and remember it.

        Returns the binding's two argument blocks.
        """
        k = self.kernel
        dim = k.dim
        gl, block_offset, origin = key[:3]
        gl = int(gl)
        # the native loop nest trusts the extents it is passed: a mis-shaped
        # array would be read and written out of bounds
        spatial = k.check_arrays(arrays, gl, block_offset, origin)
        held = [arrays[f.name] for f in self._fields]
        for f, a in zip(self._fields, held):
            # ... and it computes addresses by the layout rule.  An array of
            # the right shape in another layout (C order of the logical
            # shape, Fortran order, a view) has the same number of bytes:
            # the kernel would stay in bounds and compute garbage.  The
            # stride of an axis of extent 1 addresses nothing and is not
            # compared
            expected = tuple(8 * s for s in f.strides(spatial))
            if any(n > 1 and s != e for n, s, e in zip(a.shape, a.strides, expected)):
                raise ValueError(
                    f"array {f.name} has byte strides {a.strides}, the kernel "
                    f"addresses it with {expected} (one contiguous block per "
                    f"component): allocate it with create_arrays"
                )
        interior = tuple(n - 2 * gl for n in spatial)
        sub = k.subspace.offsets(interior) if k.subspace is not None else ()
        # per role, the values its arguments select from by key
        values = {
            "field": {f.name: a.ctypes.data for f, a in zip(self._fields, held)},
            "extent": interior,
            "ghost_layers": {None: gl},
            "sub_lo": [lo for lo, _ in sub],
            "sub_hi": [hi for _, hi in sub],
            "block_offset": [int(o) for o in block_offset[:dim]],
            "origin": [float(o) for o in origin[:dim]],
        }
        # the array-set arguments lead both blocks
        ints = self._Ints(*(values[a.role][a.key] for a in self._bound if _is_int_slot(a)))
        doubles = self._Doubles(
            *(values[a.role][a.key] for a in self._bound if not _is_int_slot(a))
        )
        return self._bindings.keep(key, held, (ints, doubles))

    def __call__(
        self,
        arrays: dict[str, np.ndarray],
        block_offset=(0, 0, 0),
        origin=(0.0, 0.0, 0.0),
        ghost_layers: int | None = None,
        tile_shape: tuple[int, ...] | None = None,
        **params,
    ):
        if tile_shape is not None:
            # OpenMP reduction order is fixed by the thread count, not by a
            # tile decomposition; bit-reproducible sums are the NumPy
            # backend's job (see DESIGN.md, "fixed-order reduction")
            raise ValueError(
                "tile_shape is not supported by the C backend; use the "
                "numpy backend for partition-invariant reductions"
            )
        ints, doubles = self._blocks(arrays, block_offset, origin, ghost_layers, params)
        k = self.kernel
        out = None
        if k.reductions:
            # a fresh output per call: the returned sums are read from it
            out = np.zeros(len(k.reductions))
            ints[self._step_slot + 2] = out.__array_interface__["data"][0]
        self._packed(ints, doubles)
        if out is None:
            return None
        return {name: float(v) for name, v in zip(k.reductions, out)}

    def _blocks(self, arrays, block_offset, origin, ghost_layers, params) -> tuple:
        """The packed entry's two blocks for a call, its scalars written."""
        k = self.kernel
        gl = k.ghost_layers if ghost_layers is None else ghost_layers
        # a missing array reads None, which no binding holds: _bind names it
        held = [arrays.get(f.name) for f in self._fields]
        key = (gl, tuple(block_offset), tuple(origin), threading.get_ident(), *map(id, held))
        ints, doubles = self._bindings.find(key, held) or self._bind(key, arrays)
        for name in self._required:
            if name not in params:
                k.check_parameters(params)  # raises, naming every missing one
        for slot, name, default in self._doubles:
            doubles[slot] = params.get(name, default)
        step = self._step_slot
        ints[step] = int(params.get("time_step", 0))
        ints[step + 1] = int(params.get("seed", 0))
        return ints, doubles

    def lower(
        self, arrays, block_offset=(0, 0, 0), origin=(0.0, 0.0, 0.0),
        ghost_layers=None, **params,
    ) -> tuple:
        """A call on *arrays* as one op of ``repro_run`` (:func:`pack_ops`).

        ``(entry, ints, doubles, time_step slot, t slot)``: the packed
        entry's address and a copy of the set's binding, checked and with
        the call's scalars written as :meth:`__call__` writes them.  The
        runner writes ``time_step`` and ``t`` (slot -1: no parameter
        ``t``) before every call.  A copy, so a later direct call on the
        set (another ``seed``) cannot change the op; its addresses stay
        valid while the arrays live.  A reduction's op writes its sums
        into the tail of its own doubles block, behind every argument,
        where nothing reads them.
        """
        ints, doubles = self._blocks(arrays, block_offset, origin, ghost_layers, params)
        ints = self._Ints.from_buffer_copy(ints)
        doubles = (ctypes.c_double * (len(doubles) + len(self.kernel.reductions)))(*doubles)
        if self.kernel.reductions:
            ints[self._step_slot + 2] = ctypes.addressof(doubles) + ctypes.sizeof(self._Doubles)
        return self._entry, ints, doubles, self._step_slot, self._t_slot


def compile_c_kernel(kernel: Kernel) -> CompiledCKernel:
    """Generate, compile (with on-disk caching) and wrap a C kernel."""
    from ..observability.log import get_logger, kv
    from ..observability.recorder import get_recorder

    from ..profiling.cache import kernel_fingerprint
    from ..profiling.diskcache import KernelDiskCache, cache_key

    func_name = kernel.c_name
    with get_recorder().span(f"codegen:c:{kernel.name}", category="backend") as span:
        fingerprint = kernel_fingerprint(kernel)
        key = cache_key(fingerprint, flags=_BASE_FLAGS, backend="c")
        cache = KernelDiskCache()
        hit = cache.lookup(key) is not None
        # warm start: the key pins fingerprint + codegen revision + compiler
        # identity, so the stored source is exactly what we would
        # regenerate — skip sympy→C emission entirely
        source = cache.load_source(key) if hit else None
        if source is None:
            source = generate_c_source(kernel)
        so_path = _build_shared_object(
            source,
            func_name,
            key=key,
            extra_meta={"kernel": kernel.name, "fingerprint": fingerprint},
            entry=packed_entry(kernel),
        )
        lib = ctypes.CDLL(str(so_path))
        span["disk_cache"] = "hit" if hit else "miss"
        get_logger("backends.c").info(
            kv(
                "c_kernel_ready",
                kernel=kernel.name,
                so=so_path.name,
                disk_cache="hit" if hit else "miss",
            )
        )
        return CompiledCKernel(kernel, source, lib)


# ---------------------------------------------------------------------------
# the op-list runner and the ghost fill: one translation unit

_RUN_C = r"""/* the op-list runner of repro.timeloop: n time steps of a lowered schedule */
#define _POSIX_C_SOURCE 199309L
#include <stdint.h>
#include <time.h>

typedef void (*repro_entry)(const int64_t *, const double *);

/* ops = two halves of nops records {entry, int64 block, double block,
   time_step slot, t slot} (slot -1: the op reads none), one half per
   parity of the array set: the swaps of a step are disjoint pairs, so step
   s of the batch runs half (parity + s) & 1.  Before each call the op's
   blocks get time_step and t, the breadcrumb (time_step, op index); after
   it, clock[op] gets the call's CLOCK_MONOTONIC seconds.  t advances by
   repeated += dt, as the Python loop's does. */
void repro_run(int64_t n, const int64_t *ops, int64_t nops, int64_t parity,
               int64_t *time_step, double *t, double dt,
               double *clock, volatile int64_t *crumb)
{
    int64_t step = *time_step;
    double now = *t;
    for (int64_t s = 0; s < n; ++s) {
        const int64_t *op = ops + 5 * nops * ((parity + s) & 1);
        for (int64_t i = 0; i < nops; ++i, op += 5) {
            int64_t *ia = (int64_t *)(intptr_t)op[1];
            double *da = (double *)(intptr_t)op[2];
            if (op[3] >= 0)
                ia[op[3]] = step;
            if (op[4] >= 0)
                da[op[4]] = now;
            crumb[0] = step;
            crumb[1] = i;
            struct timespec a, b;
            clock_gettime(CLOCK_MONOTONIC, &a);
            ((repro_entry)(intptr_t)op[0])(ia, da);
            clock_gettime(CLOCK_MONOTONIC, &b);
            clock[i] += (double)(b.tv_sec - a.tv_sec) + 1e-9 * (double)(b.tv_nsec - a.tv_nsec);
        }
        ++step;
        now += dt;
    }
    *time_step = step;
    *t = now;
}

"""

def pack_ops(halves) -> ctypes.Array:
    """``repro_run``'s op list: per parity of the array set, its op records.

    A record is ``(entry, ints, doubles, time_step slot, t slot)`` — a
    kernel's (:meth:`CompiledCKernel.lower`) or a fill's; the list holds
    the addresses of the blocks, so the caller keeps the records alive
    while it runs the list.
    """
    return (ctypes.c_int64 * (5 * sum(map(len, halves))))(*(
        v
        for records in halves
        for entry, ints, doubles, step, t in records
        for v in (entry, ctypes.addressof(ints), ctypes.addressof(doubles), step, t)
    ))


#: most loops one copy of the native fill nests (the array's axes but one);
#: :data:`_FILL_C` sizes its loop counters by it
_FILL_LOOPS = 8

_FILL_C = r"""/* native ghost fill: the slice plan of repro.parallel.boundary */
#include <stdint.h>

#define FILL_LOOPS %d

/* ops = {array address, copies, loops, then per copy: ghost offset, source
   offset, value offset (-1: a plain copy), then `loops` x (extent, stride,
   value stride), outermost first}; offsets and strides count doubles.
   Copies run in plan order, which later copies depend on (edge and corner
   ghosts).  A Dirichlet copy stores 2 * value - source.  Serial: it opens
   no OpenMP region. */
void repro_fill_ghosts(const int64_t *ops, const double *values)
{
    double *a = (double *)(intptr_t)ops[0];
    const int64_t copies = ops[1], loops = ops[2];
    const int64_t *op = ops + 3;
    for (int64_t c = 0; c < copies; ++c, op += 3 + 3 * loops) {
        const int64_t *loop = op + 3;
        const int64_t *inner = loop + 3 * (loops - 1);
        const int64_t n = inner[0], s = inner[1], vs = inner[2];
        int64_t index[FILL_LOOPS] = {0};
        int64_t at = 0, vat = op[2];
        for (;;) {
            double *g = a + op[0] + at;
            const double *src = a + op[1] + at;
            if (op[2] < 0) {
                for (int64_t i = 0; i < n; ++i)
                    g[i * s] = src[i * s];
            } else {
                const double *v = values + vat;
                for (int64_t i = 0; i < n; ++i)
                    g[i * s] = 2.0 * v[i * vs] - src[i * s];
            }
            /* the next row: an odometer over the outer loops */
            int64_t k = loops - 2;
            for (; k >= 0; --k) {
                const int64_t *l = loop + 3 * k;
                at += l[1];
                vat += l[2];
                if (++index[k] < l[0])
                    break;
                at -= l[0] * l[1];
                vat -= l[0] * l[2];
                index[k] = 0;
            }
            if (k < 0)
                break;
        }
    }
}
""" % _FILL_LOOPS

def _dirichlet_values(value, index_shape: tuple) -> np.ndarray | None:
    """*value* as one double per component, or ``None`` where C cannot match NumPy.

    NumPy computes ``2.0 * np.asarray(value)`` in the value's own dtype
    (float32 stays float32), so only values it promotes to float64 —
    float64 and integer ones — are the same bits in C; and only a scalar
    or a per-component vector has one value per component.
    """
    v = np.asarray(value)
    if v.dtype != np.float64 and v.dtype.kind not in "biu":
        return None
    try:
        return np.broadcast_to(v, index_shape).astype(np.float64).ravel()
    except ValueError:
        return None


def _overlaps_itself(shape: tuple, strides: tuple) -> bool:
    """Whether two index tuples of a strided array can address one element."""
    step = 1
    for n, s in sorted(zip(shape, map(abs, strides)), key=lambda e: e[1]):
        if n > 1 and s < step:
            return True
        step = max(step, s * n)
    return False


class CompiledCFill:
    """The ghost fill as one native call per array, bound once per array.

    The first fill of an array lowers the slice plan
    (:func:`repro.parallel.boundary._fill_plan`) of its shape to the copy
    list :data:`_FILL_C` walks — per plan entry and ghost layer, the
    offsets of the ghost and source layers and the loops over the other
    axes (any strides; innermost the one of smallest stride) — and keeps
    it, behind the array's address, as the array's *binding* under
    ``(id(array), ghost_layers, dim, modes)``.  A later fill of the same
    live array with the shape it was bound with is one foreign call on two
    pre-filled blocks, through the packed-entry prototype of every kernel;
    a Dirichlet value is read again on every fill, as the NumPy fill reads
    it.  A binding dies with its array, like a kernel's (:class:`_Bindings`).

    An array the routine cannot address like NumPy — not ``float64``,
    read-only, misaligned, overlapping itself, too many axes, or a
    Dirichlet value that is neither a scalar nor one value per component
    of a float64 or integer dtype — is declined: :meth:`__call__` returns
    ``False`` and the caller fills it with NumPy.

    The library also holds the op-list runner, ``repro_run``: :attr:`run`,
    and :attr:`address` is the fill's entry as one op of it.
    """

    def __init__(self, func, run):
        self._func = _packed_function(func)
        self.address = ctypes.cast(func, ctypes.c_void_p).value
        i64, f64 = _PACKED_ARGTYPES
        run.restype = None
        run.argtypes = (
            ctypes.c_int64, i64, ctypes.c_int64, ctypes.c_int64,
            i64, f64, ctypes.c_double, f64, i64,
        )
        self.run = run
        #: (id(array), ghost_layers, dim, modes) -> (ops, values, dirichlet)
        self._bindings = _Bindings()

    def __call__(self, arr: np.ndarray, gl: int, dim: int, modes: tuple) -> bool:
        """Fill the ghost frame of *arr*; ``False`` if it is NumPy's to fill."""
        blocks = self.prepare(arr, gl, dim, modes)
        if blocks is None:
            return False
        self._func(*blocks)
        return True

    def prepare(self, arr: np.ndarray, gl: int, dim: int, modes: tuple) -> tuple | None:
        """``(ops, values)`` of the fill of *arr*, values written; ``None`` declines.

        The binding's own blocks: the same objects on every call while the
        array lives with its shape, so an op of ``repro_run`` can point at
        them.
        """
        key = (id(arr), gl, dim, modes)
        ops, values, dirichlet = self._bindings.find(key, (arr,)) or self._bind(key, arr)
        if ops is None:
            return None
        for offset, mode in dirichlet:
            v = _dirichlet_values(mode.value, arr.shape[dim:])
            if v is None:
                return None
            values[offset:offset + v.size] = v.tolist()
        return ops, values

    def _bind(self, key: tuple, arr: np.ndarray) -> tuple:
        from ..parallel.boundary import _fill_plan

        _, gl, dim, modes = key
        plan = _fill_plan(arr.shape, gl, dim, modes)  # raises for a too-short axis
        return self._bindings.keep(key, (arr,), self._lower(arr, plan, dim))

    def _lower(self, arr: np.ndarray, plan: tuple, dim: int) -> tuple:
        """``(ops, values, dirichlet)`` of *plan* on *arr*; *ops* ``None`` declines.

        *ops* and *values* are the routine's two blocks; *dirichlet* lists
        the ``(slot, DirichletValue)`` whose value a fill writes into *values*.
        """
        declined = (None, None, ())
        if (
            arr.dtype != np.float64
            or not arr.dtype.isnative
            or not arr.flags.writeable
            or arr.ndim > _FILL_LOOPS + 1
            or arr.ctypes.data % 8
            or any(s % 8 for s in arr.strides)
            or _overlaps_itself(arr.shape, arr.strides)
        ):
            return declined
        index_shape = arr.shape[dim:]
        components = int(np.prod(index_shape))
        strides = [s // 8 for s in arr.strides]
        # a component axis steps through a per-component value vector
        value_strides = [0] * dim + [
            int(np.prod(index_shape[k + 1:])) for k in range(len(index_shape))
        ]
        slots: dict[int, int] = {}  # id(DirichletValue) -> its slot in values
        dirichlet = []
        copies = []
        for ghost, source, mode in plan:
            if mode is not None and id(mode) not in slots:
                if _dirichlet_values(mode.value, index_shape) is None:
                    return declined
                slots[id(mode)] = components * len(slots)
                dirichlet.append((slots[id(mode)], mode))
            axis = len(ghost) - 1
            others = sorted(
                (d for d in range(arr.ndim) if d != axis), key=lambda d: -abs(strides[d])
            )
            loops = [v for d in others for v in (arr.shape[d], strides[d], value_strides[d])]
            n = arr.shape[axis]
            for g, s in zip(range(*ghost[axis].indices(n)), range(*source[axis].indices(n))):
                copies += [
                    g * strides[axis], s * strides[axis],
                    -1 if mode is None else slots[id(mode)], *(loops or (1, 0, 0)),
                ]
        n_copies = len(copies) // (3 + 3 * max(arr.ndim - 1, 1))
        if arr.size == 0:
            n_copies = 0  # an empty axis: there is nothing to copy
        ops = (ctypes.c_int64 * (3 + len(copies)))(
            arr.ctypes.data, n_copies, max(arr.ndim - 1, 1), *copies
        )
        values = (ctypes.c_double * max(components * len(slots), 1))()
        return ops, values, tuple(dirichlet)


@cache
def compile_c_fill() -> CompiledCFill:
    """The native ghost fill and op-list runner, built through the disk cache once per process."""
    from ..observability.recorder import get_recorder

    with get_recorder().span("compile:fill_ghosts", category="backend"):
        so_path = _build_shared_object(
            _RUN_C + _FILL_C, "repro_fill_ghosts", extra_meta={"kernel": "fill_ghosts"}
        )
        lib = ctypes.CDLL(str(so_path))
        return CompiledCFill(lib.repro_fill_ghosts, lib.repro_run)
