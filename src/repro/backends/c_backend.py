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
weakly.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import weakref
from functools import reduce
from pathlib import Path

import numpy as np
import sympy as sp
from sympy.printing.c import C99CodePrinter

from ..ir.kernel import Kernel
from ..ir.loops import classify_hoist_levels
from ..observability.hwcounters import (
    attribute_dispatch,
    attribution_open,
    get_counter_harness,
)
from ..symbolic.assignment import Assignment
from ..symbolic.coordinates import CoordinateSymbol
from ..symbolic.field import FieldAccess
from ..symbolic.ordering import CanonicalTermOrder, SmallPowersAsProducts
from ..symbolic.random import RandomValue

__all__ = ["generate_c_source", "compile_c_kernel", "CompiledCKernel", "c_compiler_available"]

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


class _CPrinter(CanonicalTermOrder, SmallPowersAsProducts, C99CodePrinter):
    """C expression printer aware of field accesses and fast-math nodes."""

    def __init__(self, rng_str):
        super().__init__()
        self._rng_str = rng_str

    def _print_Symbol(self, expr):
        if isinstance(expr, FieldAccess):
            return _access_str(expr)
        return super()._print_Symbol(expr)

    def _print_Float(self, expr):
        # shortest round-trip decimal; C strtod parses to the nearest double,
        # so this is bit-identical to the Python value
        return repr(float(expr))

    def _print_RandomValue(self, expr):
        return self._rng_str(expr)

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


def _declare_strides(fields, dim: int) -> list[str]:
    """Declarations of the ghosted extents ``m<d>`` and every field's strides.

    ``s_<field>_<k>`` is the stride, in doubles, of logical axis *k* (the
    spatial axes, then the index axes): the products
    :meth:`~repro.symbolic.field.Field.strides` forms over the ghosted
    extents — the one layout rule, printed.  The innermost spatial stride is
    the literal 1.  Shared by the C and the CUDA emitter.
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


def _c_func_name(kernel_name: str) -> str:
    """Valid C identifier for a kernel (restricted names contain ':')."""
    import re

    return "kernel_" + re.sub(r"[^0-9A-Za-z_]", "_", kernel_name)


def generate_c_source(kernel: Kernel, func_name: str | None = None) -> str:
    """Emit the complete C99 translation unit for *kernel*."""
    ac = kernel.ac
    dim = kernel.dim
    func_name = func_name or _c_func_name(kernel.name)
    fields = kernel.fields
    params = kernel.parameters

    lines: list[str] = [f"/* generated C kernel: {kernel.name} */", _PHILOX_C, ""]

    args = []
    for f in fields:
        args.append(f"double * restrict f_{f.name}")
    args += [f"const int64_t n{d}" for d in range(dim)]
    args.append("const int64_t gl")
    if kernel.subspace is not None:
        # subspace range offsets: loop runs [sub_lo, n + sub_hi) per axis
        args += [f"const int64_t sub_lo{d}" for d in range(dim)]
        args += [f"const int64_t sub_hi{d}" for d in range(dim)]
    args += [f"const int64_t off{d}" for d in range(dim)]
    args += [f"const double origin{d}" for d in range(dim)]
    args += [f"const double h{d}" for d in range(dim)]
    for p in params:
        if p.name in ("time_step", "seed"):
            continue
        args.append(f"const double p_{p.name}")
    args.append("const int64_t time_step")
    args.append("const int64_t seed")
    if kernel.is_reduction:
        args.append("double * restrict reduce_out")

    lines.append(f"void {func_name}(")
    lines.append("    " + ",\n    ".join(args) + ")")
    lines.append("{")

    lines.extend(_declare_strides(fields, dim))
    lines.append("")

    # spacing values folded at compile time or passed as h<d>
    h_expr = {}
    for d in range(dim):
        folded = kernel.folded_value(f"dx_{d}")
        h_expr[d] = repr(float(folded)) if folded is not None else f"h{d}"

    # group main assignments by write region (flux kernels)
    from .numpy_backend import _region_of

    groups: dict[tuple, list[Assignment]] = {}
    for a in ac.main_assignments:
        groups.setdefault(_region_of(a, dim), []).append(a)

    for region, assignments in sorted(groups.items()):
        lines.extend(
            _emit_c_loop_nest(kernel, region, assignments, h_expr, dim)
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit_c_loop_nest(kernel, region, assignments, h_expr, dim) -> list[str]:
    ac = kernel.ac
    from .numpy_backend import _needed_subexpressions

    sub = _needed_subexpressions(ac, assignments)
    loop_order = kernel.loop_order
    levels = classify_hoist_levels(ac, loop_order)

    def rng_str(r: RandomValue) -> str:
        lo = [region[d][0] for d in range(dim)]
        g = [f"i{d} + off{d} - {lo[d]}" for d in range(dim)]
        while len(g) < 3:
            g.append("0")
        printer0 = _CPrinter(lambda r_: "0")
        low = printer0.doprint(r.low)
        high = printer0.doprint(r.high)
        return (
            f"_philox_uniform({g[0]}, {g[1]}, {g[2]}, {r.stream // 2}u, "
            f"(uint32_t)(time_step & 0xFFFFFFFF), (uint32_t)(seed & 0xFFFFFFFF), "
            f"{r.stream % 2}, {low}, {high})"
        )

    printer = _CPrinter(rng_str)

    def pr(e: sp.Expr) -> str:
        return printer.doprint(e)

    # rename params: plain symbols that are parameters get the p_ prefix
    param_names = {p.name for p in kernel.parameters} - {"time_step", "seed"}
    rename = {
        sp.Symbol(n, real=True): sp.Symbol(f"p_{n}", real=True) for n in param_names
    }

    def fix(e: sp.Expr) -> sp.Expr:
        mapping = {
            s: rename[sp.Symbol(s.name, real=True)]
            for s in e.free_symbols
            if not isinstance(s, (FieldAccess, CoordinateSymbol))
            and sp.Symbol(s.name, real=True) in rename
        }
        return e.xreplace(mapping) if mapping else e

    # organize subexpressions by hoist level (position in loop order)
    by_level: dict[int, list[Assignment]] = {}
    for a in sub:
        by_level.setdefault(levels.get(a.lhs, dim), []).append(a)

    out: list[str] = [f"    /* region {region} */", "    {"]
    indent = "    "

    def emit_coord_defs(level: int, pad: str):
        # coordinate of the axis looped at this level-1
        axis = loop_order[level - 1]
        lo = region[axis][0]
        out.append(
            f"{pad}const double x_{axis} = origin{axis} + "
            f"(double)(i{axis} + off{axis} - {lo}) * {h_expr[axis]} + 0.5 * {h_expr[axis]};"
        )

    # level 0 subexpressions (pure parameter math)
    for a in by_level.get(0, []):
        out.append(f"{indent}    const double {a.lhs.name} = {pr(fix(a.rhs))};")

    pad = indent + "    "
    coords_needed = {
        c.axis
        for a in sub + assignments
        for c in a.rhs.atoms(CoordinateSymbol)
    }
    # reduction kernels accumulate into per-output scalars instead of storing
    reductions = kernel.reductions if kernel.is_reduction else ()
    acc_names = {}
    if reductions:
        for i, a in enumerate(assignments):
            acc_names[a.lhs.name] = f"__acc_{i}"
            out.append(f"{indent}    double __acc_{i} = 0.0;")

    restricted = kernel.subspace is not None
    for level, axis in enumerate(loop_order, start=1):
        lo, hi = region[axis]
        bound = f"n{axis} + {lo + hi}" if (lo or hi) else f"n{axis}"
        start = f"sub_lo{axis}" if restricted else "0"
        if restricted:
            bound = f"{bound} + sub_hi{axis}"
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
            emit_coord_defs(level, pad)
        for a in by_level.get(level, []):
            out.append(f"{pad}const double {a.lhs.name} = {pr(fix(a.rhs))};")

    for a in assignments:
        if acc_names:
            out.append(f"{pad}{acc_names[a.lhs.name]} += {pr(fix(a.rhs))};")
        else:
            out.append(f"{pad}{_access_str(a.lhs)} = {pr(fix(a.rhs))};")

    for _ in range(dim):
        pad = pad[:-4]
        out.append(f"{pad}}}")
    if reductions:
        for i, a in enumerate(assignments):
            out.append(f"{pad}reduce_out[{i}] = __acc_{i};")
    out.append("    }")
    return out


# ---------------------------------------------------------------------------
# compilation & execution


def c_compiler_available() -> bool:
    from shutil import which

    return which(os.environ.get("CC", "cc")) is not None


#: what decides the machine code of a loop nest (the benchmark-mode harness
#: builds its executables with the same set).  -fno-math-errno is the one
#: math flag: no generated kernel reads errno, and without its branch
#: ``sqrt`` is one instruction with the same value, so the loop around it
#: can be vectorized.  It is not a fast-math flag.
_CODEGEN_FLAGS = ("-O3", "-march=native", "-std=c99", "-fno-math-errno")

#: flag basis every shared-object build uses (the -fopenmp variant is
#: tried first); folded into the cache key so a flag change rebuilds
_BASE_FLAGS = (*_CODEGEN_FLAGS, "-shared", "-fPIC", "-lm")


def _compile_attempts(tmp_path: Path, c_path: Path) -> None:
    """Compile *c_path* to *tmp_path*: ``-fopenmp`` first, serial fallback.

    Each failed attempt unlinks whatever the compiler left at *tmp_path*,
    so the retry (and the caller) never sees a partial artifact.
    """
    cc = os.environ.get("CC", "cc")
    base = [cc, *_BASE_FLAGS]
    last = None
    # -fopenmp-simd honours "#pragma omp simd" without linking libgomp, so a
    # host without OpenMP still gets the vector loop
    for flags in ([*base, "-fopenmp"], [*base, "-fopenmp-simd"]):
        try:
            subprocess.run(
                [*flags, "-o", str(tmp_path), str(c_path)],
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
) -> Path:
    """Publish the compiled ``.so`` for *source* into the persistent cache.

    *key* defaults to a source-digest cache key; :func:`compile_c_kernel`
    passes the structural kernel-IR fingerprint instead so a disk hit can
    skip source generation entirely.  Compilation happens under the
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

    def build(tmp_path: Path) -> None:
        import tempfile

        with tempfile.TemporaryDirectory() as td:
            c_path = Path(td) / f"{func_name}.c"
            c_path.write_text(source)
            _compile_attempts(tmp_path, c_path)

    so_path, _hit = cache.get_or_build(
        key,
        build,
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


_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p

#: the binding of an array set never seen: nothing to check, nothing to pass
_UNBOUND = ((), (), None)


class CompiledCKernel:
    """A compiled, callable C kernel with the NumPy-backend calling convention.

    The native loop nest trusts the extents it is passed and computes its
    own addresses, so every array is validated (shape against the first
    field's spatial extent and the field's index shape, ``float64``, byte
    strides equal to the layout rule's, a ghost width the stencil fits in)
    before its address reaches C.  The stride comparison is what keeps an
    array of the right shape in another layout — ``np.zeros(shape)``, a
    plain ``copy()``, a Fortran-ordered or sliced array — from being read in
    bounds as garbage; it names the field and points at ``create_arrays``.
    That validation runs
    once per *array set*: the first call on a set — the arrays of the
    kernel's fields as objects, together with ``ghost_layers``,
    ``block_offset`` and ``origin`` — marshals them into an immutable
    argument prefix, the *binding*; a later call that finds the same set
    passes that prefix plus the scalars of the call (spacing, parameters,
    ``time_step``, ``seed``) and validates nothing.

    A binding is served only while every array of the set is the same live
    object with the shape it was bound with; anything else — another array
    under the same name (a swap is simply a second set), a reshaped or
    resized array, a different ghost width or offset — takes the full
    validation again.  Arrays are held by weak reference and a binding is
    dropped when one of them dies: compiled kernels live in the
    process-wide :func:`repro.profiling.compile_cached` table and outlive
    every solver, so a strong reference would pin a dead solver's fields,
    and the table needs no size limit.  Bindings are never written after
    they are built (the output of a reduction is allocated per call), so
    threads that share one compiled kernel — simulated ranks — do not
    share call state.
    """

    def __init__(self, kernel: Kernel, source: str, func):
        self.kernel = kernel
        self.source = source
        self._func = func
        dim = kernel.dim
        self._fields = tuple(kernel.fields)
        self._min_gl = max(kernel.ghost_layers, int(kernel.has_staggered_writes))
        self._required = tuple(
            p.name for p in kernel.parameters if p.name not in ("time_step", "seed")
        )
        # the doubles of a call, in signature order behind the bound prefix,
        # each with the value passed when the caller names none.  A spacing
        # folded at compile time is a literal in the source; its argument
        # is not read.
        spacing = [kernel.folded_value(f"dx_{d}") for d in range(dim)]
        self._doubles = (
            *((f"dx_{d}", 1.0 if h is None else float(h)) for d, h in enumerate(spacing)),
            *((name, None) for name in self._required),
        )
        n_extents = (3 if kernel.subspace is not None else 1) * dim + 1  # n, gl, [sub]
        func.restype = None
        func.argtypes = (
            [_PTR] * len(self._fields)
            + [_I64] * (n_extents + dim)                # ..., block offset
            + [_F64] * (2 * dim + len(self._required))  # origin, spacing, parameters
            + [_I64, _I64]                              # time_step, seed
            + [_PTR] * kernel.is_reduction
        )
        #: (ghost_layers, block_offset, origin, *id(array)) -> (weakrefs, shapes, prefix)
        self._bindings: dict[tuple, tuple] = {}

    @property
    def name(self) -> str:
        return self.kernel.name

    def _bind(self, key: tuple, held: list) -> tuple:
        """Validate the array set *held* under *key*, marshal and remember it.

        Returns the argument prefix; it is never written again.
        """
        k = self.kernel
        dim = k.dim
        gl, block_offset, origin = key[:3]
        gl = int(gl)
        if gl < self._min_gl:
            raise ValueError(
                f"kernel {k.name} needs at least {self._min_gl} ghost layers, got {gl}"
            )
        spatial = held[0].shape[:dim]
        for f, a in zip(self._fields, held):
            name = f.name
            # the native loop nest trusts these extents: a mis-shaped array
            # would be read and written out of bounds
            if len(spatial) != dim or a.shape != spatial + f.index_shape:
                raise ValueError(
                    f"array {name} has shape {a.shape}, expected "
                    f"{spatial + f.index_shape} ({dim} spatial axes)"
                )
            if a.dtype != np.float64:
                raise ValueError(f"array {name} must be float64")
            # ... and these strides.  An array of the right shape in another
            # layout (C order of the logical shape, Fortran order, a view) has
            # the same number of bytes: the kernel would stay in bounds and
            # compute garbage.  The stride of an axis of extent 1 addresses
            # nothing and is not compared
            expected = tuple(8 * s for s in f.strides(spatial))
            if any(n > 1 and s != e for n, s, e in zip(a.shape, a.strides, expected)):
                raise ValueError(
                    f"array {name} has byte strides {a.strides}, the kernel "
                    f"addresses it with {expected} (one contiguous block per "
                    f"component): allocate it with create_arrays"
                )
            if any(n < 2 * gl + 1 for n in spatial):
                raise ValueError(f"array {name} too small for {gl} ghost layers")
        interior = tuple(n - 2 * gl for n in spatial)
        extents = [*interior, gl]
        if k.subspace is not None:
            sub = k.subspace.offsets(interior)
            extents += [lo for lo, _ in sub] + [hi for _, hi in sub]
        prefix = (
            *(_PTR(a.ctypes.data) for a in held),
            *map(_I64, extents),
            *(_I64(int(block_offset[d])) for d in range(dim)),
            *(_F64(float(origin[d])) for d in range(dim)),
        )

        def drop(_ref, table=self._bindings):
            # an array that dies takes the binding with it: no binding
            # outlives (or, through a recycled id, aliases) the memory its
            # prefix points into
            table.pop(key, None)

        self._bindings[key] = (
            tuple(weakref.ref(a, drop) for a in held),
            tuple(a.shape for a in held),
            prefix,
        )
        return prefix

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
        k = self.kernel
        gl = k.ghost_layers if ghost_layers is None else ghost_layers
        held = [arrays[f.name] for f in self._fields]
        key = (gl, tuple(block_offset), tuple(origin), *map(id, held))
        refs, shapes, prefix = self._bindings.get(key, _UNBOUND)
        for ref, shape, a in zip(refs, shapes, held):
            if ref() is not a or a.shape != shape:
                prefix = None
                break
        if prefix is None:
            prefix = self._bind(key, held)
        for name in self._required:
            if name not in params:
                raise KeyError(f"missing kernel parameter {name!r}")
        argv = [
            *prefix,
            *[params.get(name, default) for name, default in self._doubles],
            int(params.get("time_step", 0)),
            int(params.get("seed", 0)),
        ]
        out = None
        if k.reductions:
            # per call, not per binding: threads may reduce one array set
            out = np.zeros(len(k.reductions))
            argv.append(out.__array_interface__["data"][0])
        # counter samples bracket the native call alone, so the profiler's
        # attribution excludes the Python above; with no measured block open
        # nobody takes the delta and nothing is sampled
        if attribution_open():
            harness = get_counter_harness()
            s0 = harness.sample()
            self._func(*argv)
            attribute_dispatch(harness.delta(s0, harness.sample()))
        else:
            self._func(*argv)
        if out is None:
            return None
        return {name: float(v) for name, v in zip(k.reductions, out)}


def compile_c_kernel(kernel: Kernel) -> CompiledCKernel:
    """Generate, compile (with on-disk caching) and wrap a C kernel."""
    from ..observability.log import get_logger, kv
    from ..observability.recorder import get_recorder

    from ..profiling.cache import kernel_fingerprint
    from ..profiling.diskcache import KernelDiskCache, cache_key

    func_name = _c_func_name(kernel.name)
    with get_recorder().span(f"codegen:c:{kernel.name}", category="backend") as span:
        fingerprint = kernel_fingerprint(kernel)
        key = cache_key(fingerprint, flags=_BASE_FLAGS, backend="c")
        cache = KernelDiskCache()
        hit = cache.lookup(key) is not None
        if hit:
            # warm start: the key pins fingerprint + codegen revision +
            # compiler identity, so the stored source is exactly what we
            # would regenerate — skip sympy→C emission entirely
            source = cache.load_source(key)
            if source is None:
                source = generate_c_source(kernel, func_name)
        else:
            source = generate_c_source(kernel, func_name)
        so_path = _build_shared_object(
            source,
            func_name,
            key=key,
            extra_meta={"kernel": kernel.name, "fingerprint": fingerprint},
        )
        lib = ctypes.CDLL(str(so_path))
        func = getattr(lib, func_name)
        span["disk_cache"] = "hit" if hit else "miss"
        get_logger("backends.c").info(
            kv(
                "c_kernel_ready",
                kernel=kernel.name,
                so=so_path.name,
                disk_cache="hit" if hit else "miss",
            )
        )
        return CompiledCKernel(kernel, source, func)
