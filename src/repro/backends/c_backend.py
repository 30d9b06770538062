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
import tempfile
import weakref
from functools import partial, reduce
from pathlib import Path

import numpy as np
import sympy as sp
from sympy.printing.c import C99CodePrinter

from ..ir.kernel import ARRAY_SET_ROLES, Argument, Kernel
from ..ir.loops import analytic_axes
from ..symbolic.assignment import Assignment
from ..symbolic.coordinates import CoordinateSymbol
from ..symbolic.field import FieldAccess
from ..symbolic.ordering import CanonicalTermOrder, SmallPowersAsProducts
from ..symbolic.random import RandomValue

__all__ = [
    "generate_c_source",
    "compile_c_kernel",
    "CompiledCKernel",
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


class CStatementPrinter(CanonicalTermOrder, SmallPowersAsProducts, C99CodePrinter):
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
            return _access_str(expr)
        return super()._print_Symbol(expr)

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
            return f"{_access_str(a.lhs)} = {self.rhs(a)};"
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
    lines += function_head(kernel)
    for region, assignments, sub in kernel.regions:
        lines += _emit_c_loop_nest(kernel, region, assignments, sub)
    lines.append("}")
    return "\n".join(lines) + "\n"


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


# ---------------------------------------------------------------------------
# compilation & execution


def c_compiler_available() -> bool:
    from shutil import which

    return which(os.environ.get("CC", "cc")) is not None


#: what decides the machine code of a loop nest, and all an executable (the
#: benchmark-mode harness) is built with.  -fno-math-errno is the one
#: math flag: no generated kernel reads errno, and without its branch
#: ``sqrt`` is one instruction with the same value, so the loop around it
#: can be vectorized.  It is not a fast-math flag.
CODEGEN_FLAGS = ("-O3", "-march=native", "-std=c99", "-fno-math-errno")

#: flag basis every shared-object build uses (the -fopenmp variant is
#: tried first, libm is linked last); folded into the cache key so a flag
#: change rebuilds
_BASE_FLAGS = (*CODEGEN_FLAGS, "-shared", "-fPIC")


def compile_attempts(
    tmp_path: Path, source: str, flags: tuple[str, ...] = _BASE_FLAGS
) -> None:
    """Compile *source* to *tmp_path*: ``-fopenmp`` first, serial fallback.

    The one place a compiler is run.  Each failed attempt unlinks whatever
    the compiler left at *tmp_path*, so the retry (and the caller) never
    sees a partial artifact.  libm is named behind the source: a linker
    that keeps only needed libraries drops one named before the object
    that needs it, and an executable then does not link.
    """
    base = [os.environ.get("CC", "cc"), *flags]
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

    so_path, _hit = cache.get_or_build(
        key,
        partial(compile_attempts, source=source),
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


def _ctype(arg: Argument):
    """The ctypes type ``func.argtypes`` holds for one signature argument."""
    if arg.is_pointer:
        return ctypes.c_void_p
    return ctypes.c_int64 if arg.type.is_int else ctypes.c_double


#: the binding of an array set never seen: nothing to check, nothing to pass
_UNBOUND = ((), (), None)


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
        self._fields = tuple(kernel.fields)
        signature = kernel.signature
        func.restype = None
        func.argtypes = [_ctype(a) for a in signature]
        #: what a binding marshals, by role; the rest are the scalars of a call
        self._bound = tuple((a, _ctype(a)) for a in signature if a.role in ARRAY_SET_ROLES)
        self._required = kernel.required_parameters
        # the doubles of a call, in signature order behind the bound prefix,
        # each with the value passed when the caller names none.  Only a
        # spacing may go unnamed: folded at compile time it is a literal in
        # the source, and unless a coordinate needs it (then it is required,
        # like every parameter) nothing reads the argument.
        self._doubles = tuple(
            (a.key, 1.0 if a.role == "spacing" else None)
            for a in signature
            if a.role in ("spacing", "parameter")
        )
        #: (ghost_layers, block_offset, origin, *id(array)) -> (weakrefs, shapes, prefix)
        self._bindings: dict[tuple, tuple] = {}

    @property
    def name(self) -> str:
        return self.kernel.name

    def _bind(self, key: tuple, arrays) -> tuple:
        """Validate the array set of *arrays* under *key*, marshal and remember it.

        Returns the argument prefix; it is never written again.
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
        prefix = tuple(ctype(values[a.role][a.key]) for a, ctype in self._bound)

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
        # a missing array reads None, which no binding holds: _bind names it
        held = [arrays.get(f.name) for f in self._fields]
        key = (gl, tuple(block_offset), tuple(origin), *map(id, held))
        refs, shapes, prefix = self._bindings.get(key, _UNBOUND)
        for ref, shape, a in zip(refs, shapes, held):
            if ref() is not a or a.shape != shape:
                prefix = None
                break
        if prefix is None:
            prefix = self._bind(key, arrays)
        for name in self._required:
            if name not in params:
                k.check_parameters(params)  # raises, naming every missing one
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
