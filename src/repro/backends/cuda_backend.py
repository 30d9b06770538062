"""CUDA backend: emits complete CUDA C sources (paper §3.5).

The backend "strips away loop nodes of the intermediate representation and
replaces loop counters by index expressions using CUDA's special variables".
Several thread-to-cell mapping strategies are implemented and fully
separated from the stencil code, so they can be exchanged (and auto-tuned):

* ``linear3d`` — one thread per cell, 3D block/grid decomposition,
* ``z_loop``  — one thread per (x, y) column looping over the outermost
  axis (good for kernels with hoistable per-plane expressions).

Approximate operations use ``__fdividef``/``__frsqrt_rn`` intrinsics as in
the paper.  Without a CUDA toolchain the sources cannot be executed here;
they are validated structurally and kept byte-stable for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy as sp

from ..ir.kernel import Kernel
from ..symbolic.assignment import Assignment
from ..symbolic.coordinates import CoordinateSymbol
from ..symbolic.field import FieldAccess
from ..symbolic.random import RandomValue
from .c_backend import _access_str, _CPrinter, _declare_strides
from .numpy_backend import _needed_subexpressions, _region_of

__all__ = ["generate_cuda_source", "MAPPINGS", "CudaKernelSource"]

MAPPINGS = ("linear3d", "z_loop")

_CUDA_PREAMBLE = r"""
#include <stdint.h>

#ifndef M_PI
#define M_PI 3.14159265358979323846
#endif

__device__ __forceinline__ uint32_t _mulhilo(uint32_t a, uint32_t b, uint32_t *lo) {
    uint64_t p = (uint64_t)a * (uint64_t)b;
    *lo = (uint32_t)p;
    return (uint32_t)(p >> 32);
}

__device__ __forceinline__ double _philox_uniform(
    int64_t g0, int64_t g1, int64_t g2, uint32_t c3,
    uint32_t k0, uint32_t k1, int lane, double low, double high)
{
    uint32_t x0 = (uint32_t)(g0 & 0xFFFFFFFF);
    uint32_t x1 = (uint32_t)(g1 & 0xFFFFFFFF);
    uint32_t x2 = (uint32_t)(g2 & 0xFFFFFFFF);
    uint32_t x3 = c3;
    #pragma unroll
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
    double u = (lane == 0)
        ? ((double)x0 * 0x1p-32 + (double)x1) * 0x1p-32
        : ((double)x2 * 0x1p-32 + (double)x3) * 0x1p-32;
    return low + (high - low) * u;
}

__device__ __forceinline__ double _fast_div(double a, double b) {
    return (double)__fdividef((float)a, (float)b);
}
__device__ __forceinline__ double _fast_sqrt(double x) {
    return (double)__fsqrt_rn((float)x);
}
__device__ __forceinline__ double _fast_rsqrt(double x) {
    return (double)__frsqrt_rn((float)x);
}
"""


@dataclass
class CudaKernelSource:
    """Generated CUDA translation unit plus launch metadata."""

    kernel: Kernel
    source: str
    mapping: str
    block_dim: tuple[int, int, int]

    def launch_bounds(self, interior: tuple[int, ...]) -> tuple[tuple, tuple]:
        """(grid, block) dimensions for a given interior size."""
        bx, by, bz = self.block_dim
        if self.mapping == "linear3d":
            dims = list(interior) + [1, 1, 1]
            grid = (
                -(-dims[2] // bx) if len(interior) > 2 else 1,
                -(-dims[1] // by),
                -(-dims[0] // bz),
            )
            return grid, (bx, by, bz)
        # z_loop: threads cover the two inner axes only
        grid = (-(-interior[-1] // bx), -(-interior[-2] // by), 1)
        return grid, (bx, by, 1)


def generate_cuda_source(
    kernel: Kernel,
    mapping: str = "linear3d",
    block_dim: tuple[int, int, int] = (64, 4, 1),
    order: list[Assignment] | None = None,
    fence_positions: tuple[int, ...] = (),
) -> CudaKernelSource:
    """Emit the CUDA C translation unit for *kernel*.

    ``order`` allows passing a rescheduled/rematerialized statement list
    (from :mod:`repro.gpu`); ``fence_positions`` inserts
    ``__threadfence_block()`` statements at the given statement indices.
    """
    if mapping not in MAPPINGS:
        raise ValueError(f"unknown thread mapping {mapping!r}; choose from {MAPPINGS}")
    ac = kernel.ac
    dim = kernel.dim
    func_name = f"kernel_{kernel.name}"

    groups: dict[tuple, list[Assignment]] = {}
    for a in ac.main_assignments:
        groups.setdefault(_region_of(a, dim), []).append(a)
    if len(groups) > 1 and mapping == "z_loop":
        raise ValueError("z_loop mapping does not support multi-region (flux) kernels")

    lines: list[str] = [f"/* generated CUDA kernel: {kernel.name} ({mapping}) */"]
    lines.append(_CUDA_PREAMBLE)

    args = [f"double * __restrict__ f_{f.name}" for f in kernel.fields]
    args += [f"const int64_t n{d}" for d in range(dim)]
    args.append("const int64_t gl")
    args += [f"const int64_t off{d}" for d in range(dim)]
    args += [f"const double origin{d}" for d in range(dim)]
    args += [f"const double h{d}" for d in range(dim)]
    for p in kernel.parameters:
        if p.name in ("time_step", "seed"):
            continue
        args.append(f"const double p_{p.name}")
    args += ["const int64_t time_step", "const int64_t seed"]

    lines.append(f'extern "C" __global__ void {func_name}(')
    lines.append("    " + ",\n    ".join(args) + ")")
    lines.append("{")

    lines.extend(_declare_strides(kernel.fields, dim))
    lines.append("")

    # thread-to-cell mapping: fully separated from the stencil body
    axes = list(range(dim))
    cuda_dims = ["x", "y", "z"]
    if mapping == "linear3d":
        for k, axis in enumerate(reversed(axes)):  # inner axis -> threadIdx.x
            c = cuda_dims[k]
            lines.append(
                f"    const int64_t i{axis} = (int64_t)blockIdx.{c} * blockDim.{c} + threadIdx.{c};"
            )
    else:  # z_loop
        for k, axis in enumerate(reversed(axes[1:])):
            c = cuda_dims[k]
            lines.append(
                f"    const int64_t i{axis} = (int64_t)blockIdx.{c} * blockDim.{c} + threadIdx.{c};"
            )

    h_expr = {}
    for d in range(dim):
        folded = kernel.folded_value(f"dx_{d}")
        h_expr[d] = repr(float(folded)) if folded is not None else f"h{d}"

    for region, assignments in sorted(groups.items()):
        lines.extend(
            _emit_cuda_body(
                kernel, region, assignments, h_expr, dim, mapping,
                order=order, fence_positions=fence_positions,
            )
        )
    lines.append("}")
    return CudaKernelSource(
        kernel=kernel,
        source="\n".join(lines) + "\n",
        mapping=mapping,
        block_dim=block_dim,
    )


def _emit_cuda_body(
    kernel, region, assignments, h_expr, dim, mapping, order, fence_positions
) -> list[str]:
    ac = kernel.ac

    if order is None:
        sub = _needed_subexpressions(ac, assignments)
        stmts = sub + assignments
    else:
        # external schedule: filter to this region's statements
        wanted = set()
        for a in assignments:
            wanted.add(a.lhs)
        stmts = [
            a
            for a in order
            if not a.is_field_store or a.lhs in wanted
        ]

    def rng_str(r: RandomValue) -> str:
        lo = [region[d][0] for d in range(dim)]
        g = [f"i{d} + off{d} - {lo[d]}" for d in range(dim)]
        while len(g) < 3:
            g.append("0")
        printer0 = _CPrinter(lambda r_: "0")
        return (
            f"_philox_uniform({g[0]}, {g[1]}, {g[2]}, {r.stream // 2}u, "
            f"(uint32_t)(time_step & 0xFFFFFFFF), (uint32_t)(seed & 0xFFFFFFFF), "
            f"{r.stream % 2}, {printer0.doprint(r.low)}, {printer0.doprint(r.high)})"
        )

    printer = _CPrinter(rng_str)

    param_names = {p.name for p in kernel.parameters} - {"time_step", "seed"}
    rename = {n: sp.Symbol(f"p_{n}", real=True) for n in param_names}

    def fix(e: sp.Expr) -> sp.Expr:
        mapping_ = {
            s: rename[s.name]
            for s in e.free_symbols
            if not isinstance(s, (FieldAccess, CoordinateSymbol)) and s.name in rename
        }
        return e.xreplace(mapping_) if mapping_ else e

    out = [f"    /* region {region} */"]
    def bound(a: int) -> str:
        ext = region[a][0] + region[a][1]
        return f"n{a} + {ext}" if ext else f"n{a}"

    guard_axes = range(1, dim) if mapping == "z_loop" else range(dim)
    guards = " || ".join(f"i{a} >= {bound(a)}" for a in guard_axes)
    if guards:
        out.append(f"    if ({guards}) return;")

    body_pad = "    "
    if mapping == "z_loop":
        out.append(f"    for (int64_t i0 = 0; i0 < {bound(0)}; ++i0) {{")
        body_pad = "        "

    coords_needed = {
        c.axis for a in stmts for c in a.rhs.atoms(CoordinateSymbol)
    }
    for axis in sorted(coords_needed):
        lo = region[axis][0]
        out.append(
            f"{body_pad}const double x_{axis} = origin{axis} + "
            f"(double)(i{axis} + off{axis} - {lo}) * {h_expr[axis]} + 0.5 * {h_expr[axis]};"
        )

    fence_set = set(fence_positions)
    for i, a in enumerate(stmts):
        if i in fence_set:
            out.append(f"{body_pad}__threadfence_block();")
        rhs = printer.doprint(fix(a.rhs))
        if a.is_field_store:
            out.append(f"{body_pad}{_access_str(a.lhs)} = {rhs};")
        else:
            out.append(f"{body_pad}const double {a.lhs.name} = {rhs};")

    if mapping == "z_loop":
        out.append("    }")
    return out
