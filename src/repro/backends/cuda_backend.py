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

from ..ir.kernel import Kernel
from ..ir.loops import analytic_axes
from ..symbolic.assignment import Assignment
from .c_backend import CStatementPrinter, function_head

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
    # one thread per cell of the full block, every thread stores its own
    # cells: neither a sub-range nor a sum over cells can be expressed
    if kernel.subspace is not None:
        raise ValueError(
            f"the CUDA backend does not lower restricted kernels ({kernel.name!r}): "
            "the thread mappings cover the full block"
        )
    if kernel.is_reduction:
        raise ValueError(
            f"the CUDA backend does not lower reduction kernels ({kernel.name!r}): "
            "no thread mapping sums over cells"
        )
    if kernel.flux_field is not None:
        raise ValueError(
            f"the CUDA backend does not lower contracted split kernels ({kernel.name!r}): "
            "lower the system for target='gpu', which keeps its two kernels"
        )
    dim = kernel.dim
    if len(kernel.regions) > 1 and mapping == "z_loop":
        raise ValueError("z_loop mapping does not support multi-region (flux) kernels")

    lines: list[str] = [f"/* generated CUDA kernel: {kernel.name} ({mapping}) */"]
    lines.append(_CUDA_PREAMBLE)
    lines += function_head(kernel, 'extern "C" __global__ void', "__restrict__")

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

    for region, assignments, sub in kernel.regions:
        if order is None:
            stmts = sub + assignments
        else:
            # external schedule: filter to this region's statements
            wanted = {a.lhs for a in assignments}
            stmts = [a for a in order if not a.is_field_store or a.lhs in wanted]
        lines += _emit_cuda_body(kernel, region, stmts, mapping, fence_positions)
    lines.append("}")
    return CudaKernelSource(
        kernel=kernel,
        source="\n".join(lines) + "\n",
        mapping=mapping,
        block_dim=block_dim,
    )


def _emit_cuda_body(kernel, region, stmts, mapping, fence_positions) -> list[str]:
    dim = kernel.dim
    printer = CStatementPrinter(kernel, region)

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

    for axis in sorted(analytic_axes(stmts)):
        out.append(body_pad + printer.coordinate(axis))

    fence_set = set(fence_positions)
    for i, a in enumerate(stmts):
        if i in fence_set:
            out.append(f"{body_pad}__threadfence_block();")
        out.append(body_pad + printer.statement(a))

    if mapping == "z_loop":
        out.append("    }")
    return out
