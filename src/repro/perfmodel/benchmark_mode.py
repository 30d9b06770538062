"""Compiled benchmark executables and measurement-driven feedback (§3.6).

"In addition to this analytic performance model, we can also compile a
benchmark executable and perform measurements of actual performance
characteristics ... Performance modeling and benchmark results are then fed
back as input for further optimization."

:func:`measure_kernel` wraps a generated C kernel in a standalone timing
harness (the likwid-bench role), compiles and runs it, and reports MLUP/s
and cycles per lattice-site update.  :func:`repro.perfmodel.selection`
combines these measurements with the ECM model to choose kernel variants.
"""

from __future__ import annotations

import subprocess
import zlib
from dataclasses import dataclass

import numpy as np

from ..backends.c_backend import CODEGEN_FLAGS, compile_attempts, generate_c_source
from ..ir.kernel import Kernel
from ..ir.loops import IterationSpace

__all__ = ["MeasuredPerformance", "measure_kernel", "generate_benchmark_source"]


@dataclass(frozen=True)
class MeasuredPerformance:
    """Result of running a compiled kernel benchmark."""

    kernel_name: str
    interior_shape: tuple[int, ...]
    iterations: int
    seconds_per_sweep: float
    mlups: float

    def cycles_per_lup(self, clock_ghz: float) -> float:
        return clock_ghz * 1e3 / self.mlups


_MAIN_TEMPLATE = r"""
#include <stdio.h>
#include <stdlib.h>
#include <time.h>

static double now_seconds(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

int main(void) {
    const int64_t gl = %(gl)d;
%(size_defs)s
%(alloc_and_init)s
    /* warm-up sweep */
%(kernel_call)s
    const int iterations = %(iterations)d;
    double best = 1e300;
    for (int rep = 0; rep < %(repeats)d; ++rep) {
        double t0 = now_seconds();
        for (int it = 0; it < iterations; ++it) {
%(kernel_call)s
        }
        double dt = (now_seconds() - t0) / iterations;
        if (dt < best) best = dt;
    }
    /* checksum defeats dead-code elimination */
    double checksum = 0.0;
%(checksum)s
    printf("seconds_per_sweep=%%.9e checksum=%%.6e\n", best, checksum);
    return 0;
}
"""


def generate_benchmark_source(
    kernel: Kernel,
    interior_shape: tuple[int, ...],
    iterations: int = 5,
    repeats: int = 3,
) -> str:
    """Standalone C program that times sweeps of *kernel* on random data.

    Every field is one flat ``malloc`` of its total size filled by flat
    index, and the kernel computes its own addresses from ``n<d>`` and
    ``gl``: the driver is independent of the field layout
    (:meth:`repro.symbolic.field.Field.strides`) and needs no edit when the
    rule changes.
    """
    dim = kernel.dim
    if len(interior_shape) != dim:
        raise ValueError(f"shape must have {dim} entries")
    gl = max(kernel.min_ghost_layers, 1)

    size_defs = "\n".join(
        f"    const int64_t n{d} = {int(interior_shape[d])};" for d in range(dim)
    )
    alloc_lines = []
    checksum_lines = []
    for f in kernel.fields:
        comps = int(np.prod(f.index_shape)) if f.index_shape else 1
        total = " * ".join([f"(n{d} + 2*gl)" for d in range(dim)] + [str(comps)])
        # crc32, not hash(): str hashes are salted per process, and the data,
        # the checksum and the source digest (the cache key) must not be
        shift = zlib.crc32(f.name.encode()) % 97
        alloc_lines.append(
            f"    double *f_{f.name} = (double*)malloc(sizeof(double) * ({total}));"
        )
        alloc_lines.append(
            f"    for (int64_t i = 0; i < ({total}); ++i) "
            f"f_{f.name}[i] = 0.25 + 0.5 * ((double)((1103515245 * (i + {shift}) + 12345) & 0xffff) / 65536.0);"
        )
        checksum_lines.append(
            f"    for (int64_t i = 0; i < ({total}); i += 97) checksum += f_{f.name}[i];"
        )
    if kernel.is_reduction:
        # a reduction stores nothing: its sums are what keeps the sweep alive
        n_out = len(kernel.reductions)
        alloc_lines.append(f"    double reduce_out[{n_out}];")
        checksum_lines.append(
            f"    for (int i = 0; i < {n_out}; ++i) checksum += reduce_out[i];"
        )

    # the call, argument by argument of the kernel's signature: pointers,
    # extents and gl are the locals of main() that carry the argument's
    # name, the block sits at the origin, every spacing and parameter is 1
    # (the time 0; a spacing folded at compile time is not read)
    sub = kernel.subspace.offsets(interior_shape) if kernel.subspace is not None else ()
    fixed = {"block_offset": "0", "origin": "0.0", "time_step": "0", "seed": "0"}

    def value(arg) -> str:
        if arg.role in ("sub_lo", "sub_hi"):
            return str(sub[arg.key][arg.role == "sub_hi"])
        if arg.role in ("spacing", "parameter"):
            return "0.0" if arg.key == "t" else "1.0"
        return fixed.get(arg.role, arg.name)

    kernel_call = (
        f"            {kernel.c_name}({', '.join(map(value, kernel.signature))});"
    )

    main = _MAIN_TEMPLATE % {
        "gl": gl,
        "size_defs": size_defs,
        "alloc_and_init": "\n".join(alloc_lines),
        "kernel_call": kernel_call,
        "iterations": iterations,
        "repeats": repeats,
        "checksum": "\n".join(checksum_lines),
    }
    return generate_c_source(kernel) + "\n" + main


def measure_kernel(
    kernel: Kernel,
    interior_shape: tuple[int, ...],
    iterations: int = 5,
    repeats: int = 3,
    timeout: float = 120.0,
) -> MeasuredPerformance:
    """Compile and run the benchmark harness; parse the measured sweep time."""
    import hashlib
    from functools import partial

    from ..profiling.diskcache import KernelDiskCache, cache_key

    source = generate_benchmark_source(kernel, interior_shape, iterations, repeats)
    digest = hashlib.sha256(source.encode()).hexdigest()
    key = cache_key(digest, flags=CODEGEN_FLAGS, backend="c-bench")
    exe, _hit = KernelDiskCache().get_or_build(
        key,
        partial(compile_attempts, source=source, flags=CODEGEN_FLAGS),
        source=source,
        meta={"kernel": kernel.name, "flags": list(CODEGEN_FLAGS), "artifact": "bench"},
        artifact="bench",
    )
    out = subprocess.run(
        [str(exe)], capture_output=True, text=True, timeout=timeout, check=True
    ).stdout
    seconds = float(out.split("seconds_per_sweep=")[1].split()[0])
    # a restricted kernel updates the cells of its subspace only
    space = kernel.subspace or IterationSpace.full(kernel.dim)
    cells = int(np.prod([hi - lo for lo, hi in space.concrete(tuple(interior_shape))]))
    return MeasuredPerformance(
        kernel_name=kernel.name,
        interior_shape=tuple(interior_shape),
        iterations=iterations,
        seconds_per_sweep=seconds,
        mlups=cells / seconds / 1e6,
    )
