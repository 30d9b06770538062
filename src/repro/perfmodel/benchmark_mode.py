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

from ..backends.c_backend import _CODEGEN_FLAGS, generate_c_source
from ..ir.kernel import Kernel

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
        return self.seconds_per_sweep * clock_ghz * 1e9 / np.prod(self.interior_shape)


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
    gl = max(kernel.ghost_layers, 1)

    src = generate_c_source(kernel, func_name=f"kernel_{kernel.name}")

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

    call_args = [f"f_{f.name}" for f in kernel.fields]
    call_args += [f"n{d}" for d in range(dim)]
    call_args.append("gl")
    call_args += ["0"] * dim                       # offsets
    call_args += ["0.0"] * dim                     # origins
    for d in range(dim):
        folded = kernel.folded_value(f"dx_{d}")
        call_args.append(repr(float(folded)) if folded is not None else "1.0")
    for p in kernel.parameters:
        if p.name in ("time_step", "seed"):
            continue
        call_args.append("0.0" if p.name == "t" else "1.0")
    call_args += ["0", "0"]                        # time_step, seed
    kernel_call = (
        f"            kernel_{kernel.name}({', '.join(call_args)});"
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
    return src + "\n" + main


def measure_kernel(
    kernel: Kernel,
    interior_shape: tuple[int, ...],
    iterations: int = 5,
    repeats: int = 3,
    timeout: float = 120.0,
) -> MeasuredPerformance:
    """Compile and run the benchmark harness; parse the measured sweep time."""
    import hashlib
    import os
    import tempfile
    from pathlib import Path

    from ..profiling.diskcache import KernelDiskCache, cache_key

    source = generate_benchmark_source(kernel, interior_shape, iterations, repeats)
    bench_flags = (*_CODEGEN_FLAGS, "-lm")
    digest = hashlib.sha256(source.encode()).hexdigest()
    key = cache_key(digest, flags=bench_flags, backend="c-bench")
    cache = KernelDiskCache()

    def build(tmp_path: Path) -> None:
        with tempfile.TemporaryDirectory() as td:
            c_path = Path(td) / f"bench_{kernel.name}.c"
            c_path.write_text(source)
            cc = os.environ.get("CC", "cc")
            base = [cc, *_CODEGEN_FLAGS]
            last = None
            for flags in ([*base, "-fopenmp"], [*base, "-fopenmp-simd"]):
                try:
                    subprocess.run(
                        [*flags, "-o", str(tmp_path), str(c_path), "-lm"],
                        check=True,
                        capture_output=True,
                    )
                    return
                except subprocess.CalledProcessError as err:
                    tmp_path.unlink(missing_ok=True)
                    last = err
            raise RuntimeError(
                f"benchmark compilation failed:\n{last.stderr.decode(errors='replace')}"
            )

    exe, _hit = cache.get_or_build(
        key,
        build,
        source=source,
        meta={"kernel": kernel.name, "flags": list(bench_flags), "artifact": "bench"},
        artifact="bench",
    )
    out = subprocess.run(
        [str(exe)], capture_output=True, text=True, timeout=timeout, check=True
    ).stdout
    seconds = float(out.split("seconds_per_sweep=")[1].split()[0])
    cells = int(np.prod(interior_shape))
    return MeasuredPerformance(
        kernel_name=kernel.name,
        interior_shape=tuple(interior_shape),
        iterations=iterations,
        seconds_per_sweep=seconds,
        mlups=cells / seconds / 1e6,
    )
