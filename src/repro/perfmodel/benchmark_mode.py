"""Measured kernel performance and measurement-driven feedback (§3.6).

"In addition to this analytic performance model, we can also compile a
benchmark executable and perform measurements of actual performance
characteristics ... Performance modeling and benchmark results are then fed
back as input for further optimization."

:func:`measure_kernel` times a generated C kernel through the ``.so`` the
solvers call and the runner that runs a C solver's steps (``repro_run``,
:mod:`repro.timeloop`), and reports MLUP/s and cycles per lattice-site
update (the likwid-bench role).  The measurements choose no kernel form:
:meth:`~repro.discretization.staggered.SplitKernels.buffering_pays` does.
"""

from __future__ import annotations

import ctypes
import zlib
from dataclasses import dataclass

import numpy as np

from ..backends.c_backend import compile_c_fill, pack_ops
from ..backends.numpy_backend import create_arrays
from ..ir.kernel import Kernel
from ..ir.loops import IterationSpace

__all__ = ["MeasuredPerformance", "measure_kernel"]


@dataclass(frozen=True)
class MeasuredPerformance:
    """Result of timing a compiled kernel."""

    kernel_name: str
    interior_shape: tuple[int, ...]
    iterations: int
    seconds_per_sweep: float
    mlups: float

    def cycles_per_lup(self, clock_ghz: float) -> float:
        return clock_ghz * 1e3 / self.mlups


def measure_kernel(
    kernel: Kernel,
    interior_shape: tuple[int, ...],
    iterations: int = 5,
    repeats: int = 3,
) -> MeasuredPerformance:
    """Time sweeps of *kernel* over a block of *interior_shape*, in this process.

    The kernel is ``compile_cached(kernel, "c")``'s, its arrays come from
    ``create_arrays`` with fixed data, and one call, lowered to an op of
    ``repro_run``, runs once to warm up and then in *repeats* batches of
    *iterations* calls; the best batch mean of the runner's clock is the
    sweep time.  The block sits at the origin, every spacing and parameter
    is 1 (the time 0).
    """
    from ..profiling.cache import compile_cached

    if len(interior_shape) != kernel.dim:
        raise ValueError(f"shape must have {kernel.dim} entries")
    gl = max(kernel.min_ghost_layers, 1)
    arrays = create_arrays(kernel.fields, tuple(interior_shape), gl)
    for name, a in arrays.items():
        # crc32, not hash(): str hashes are salted per process
        i = np.arange(a.size) + zlib.crc32(name.encode()) % 97
        a[...] = (0.25 + 0.5 * ((1103515245 * i + 12345) & 0xFFFF) / 65536).reshape(a.shape)
    params = {name: 0.0 if name == "t" else 1.0 for name in kernel.required_parameters}
    op = compile_cached(kernel, "c").lower(arrays, ghost_layers=gl, **params)
    run = compile_c_fill().run
    ops = pack_ops([[op]] * 2)  # both parities of a step run the one op
    clock = (ctypes.c_double * 1)()
    step, t, crumb = (ctypes.c_int64 * 1)(), (ctypes.c_double * 1)(), (ctypes.c_int64 * 2)()

    def sweep_seconds(n: int) -> float:
        clock[0] = 0.0
        run(n, ops, 1, 0, step, t, 0.0, clock, crumb)
        return clock[0] / n

    sweep_seconds(1)  # warm-up
    seconds = min(sweep_seconds(iterations) for _ in range(repeats))
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
