#!/usr/bin/env python3
"""Setup P1: ternary eutectic directional solidification (paper §5.1, Fig. 4).

The full grand-potential model with 4 phases and 3 components — the
configuration that was manually optimized in [Bauer et al. 2015] and that
the code generator now specializes automatically:

* isotropic gradient energy (A_{αβ} = 1),
* parabolic grand-potential fits, affine-linear in T,
* analytic temperature gradient T(x₀, t) moving with the pulling velocity,
* anti-trapping current, obstacle potential with triple-phase suppression.

Three solid lamellae grow into the melt; the run reports the front
position/velocity and the lamellar spacing spectrum — the quantities
compared against Al-Ag-Cu experiments in the paper.

Run:  python examples/ternary_eutectic_p1.py [steps]
      (3D is the paper's setting; this example uses a thin 3D slab)
"""

import sys
import time

import numpy as np

from repro.analysis import (
    TimeSeriesWriter,
    front_position,
    interface_fraction,
    lamellar_spacing,
    phase_fractions,
)
from repro.pfm import GrandPotentialModel, SingleBlockSolver, lamellar_front, make_p1


def main():
    steps = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    report_every = max(steps // 6, 1)

    # undercool the front (isotherm T = T_m at x = 30, front at x = 10) and
    # thin the interfaces so the lamellae are resolved at this demo scale
    params = make_p1(dim=3, G=2e-2, v=5e-2, T0=1.0 - 2e-2 * 30.0)
    params.epsilon = 2.0
    params.gamma_triple = 5.0
    model = GrandPotentialModel(params)

    print("building + optimizing kernels (φ-split / µ-split, the forms the rule takes for P1)...")
    t0 = time.time()
    kernels = model.create_kernels()
    print(f"  done in {time.time() - t0:.1f} s")
    for k in kernels.all_kernels:
        oc = k.operation_count()
        print(
            f"  {k.name:12s}: {oc.normalized_flops():6.0f} normalized FLOPs/cell, "
            f"{oc.loads} loads, {oc.stores} stores"
        )
    n_cfg = params.configuration_parameter_count()
    print(f"  {n_cfg} material parameters folded in at compile time")

    shape = (48, 36, 8)  # growth axis x0, lamellae along x1, thin slab in x2
    solver = SingleBlockSolver(kernels, shape, boundary=("neumann", "periodic", "periodic"))

    phi0 = lamellar_front(
        shape,
        params.n_phases,
        solid_phases=[0, 1, 2],
        liquid_phase=params.liquid_phase,
        position=10.0,
        lamella_width=12.0,
        epsilon=params.epsilon,
        growth_axis=0,
        lamella_axis=1,
    )
    solver.set_state(phi0, mu=0.0)

    writer = TimeSeriesWriter(
        "ternary_eutectic_p1_timeseries.csv",
        ["step", "time", "front", "interface_fraction", "f0", "f1", "f2", "f_liquid"],
    )

    print(f"\nrunning {steps} steps on {shape} cells...")
    print("   step   front pos   iface%    phase fractions (s0, s1, s2, liq)")
    t0 = time.time()
    for done in range(0, steps, report_every):
        n = min(report_every, steps - done)
        solver.step(n)
        solver.check_invariants()
        fr = phase_fractions(solver.phi)
        front = front_position(solver.phi, [0, 1, 2], axis=0)
        writer.append(
            step=solver.time_step,
            time=solver.time,
            front=front,
            interface_fraction=interface_fraction(solver.phi),
            f0=fr[0], f1=fr[1], f2=fr[2], f_liquid=fr[3],
        )
        print(
            f"  {solver.time_step:5d}   {front:8.2f}   {100 * interface_fraction(solver.phi):5.1f}"
            f"    {fr[0]:.3f}, {fr[1]:.3f}, {fr[2]:.3f}, {fr[3]:.3f}"
        )
    elapsed = time.time() - t0
    cells = np.prod(shape)
    print(f"\n{steps} steps in {elapsed:.1f} s "
          f"({steps * cells / elapsed / 1e6:.2f} MLUP/s with the NumPy backend)")

    lam = lamellar_spacing(solver.phi, phase=0, growth_axis=0, lamella_axis=0, position=6)
    print(f"dominant lamellar spacing of solid 0: {lam:.1f} cells "
          f"(initialized at 36 = 3 phases x 12 cells)")
    print("time series written to ternary_eutectic_p1_timeseries.csv")


if __name__ == "__main__":
    main()
