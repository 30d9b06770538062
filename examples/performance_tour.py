#!/usr/bin/env python3
"""A tour of the automatic performance engineering pipeline (paper §3.5–3.6).

For the paper's P1 configuration this script reproduces, end to end:

* the Table-1 style operation counts of all four kernel variants,
* the layer-condition blocking factor (§6.1: "N < 67 → 60³ blocks"),
* ECM predictions and the µ-split vs µ-full crossover (Fig. 2 left),
* the GPU register-pressure transformations (Fig. 2 right) including the
  evolutionary tuner,
* a generated CUDA kernel head.

Run:  python examples/performance_tour.py
"""

from repro.backends.cuda_backend import generate_cuda_source
from repro.gpu import TransformationSequence, apply_sequence, evolutionary_tune
from repro.perfmodel import ECMModel, SKYLAKE_8174, blocking_factor
from repro.pfm import GrandPotentialModel, make_p1


def main():
    model = GrandPotentialModel(make_p1())
    print("=== operation counts (Table 1 analogue, setup P1) ===")
    full = model.create_kernels(variant_phi="full", variant_mu="full")
    split = model.create_kernels(variant_phi="split", variant_mu="split")
    for ks, label in ((full, "full"), (split, "split")):
        # a split system is one contracted kernel; its stages are the paper's two
        for k in [stage for k in ks.phi_kernels + ks.mu_kernels for stage in k.stages]:
            oc = k.operation_count()
            print(
                f"  {k.name:10s} [{label:5s}]  norm FLOPs {oc.normalized_flops():7.0f}"
                f"   loads {oc.loads:3d}  stores {oc.stores:2d}"
                f"   divs {oc.divs:2d}  rsqrts {oc.rsqrts:2d}"
            )

    mu_full = full.mu_kernels[0]
    print("\n=== spatial blocking from layer conditions (§6.1) ===")
    l2 = SKYLAKE_8174.level("L2").size_bytes
    n_block = blocking_factor(mu_full, l2)
    print(f"  µ-full 3D layer condition in 1 MiB L2: N < {n_block}  (paper: N < 67 → 60³)")

    print("\n=== ECM model: µ-split vs µ-full per-core scaling (Fig. 2 left) ===")
    ecm = ECMModel(SKYLAKE_8174)
    p_full = ecm.predict(mu_full, (60, 60, 60))
    p_split = [ecm.predict(k, (60, 60, 60)) for k in split.mu_kernels[0].stages]
    print(f"  {p_full}")
    for p in p_split:
        print(f"  {p}")
    print("\n  cores | µ-full MLUP/s/core | µ-split MLUP/s/core")
    crossover = None
    for n in range(1, 25):
        f = p_full.mlups_per_core(n)
        s = 1.0 / sum(1.0 / p.mlups(n) for p in p_split) / n
        if n in (1, 4, 8, 12, 16, 20, 24):
            print(f"  {n:5d} | {f:18.2f} | {s:19.2f}")
        if crossover is None and f > s:
            crossover = n
    print(f"  ECM crossover (full overtakes split): {crossover} cores  (paper: 16)")

    print("\n=== GPU register transformations on µ-full (Fig. 2 right) ===")
    sequences = {
        "none": TransformationSequence(),
        "sched": TransformationSequence(use_scheduling=True, beam_width=8),
        "dupl": TransformationSequence(use_remat=True),
        "fence": TransformationSequence(fence_interval=32),
        "dupl+sched+fence": TransformationSequence(
            use_remat=True, remat_max_cost=3, remat_max_uses=6,
            use_scheduling=True, beam_width=8, fence_interval=32,
        ),
    }
    base_t = None
    for name, seq in sequences.items():
        r = apply_sequence(mu_full, seq)
        if base_t is None:
            base_t = r.time_per_lup_ns
        print(
            f"  {name:18s} analysis regs {r.registers.analysis_registers:4d}"
            f"  allocated {r.registers.allocated_registers:4d}"
            f"  spilled {r.registers.spilled_registers:4d}"
            f"  occupancy {r.model.occupancy:5.2f}"
            f"  speedup {base_t / r.time_per_lup_ns:4.2f}x"
        )

    print("\n=== evolutionary tuner (§3.5) ===")
    best = evolutionary_tune(mu_full, population=10, generations=6, seed=42)
    print(f"  best sequence found: {best.sequence.describe()}")
    print(f"  modeled speedup over untransformed: {base_t / best.time_per_lup_ns:.2f}x")

    print("\n=== generated CUDA kernel (head) ===")
    cuda = generate_cuda_source(full.phi_kernels[0], mapping="linear3d")
    head = cuda.source[cuda.source.index('extern "C"'):]
    print("  " + "\n  ".join(head.splitlines()[:12]))


if __name__ == "__main__":
    main()
