#!/usr/bin/env python3
"""Distributed-memory execution on simulated MPI ranks (paper §4).

Runs the binary solidification model — with Philox fluctuations enabled —
on a block-structured domain distributed over four simulated MPI ranks, and
verifies that the result is *bit-identical* to a single-block run: the
ghost-layer protocol and the counter-based RNG make the decomposition
invisible to the physics.

Also demonstrates the scaling-observability layer: the main process and
every rank record into a flight recorder that keeps every event
(``capacity=None``), and the five event streams render as ONE
Chrome/Perfetto trace (``runs/distributed_demo/trace.json`` — the codegen
pipeline on the main-process track, one named track per rank, written into
a :class:`RunDir` so no artifact lands at the repo root); rank 0 prints
the communication matrix, the λ load-imbalance factor and the
predicted-vs-measured comm-time closure.

Run:  python examples/distributed_run.py
"""

import json

import numpy as np

from repro.observability import (
    FlightRecorder,
    RunDir,
    chrome_trace,
    rank_recorder,
    set_recorder,
)
from repro.parallel import BlockForest, DistributedSolver, run_ranks
from repro.pfm import GrandPotentialModel, make_two_phase_binary, planar_front


def main():
    main_recorder = FlightRecorder(capacity=None)
    set_recorder(main_recorder)
    params = make_two_phase_binary(dim=2)
    params.fluctuation_amplitude = 0.02   # exercise the global RNG counters
    model = GrandPotentialModel(params)
    kernels = model.create_kernels()

    global_shape = (32, 32)
    steps = 25

    def init(offset, shape):
        full = planar_front(
            global_shape, params.n_phases, 0, 1, position=12.0, epsilon=params.epsilon
        )
        sl = tuple(slice(o, o + s) for o, s in zip(offset, shape))
        return full[sl], 0.0

    # --- reference: one block, no communication ------------------------------
    forest_single = BlockForest(global_shape, global_shape, periodic=True)
    ref = DistributedSolver(kernels, forest_single, comm=None)
    ref.set_state_from(init)
    ref.step(steps)
    phi_ref = ref.gather("phi")

    # --- 16 blocks over 4 simulated ranks --------------------------------------
    forest = BlockForest(global_shape, (8, 8), periodic=True)
    print(forest)
    assignment = forest.distribute(4)
    for rank, blocks in assignment.items():
        print(f"  rank {rank}: blocks {blocks} (Morton-contiguous)")

    def rank_program(comm):
        with rank_recorder(comm.rank, capacity=None) as recorder:
            solver = DistributedSolver(kernels, forest, comm=comm)
            solver.set_state_from(init)
            solver.step(steps)
            phi = solver.gather("phi")
            scaling = solver.scaling_report()   # collective: all ranks call it
        return phi, solver.bytes_sent, solver.profiler, recorder, scaling

    results = run_ranks(4, rank_program)
    phi_dist = results[0][0]
    total_bytes = sum(r[1] for r in results)

    print(f"\nafter {steps} steps with fluctuations on 4 ranks:")
    print(f"  total remote ghost traffic: {total_bytes / 1024:.1f} KiB "
          f"({total_bytes / steps / 1024:.1f} KiB per step)")
    identical = np.array_equal(phi_dist, phi_ref)
    print(f"  distributed result identical to single-block run: {identical}")
    if not identical:
        raise SystemExit("BUG: decomposition changed the physics!")
    solid = phi_ref[..., 0].mean()
    print(f"  solid fraction after run: {solid:.4f}")

    # --- per-kernel accounting, reduced over all ranks -----------------------
    from repro.profiling import SolverProfiler, kernel_cache_stats

    combined = SolverProfiler()
    for result in results:
        combined.merge(result[2])
    print()
    print(combined.report(f"combined profile over 4 ranks, {steps} steps"))
    print(f"\n{kernel_cache_stats()} "
          "(every rank reused the same three compiled kernels)")

    # --- scaling observability: merged trace + comm matrix + λ + closure -----
    rundir = RunDir("runs/distributed_demo",
                    config={"steps": steps, "ranks": 4})
    rundir.note(example="distributed_run", ranks=4)
    trace = chrome_trace([main_recorder] + [r[3] for r in results])
    rundir.trace_path.write_text(json.dumps(trace, indent=1))
    rundir.write_manifest(status="ok")
    print(f"\nmerged 4-rank timeline written to {rundir.trace_path} "
          "(open in Perfetto / chrome://tracing)")
    print()
    print(results[0][4])   # comm matrix, λ, comm-model closure (same on all ranks)


if __name__ == "__main__":
    main()
