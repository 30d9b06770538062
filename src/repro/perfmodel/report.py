"""Combined per-kernel performance report (the Kerncraft front-end role).

One call aggregates every §3.6 analysis for a kernel on a machine: operation
counts, layer-condition traffic, the ECM decomposition and scaling, the
roofline placement, the blocking recommendation and — for GPU targets — the
register/occupancy picture.  This is the "performance rating of the
candidates" a human reads when deciding between kernel variants.
"""

from __future__ import annotations

from ..ir.kernel import Kernel
from .ecm import ECMModel
from .layer_condition import analyze_traffic, blocking_factor
from .machine import MachineModel, SKYLAKE_8174
from .roofline import roofline

__all__ = ["performance_report", "format_table", "report_header"]


def report_header(title: str, width: int = 72) -> list[str]:
    """Standard two-line report header (title + rule)."""
    return [title, "=" * width]


def format_table(headers: list[str], rows: list[tuple]) -> list[str]:
    """Render rows as an aligned text table (first column left, rest right).

    The shared table style of every human-readable report in this package:
    the per-kernel analyses of :func:`performance_report` and the runtime
    profiles of :mod:`repro.profiling` use the same formatter.
    """
    cells = [[str(h) for h in headers]] + [
        [c if isinstance(c, str) else f"{c:.3g}" if isinstance(c, float) else str(c)
         for c in row]
        for row in rows
    ]
    n_cols = max(len(r) for r in cells)
    widths = [max(len(r[i]) for r in cells if i < len(r)) for i in range(n_cols)]
    lines = []
    for k, row in enumerate(cells):
        padded = [
            row[i].ljust(widths[i]) if i == 0 else row[i].rjust(widths[i])
            for i in range(len(row))
        ]
        lines.append("  ".join(padded).rstrip())
        if k == 0:
            lines.append("-" * len(lines[0]))
    return lines


def performance_report(
    kernel: Kernel,
    machine: MachineModel = SKYLAKE_8174,
    block_shape: tuple[int, ...] | None = None,
    gpu: bool = False,
) -> str:
    """Render the full analysis of *kernel* as a human-readable report."""
    block_shape = block_shape or (60,) * kernel.dim
    lines: list[str] = []
    push = lines.append

    lines.extend(
        report_header(f"performance report: kernel '{kernel.name}' on {machine.name}")
    )

    oc = kernel.operation_count()
    push("operation counts (per cell, hoisted work amortized):")
    push(f"  adds {oc.adds}  muls {oc.muls}  divs {oc.divs}  sqrts {oc.sqrts} "
         f" rsqrts {oc.rsqrts}  blends {oc.blends}  rngs {oc.rngs}")
    push(f"  loads {oc.loads}  stores {oc.stores}")
    push(f"  normalized FLOPs: {oc.normalized_flops():.0f}")
    if kernel.hoisted:
        unhoisted = kernel.operation_count(include_hoisted=True).normalized_flops()
        push(f"  hoisted temporaries: {len(kernel.hoisted)} "
             f"(save {unhoisted - oc.normalized_flops():.0f} FLOPs/cell)")
    push("")

    traffic = analyze_traffic(kernel, block_shape)
    push(f"layer conditions on block {block_shape}:")
    push(f"  plane condition working set: {traffic.plane_ws / 1024:.1f} KiB "
         f"-> {traffic.load_bytes_plane:.0f} B/LUP loads")
    push(f"  row condition working set:   {traffic.row_ws / 1024:.1f} KiB "
         f"-> {traffic.load_bytes_row:.0f} B/LUP loads")
    push(f"  stores (incl. write-allocate): {2 * traffic.store_bytes:.0f} B/LUP")
    for lv in machine.cache_levels:
        push(f"  traffic below {lv.name} ({lv.size_bytes // 1024} KiB): "
             f"{traffic.total_bytes(lv.size_bytes):.0f} B/LUP")
    l2 = machine.cache_levels[1] if len(machine.cache_levels) > 1 else machine.cache_levels[0]
    push(f"  recommended blocking (fit {l2.name}): "
         f"N = {blocking_factor(kernel, l2.size_bytes)}")
    push("")

    ecm = ECMModel(machine).predict(kernel, block_shape, traffic=traffic)
    push("ECM model (cycles per cache line of results):")
    push(f"  {{T_comp ‖ T_cache + T_mem}} = "
         f"{{{ecm.t_comp:.1f} ‖ {ecm.t_cache:.1f} + {ecm.t_mem:.1f}}}")
    push(f"  bound: {'compute' if ecm.is_compute_bound else 'memory'}; "
         f"memory saturation at {ecm.saturation_cores} cores")
    push(f"  single core: {ecm.mlups_single_core():.1f} MLUP/s; "
         f"full socket ({machine.cores_per_socket} cores): "
         f"{ecm.mlups(machine.cores_per_socket):.1f} MLUP/s")
    push("")

    rf = roofline(kernel, machine, block_shape)
    push("roofline:")
    push(f"  arithmetic intensity: {rf.intensity_flop_per_byte:.2f} FLOP/B "
         f"({rf.bound}-bound)")
    push(f"  attainable: {rf.attainable_mflops / 1e3:.1f} of "
         f"{rf.peak_mflops / 1e3:.1f} GFLOP/s (normalized units)")

    if gpu:
        from ..gpu import TransformationSequence, apply_sequence

        push("")
        push("GPU (Tesla P100, after dupl+sched+fence transformations):")
        seq = TransformationSequence(use_remat=True, use_scheduling=True, fence_interval=32)
        # a contracted kernel runs on the GPU as its two stages
        for stage in kernel.stages:
            tuned = apply_sequence(stage, seq)
            label = f"{stage.name} " if stage is not kernel else ""
            push(f"  {label}registers: {tuned.registers.allocated_registers} allocated "
                 f"({tuned.registers.spilled_registers} spilled), "
                 f"occupancy {tuned.model.occupancy:.2f}")
            push(f"  {label}modeled rate: {tuned.model.mlups():.0f} MLUP/s")
    return "\n".join(lines)
