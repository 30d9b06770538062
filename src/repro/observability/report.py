"""Predicted-vs-measured closure: join the ECM model with live timings.

The paper's Fig. 2 argument is that the generated kernels run close to the
ECM/roofline prediction.  This module produces the reproduction's version
of that closure: for every kernel that a :class:`repro.profiling.SolverProfiler`
actually timed, the ECM prediction (on the configured machine model) is
joined with the measured MLUP/s into a *model-accuracy table* — rendered by
``solver.profile_report()`` and the throughput benchmark.

A measured/predicted ratio near 1 on the paper's machine validates the
model; on other hosts the ratio becomes a calibration factor (the machine
model describes a Skylake socket, not this laptop), which is exactly what
the column is for.

All perfmodel imports are deferred to call time so that
``repro.observability`` stays import-cycle-free (the codegen layers it
instruments are below :mod:`repro.perfmodel` in the import graph).
"""

from __future__ import annotations

from .hwcounters import counter_provenance_line

__all__ = ["model_accuracy_rows", "model_accuracy_report"]


def model_accuracy_rows(
    kernels,
    profiler,
    machine=None,
    block_shape: tuple[int, ...] | None = None,
    cores: int = 1,
) -> list[dict]:
    """Join ECM predictions with measured rates, one dict per timed kernel.

    Keys: ``kernel``, ``predicted_mlups``, ``measured_mlups``, ``ratio``
    (measured/predicted), ``bound`` (compute|memory), ``calls``, plus the
    counter closure columns: ``predicted_cycles_per_lup`` /
    ``measured_cycles_per_lup`` and ``predicted_bytes_per_lup`` /
    ``measured_bytes_per_lup`` (measured sides ``None`` on hosts without
    perf_event access) and ``ipc``.  Kernels without a cell-counted timing
    record are skipped (fills and exchanges have no LUP rate).
    """
    from ..perfmodel.ecm import _LUPS_PER_UNIT, ECMModel
    from ..perfmodel.layer_condition import analyze_traffic
    from ..perfmodel.machine import SKYLAKE_8174

    machine = machine or SKYLAKE_8174
    model = ECMModel(machine)
    line_bytes = getattr(machine, "cache_line_bytes", 64)
    rows: list[dict] = []
    for kernel in kernels:
        rec = profiler.records.get(kernel.name)
        if rec is None or rec.cells == 0 or rec.seconds == 0.0:
            continue
        shape = block_shape or (60,) * kernel.dim
        traffic = analyze_traffic(kernel, shape)
        prediction = model.predict(kernel, shape, traffic=traffic)
        predicted = prediction.mlups(cores)
        measured = rec.mlups
        llc = machine.cache_levels[-1]
        rows.append(
            {
                "kernel": kernel.name,
                "predicted_mlups": predicted,
                "measured_mlups": measured,
                "ratio": measured / predicted if predicted else float("nan"),
                "bound": "compute" if prediction.is_compute_bound else "memory",
                "calls": rec.calls,
                "predicted_cycles_per_lup": prediction.t_single / _LUPS_PER_UNIT,
                "measured_cycles_per_lup": rec.cycles_per_lup,
                "predicted_bytes_per_lup": traffic.total_bytes(llc.size_bytes),
                "measured_bytes_per_lup": rec.measured_bytes_per_lup(line_bytes),
                "ipc": rec.ipc,
            }
        )
    return rows


def model_accuracy_report(
    kernels,
    profiler,
    machine=None,
    block_shape: tuple[int, ...] | None = None,
    cores: int = 1,
    title: str = "model accuracy (predicted vs measured)",
) -> str:
    """Human-readable predicted-vs-measured table (Fig.-2-style closure)."""
    from ..perfmodel.machine import SKYLAKE_8174
    from ..perfmodel.report import format_table, report_header

    machine = machine or SKYLAKE_8174
    rows = model_accuracy_rows(
        kernels, profiler, machine=machine, block_shape=block_shape, cores=cores
    )
    lines = report_header(f"{title} — {machine.name}, {cores} core(s)")
    if not rows:
        lines.append("(no cell-counted kernel timings yet)")
        return "\n".join(lines)

    def opt(value, spec: str) -> str:
        return format(value, spec) if value is not None else "-"

    lines.extend(
        format_table(
            ["kernel", "calls", "predicted MLUP/s", "measured MLUP/s",
             "measured/predicted", "bound", "pred cy/LUP", "meas cy/LUP",
             "pred B/LUP", "meas B/LUP", "IPC"],
            [
                (
                    r["kernel"],
                    r["calls"],
                    f"{r['predicted_mlups']:.2f}",
                    f"{r['measured_mlups']:.2f}",
                    f"{r['ratio']:.3f}",
                    r["bound"],
                    f"{r['predicted_cycles_per_lup']:.1f}",
                    opt(r["measured_cycles_per_lup"], ".1f"),
                    f"{r['predicted_bytes_per_lup']:.1f}",
                    opt(r["measured_bytes_per_lup"], ".1f"),
                    opt(r["ipc"], ".2f"),
                )
                for r in rows
            ],
        )
    )
    lines.append(counter_provenance_line())
    return "\n".join(lines)
