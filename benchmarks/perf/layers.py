"""Per-layer numbers of the traced pass.

Three sources, all outside ``src/``:

* :func:`from_codegen` / :func:`from_spans` — the spans the recorder took
  around the layers' public callables while the workload ran,
* :func:`probes` — direct calls into single layers on the workload's own
  arrays once its window is over (dispatch floor, fills, copy bandwidth,
  digest / health / recorder unit costs),
* :func:`commbench` — rank programs on the process backend (ping-pong,
  barrier, launch), in a worker of their own.

Times read from the solver's ``profiler.records`` are the program's own
measurement and are labelled *program-reported* in the README.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from spans import END, NAME, START, STEP, self_times

KERNELS = ("phi", "phi_project", "mu")
EXCHANGED = ("phi_dst", "mu_dst")


def _median_us(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e6


# -- from spans ---------------------------------------------------------------------


def from_codegen(rec, kernel_set) -> dict:
    """Set-up stages (spans) and the exact per-kernel counts."""
    from repro.profiling import compile_cached
    from repro.simplification.passes import total_nodes

    spans = rec.spans
    own = self_times(spans)
    out = {
        "symbolic.pde_s": rec.total("symbolic."),
        "discretization.discretize_s": rec.total("discretization."),
        "ir.create_kernel_s": rec.total("ir.create_kernel"),
        "backends.c_source_s": rec.total("backends.generate_c_source"),
        # self time of compile_c_kernel: gcc + publish + dlopen, without the
        # source emission it calls
        "backends.gcc_s": sum(
            t for s, t in zip(spans, own) if s[NAME] == "backends.compile_c_kernel"
        ),
        "profiling.compile_ms": 1e3 * rec.total("profiling.compile_cached"),
        "backends.c_source_bytes": sum(
            len(compile_cached(k, "c").source.encode()) for k in kernel_set.all_kernels
        ),
    }
    for kernel in kernel_set.all_kernels:
        if kernel.name in KERNELS:
            ops = kernel.operation_count()
            out[f"ir.nodes.{kernel.name}"] = total_nodes(kernel.ac)
            out[f"perfmodel.flops_per_lup.{kernel.name}"] = ops.total_flops
            out[f"perfmodel.bytes_per_lup.{kernel.name}"] = ops.bytes_per_cell
    return out


def owned_blocks(solver) -> int:
    return len(getattr(solver, "blocks", (None,)))


def snapshot(solver) -> dict:
    """Program-side counters whose growth over the traced window is reported."""
    return {
        "bytes_sent": getattr(solver, "bytes_sent", 0),
        "profile": {n: r.seconds for n, r in solver.profiler.records.items()},
    }


def _per_step(spans, steps, match) -> float:
    """Median over steps of the summed duration of matching spans."""
    by_step: dict[int, float] = {}
    for s in spans:
        if match(s[NAME]):
            by_step[s[STEP]] = by_step.get(s[STEP], 0.0) + s[END] - s[START]
    if not by_step:
        return 0.0
    # steps on which nothing matched count as zero
    values = list(by_step.values()) + [0.0] * max(steps - len(by_step), 0)
    return statistics.median(values)


def from_spans(rec, since: int, solver, before: dict, steps: int, workload) -> dict:
    """Per-layer times of one process over its traced window."""
    spans = rec.spans[since:]
    n_blocks = owned_blocks(solver)
    cells = int(np.prod(workload.block or workload.shape))
    out = {}
    for kernel in KERNELS:
        # the overlapped schedule runs mu as mu:interior + mu:frontier_*
        seconds = _per_step(
            spans, steps,
            lambda n: n == f"kernel:{kernel}" or n.startswith(f"kernel:{kernel}:"),
        ) / n_blocks
        out[f"backends.kernel_ms.{kernel}"] = seconds * 1e3
        out[f"backends.kernel_mlups.{kernel}"] = cells / seconds / 1e6
    if hasattr(solver, "blocks"):
        out.update(_exchange(spans, steps, solver, before))

    # the loop's own time: each step(k) span minus what its children cover
    own = self_times(rec.spans)[since:]  # parents are indices into the full list
    k = workload.steps_per_sample
    loop = [t / k for s, t in zip(spans, own) if s[NAME] == "step"]
    layer = "parallel" if hasattr(solver, "blocks") else "pfm"
    out[f"{layer}.loop_self_ms"] = 1e3 * statistics.median(loop)
    return out


def _exchange(spans, steps: int, solver, before: dict) -> dict:
    """Ghost exchange of a ``DistributedSolver`` over its traced window."""
    out = {}
    for field in EXCHANGED:
        out[f"parallel.exchange_ms.{field}"] = 1e3 * _per_step(
            spans, steps, lambda n: n == f"parallel.exchange:{field}"
        )
    out["parallel.comm_wait_ms"] = 1e3 * _per_step(spans, steps, lambda n: n == "comm.wait")
    out["parallel.msgs_per_step"] = (
        sum(1 for s in spans if s[NAME] == "comm.send") / steps
    )
    now = snapshot(solver)
    out["parallel.bytes_per_step"] = (now["bytes_sent"] - before["bytes_sent"]) / steps
    # program-reported split of the exchanges (the overlapped schedule calls
    # its blocking part "wait")
    for part, names in (("pack", ("pack",)), ("deliver", ("deliver", "wait")),
                        ("unpack", ("unpack",))):
        grown = sum(
            now["profile"].get(f"exchange:{f}:{n}", 0.0)
            - before["profile"].get(f"exchange:{f}:{n}", 0.0)
            for f in EXCHANGED for n in names
        )
        out[f"parallel.exchange_{part}_ms"] = 1e3 * grown / steps
    return out


# -- direct probes --------------------------------------------------------------------


def probes(ctx, solver, arrays: dict) -> dict:
    """Unit costs of single layers, on the arrays the workload just used."""
    from repro.backends.numpy_backend import create_arrays
    from repro.observability import HealthMonitor
    from repro.observability.fingerprint import digest_array
    from repro.observability.recorder import get_recorder
    from repro.parallel import fill_ghosts
    from repro.profiling import compile_cached

    w = ctx.workload
    gl = solver.ghost_layers
    out = {}

    # dispatch floor: a compiled C kernel on a 4^dim interior
    small = create_arrays(ctx.kernels.fields, (4,) * w.dim, gl)
    project = compile_cached(ctx.kernels.projection_kernel, "c")
    out["backends.dispatch_us"] = _median_us(
        lambda: project(small, ghost_layers=gl, t=0.0, time_step=0, seed=0), 500
    )

    boundary = getattr(solver, "boundary", "periodic")
    for field in EXCHANGED:
        out[f"parallel.fill_us.{field}"] = _median_us(
            lambda: fill_ghosts(arrays[field], gl, w.dim, boundary), 100
        )

    # copy bandwidth at the working-set size of this process, same run
    working_set = sum(a.nbytes for a in arrays.values()) * owned_blocks(solver)
    src = np.ones(max(working_set // 16, 1))
    dst = np.empty_like(src)
    copy_us = _median_us(lambda: np.copyto(dst, src), 7)
    out["host.copy_gbs"] = 2 * src.nbytes / (copy_us * 1e-6) / 1e9
    out["host.working_set_mb"] = working_set / 2**20

    cut = (slice(gl, -gl),) * w.dim
    phi, mu = arrays["phi"][cut], arrays["mu"][cut]
    out["observability.fingerprint_ns_per_byte"] = (
        _median_us(lambda: digest_array(phi), 7) * 1e3 / phi.nbytes
    )
    monitor = HealthMonitor(policy="record")
    out["observability.health_ms"] = 1e-3 * _median_us(
        lambda: monitor.check({"phi": phi, "mu": mu}, 0, phase_sum_of="phi"), 7
    )
    recorder = get_recorder()
    out["observability.recorder_us_per_event"] = _median_us(
        lambda: recorder.record("op", "perf_probe", seconds=0.0), 500
    )
    suite = ctx.diag_suite
    if suite is not None:
        out["observability.diagnostics_ms"] = 1e-3 * _median_us(
            lambda: suite.evaluate(
                arrays, ghost_layers=gl, t=solver.time, time_step=solver.time_step, seed=0
            ), 7
        )
    return out


# -- rank runtime ---------------------------------------------------------------------


def commbench() -> dict:
    """Ping-pong, barrier and launch cost of the process backend (2 ranks)."""
    from repro.parallel import launch_ranks

    def program(comm):
        out = {}
        other = 1 - comm.rank
        for label, nbytes, rounds in (("4k", 4096, 400), ("1m", 2**20, 60)):
            payload = np.zeros(nbytes // 8)
            times = []
            for _ in range(rounds):
                comm.barrier()
                t0 = perf_counter()
                if comm.rank == 0:
                    comm.send(payload, other, tag=7)
                    comm.recv(other, tag=7)
                else:
                    comm.recv(other, tag=7)
                    comm.send(payload, other, tag=7)
                times.append((perf_counter() - t0) / 2)  # one way
            out[f"parallel.pingpong_us.{label}"] = statistics.median(times) * 1e6
        out["parallel.barrier_us"] = _median_us(comm.barrier, 1000)
        return out

    t0 = perf_counter()
    launch_ranks(2, lambda comm: None, backend="process")
    launch_s = perf_counter() - t0
    per_rank = launch_ranks(2, program, backend="process", recv_timeout=30.0)
    out = {name: max(r[name] for r in per_rank) for name in per_rank[0]}
    out["parallel.launch_s"] = launch_s
    return out
