"""One fresh, pinned process of one workload (started by ``run.py``).

``run.py`` never runs a kernel; it starts this file with
``OMP_NUM_THREADS=1`` already in the environment and a private
``REPRO_CACHE_DIR``.  Modes:

``setup``       build everything, take one step, report when it returned
``measure``     the same, then warm-up → output check → timed window
``trace-cold``  ``setup`` with the span recorder around the codegen stages
``trace``       ``measure`` with an untraced and a traced window, then the
                per-layer micro-benchmarks on the workload's own arrays
``reference``   NumPy single-block summary, cross-checked (see ``check.py``)
``commbench``   ping-pong, barrier and launch cost of the process backend

The flow after the kernels exist is one function, :func:`drive`, run in
this process for the single-block workloads and in every forked rank for
the rank workloads — ranks are forked before any kernel has run in their
parent.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import resource
import sys
import time
import traceback
from contextlib import ExitStack
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import check  # noqa: E402
import layers  # noqa: E402
from host import omp_max_threads  # noqa: E402
from spans import SpanRecorder, TimedComm, TracedKernel  # noqa: E402
from workloads import WARMUP_SAMPLES, WORKLOADS, initial_condition, model_parameters  # noqa: E402

#: samples the window must hold however short ``--seconds`` is
MIN_SAMPLES = 20
#: a single-process window moves to the next allowed CPU this often
CPU_VISIT_S = 0.5


class Context:
    """What :func:`drive` needs; built once in the worker's main process."""

    def __init__(self, args):
        self.args = args
        self.workload = WORKLOADS[args.workload].sized(args.quick)
        self.mode = args.mode
        self.traced = args.mode in ("trace", "trace-cold")
        self.work = Path(args.work)
        self.rec = SpanRecorder() if self.traced else None
        self.n_ranks = args.ranks if args.ranks is not None else self.workload.ranks
        self.rundir = None
        self.diag_suite = None
        #: closed when the workload ends (the observed workload's RunDir)
        self.stack = ExitStack()
        self.overlap = self.workload.overlap != args.flip_overlap

    # -- codegen + compile -----------------------------------------------------------

    def build(self) -> None:
        from repro.pfm import GrandPotentialModel

        w = self.workload
        self.params = model_parameters(w)
        self.model = GrandPotentialModel(self.params)
        if self.traced:
            self._patch_layers()
            self.rec.enabled = True
        self.kernels = self.model.create_kernels()
        self.phi0 = initial_condition(self.params, w.shape, self.args.seed)
        self.forest = None
        if w.block is not None:
            from repro.parallel import BlockForest, DistributedSolver

            self.forest = BlockForest(w.shape, w.block, periodic=True)
            if self.n_ranks:
                # compile every variant before forking (gcc + dlopen only: no
                # kernel runs in this process, so the ranks' libgomp is clean)
                DistributedSolver(
                    self.kernels, self.forest, overlap=self.overlap, backend="c"
                )

    def _patch_layers(self) -> None:
        """Span wrappers around the layers' public callables (see spans.py)."""
        import repro.backends.c_backend as c_backend
        import repro.parallel.ghostlayer as ghostlayer
        import repro.parallel.timeloop as timeloop
        import repro.pfm.model as pfm_model
        import repro.pfm.solver as pfm_solver

        rec = self.rec
        rec.patch(self.model, "phi_system", "symbolic.phi_system")
        rec.patch(self.model, "mu_system", "symbolic.mu_system")
        rec.patch(pfm_model, "discretize_system", "discretization.discretize_system")
        rec.patch(pfm_model, "create_kernel", "ir.create_kernel")
        rec.patch(c_backend, "generate_c_source", "backends.generate_c_source")
        rec.patch(c_backend, "compile_c_kernel", "backends.compile_c_kernel")

        def traced_kernel(compiled):
            return TracedKernel(compiled, rec)

        for module in (pfm_solver, timeloop):
            rec.patch(module, "compile_cached", "profiling.compile_cached",
                      result=traced_kernel)
        rec.patch(pfm_solver, "fill_ghosts", "parallel.fill_ghosts")
        rec.patch(timeloop, "exchange_field", "parallel.exchange",
                  label=lambda *a, **k: a[4])
        for method in ("start", "finish"):
            rec.patch(ghostlayer.GhostExchange, method, "parallel.exchange",
                      label=lambda ex: ex.field_name)

    # -- solver ------------------------------------------------------------------------

    def make_solver(self, comm):
        w = self.workload
        if self.forest is not None:
            from repro.parallel import DistributedSolver

            solver = DistributedSolver(
                self.kernels, self.forest, comm=comm, overlap=self.overlap,
                backend="c",
            )
            phi0 = self.phi0

            def init(offset, shape):
                cut = tuple(slice(o, o + s) for o, s in zip(offset, shape))
                return phi0[cut], 0.0

            solver.set_state_from(init)
            return solver
        from repro.pfm import SingleBlockSolver

        if not w.observed or self.args.bare:
            solver = SingleBlockSolver(self.kernels, w.shape, backend="c")
            solver.set_state(self.phi0, mu=0.0)
            return solver
        from repro.diagnostics import DiagnosticsSuite
        from repro.observability import HealthMonitor, RunDir

        self.rundir = self.stack.enter_context(RunDir(self.work / "rundir"))
        # policy="record": the default conservation_tol aborts a healthy
        # front under "raise" (README, "Output check")
        health = HealthMonitor(policy="record", interval=10)
        solver = SingleBlockSolver(
            self.kernels, w.shape, backend="c", health=health, rundir=self.rundir
        )
        solver.set_state(self.phi0, mu=0.0)
        self.diag_suite = DiagnosticsSuite.for_model(self.model)
        solver.enable_diagnostics(suite=self.diag_suite, every=10)
        solver.enable_fingerprints(every=50)
        return solver


# -- state access ---------------------------------------------------------------------


def local_interiors(solver) -> list[tuple[np.ndarray, np.ndarray]]:
    """Interior (φ, µ) views of everything this process owns."""
    if hasattr(solver, "blocks"):
        cut = (slice(solver.ghost_layers, -solver.ghost_layers),) * solver.forest.dim
        return [
            (b.arrays["phi"][cut], b.arrays["mu"][cut]) for b in solver.blocks.values()
        ]
    return [(solver.phi, solver.mu)]


def local_arrays(solver) -> dict:
    """One ghosted array dict of this process (the first block of a rank)."""
    if hasattr(solver, "blocks"):
        return next(iter(solver.blocks.values())).arrays
    return solver.arrays


def global_state(solver):
    """Collective: the gathered interior (φ, µ) on rank 0, ``None`` elsewhere."""
    if hasattr(solver, "blocks"):
        phi, mu = solver.gather("phi"), solver.gather("mu")
        return None if phi is None else (phi, mu)
    return solver.phi, solver.mu


def output_check(ctx: Context, solver, rank: int) -> dict:
    """Invariants on every rank's cells; reference comparison on rank 0."""
    problems = []
    for phi, mu in local_interiors(solver):
        problems += check.invariants(phi, mu)
    state = global_state(solver)
    out = {"problems": problems, "reference": "not on this rank"}
    if rank == 0:
        # summarized on every seed, so that time and memory do not depend on
        # whether the seed has a frozen reference
        out["summary"] = check.summarize(
            ctx.model, state[0], state[1], solver.time, solver.time_step
        )
        reference = check.load_reference(ctx.workload, ctx.args.seed)
        if reference is None:
            out["reference"] = "invariants only (no frozen reference for this seed/size)"
        else:
            problems += check.compare(out["summary"], reference)
            out["reference"] = "compared with reference.json at rel 1e-9"
    return out


# -- timing ---------------------------------------------------------------------------


def state_reset(solver):
    """A callable that puts a single-block solver's fields back to where they are now.

    The cost of a step depends on the state (the projection sweep of
    ``binary2d_block`` takes 23 ms at step 7 and 26 ms at step 300), so a
    window that simply went on stepping would have its fastest samples in its
    first seconds only.  Every sample of a single-process window therefore
    starts from the checked state; the clock is not running during the reset.
    Ranks step on: resetting them costs two ghost exchanges.
    """
    phi, mu = solver.phi.copy(), solver.mu.copy()
    return lambda: solver.set_state(phi, mu)


def window(solver, comm, k: int, seconds: float, reset=None) -> dict:
    """Closed loop of ``step(k)`` samples for *seconds*; ranks move in lockstep.

    A sample is the wall time of one ``step(k)`` between two barriers,
    divided by *k*; ``own`` stops the clock before the closing barrier so
    the ranks' own times can be compared (imbalance).  ``wall`` is the
    whole loop, the barriers and the ranks' vote to go on included, without
    the time spent in *reset* (called before every sample).

    The host slows its vCPUs one at a time (a busy hyper-thread sibling, for
    seconds on end) and the scheduler leaves a lone busy process where it is,
    so a single-process window visits every allowed CPU in turn, between
    samples: its fastest sample is the step on the fastest CPU the host had.
    Ranks need every CPU at once and stay where the scheduler puts them.
    """
    samples, own = [], []
    cpus = sorted(os.sched_getaffinity(0)) if comm is None else []
    visits = 0
    resetting = 0.0
    t0 = perf_counter()
    more = True
    while more:
        if comm is not None:
            comm.barrier()
        elif len(cpus) > 1 and perf_counter() - t0 >= visits * CPU_VISIT_S:
            os.sched_setaffinity(0, {cpus[visits % len(cpus)]})
            visits += 1
        if reset is not None:
            r0 = perf_counter()
            reset()
            resetting += perf_counter() - r0
        a = perf_counter()
        solver.step(k)
        b_own = perf_counter()
        if comm is not None:
            comm.barrier()
        b = perf_counter()
        samples.append((b - a) / k)
        own.append((b_own - a) / k)
        more = b - t0 < seconds or len(samples) < MIN_SAMPLES
        if comm is not None:
            more = comm.bcast(more, root=0)
    if cpus:
        os.sched_setaffinity(0, cpus)
    return {"samples": samples, "own": own, "wall": b - t0 - resetting,
            "steps": len(samples) * k}


def drive(ctx: Context, comm) -> dict:
    """Set-up → [warm-up → check → window(s) → final check → layer probes]."""
    rank = comm.rank if comm is not None else 0
    w, rec, args = ctx.workload, ctx.rec, ctx.args
    if comm is not None:
        faulthandler.dump_traceback_later(
            args.watchdog, exit=True,
            file=open(ctx.work / f"watchdog.rank{rank}.txt", "w"),
        )
        if rec is not None:
            del rec.spans[:]
            comm = TimedComm(comm, rec)
    solver = ctx.make_solver(comm)
    solver.step(1)
    if comm is not None:
        comm.barrier()
    out = {
        "t_ready": time.monotonic(),
        "omp_threads": omp_max_threads(),
        "rank": rank,
    }
    if ctx.mode in ("setup", "trace-cold"):
        out["rss_mb"] = peak_rss_mb()
        return out
    if rec is not None:
        rec.enabled = False
        out["setup_spans"] = len(rec.spans)

    k = w.steps_per_sample
    solver.step(WARMUP_SAMPLES * k)
    if args.inject_fault and rank == 0:
        phi, _ = local_interiors(solver)[0]
        phi[(0,) * w.dim] = 2.0
    out["check"] = output_check(ctx, solver, rank)
    # before the benchmark's own copy of the state is made
    out["rss_mb"] = peak_rss_mb()

    reset = None if hasattr(solver, "blocks") else state_reset(solver)
    if rec is None:
        out["window"] = window(solver, comm, k, args.seconds, reset)
    else:
        # the same window twice, back to back: recorder off, then on
        half = args.seconds / 2
        out["window"] = window(solver, comm, k, half, reset)
        rec.patch(solver, "step", "step")
        rec.step_of = lambda: solver.time_step
        before = layers.snapshot(solver)

        def untraced_reset():
            rec.enabled = False
            reset()
            rec.enabled = True

        rec.enabled = True
        out["traced_window"] = window(
            solver, comm, k, half, reset and untraced_reset
        )
        rec.enabled = False
        out["layers"] = layers.from_spans(
            rec, out["setup_spans"], solver, before, out["traced_window"]["steps"], w
        )

    final = []
    for phi, mu in local_interiors(solver):
        final += check.invariants(phi, mu)
    out["check"]["final_problems"] = final

    if rec is not None:
        out["layers"].update(layers.probes(ctx, solver, local_arrays(solver)))
        # the traced window only, parents re-based; set-up spans travel apart
        first = out["setup_spans"]
        out["spans"] = [
            [name, start, end, parent - first if parent >= first else -1, step]
            for name, start, end, parent, step in rec.spans[first:]
        ]
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- modes ----------------------------------------------------------------------------


def run_workload(ctx: Context) -> dict:
    from repro.profiling import disk_cache_stats

    with ctx.stack:
        ctx.build()
        if ctx.n_ranks:
            from repro.parallel import launch_ranks

            # a forked child cannot re-arm a watchdog whose thread it did not
            # inherit: stop this one; every rank arms its own, and the join
            # timeout names a stuck rank
            faulthandler.cancel_dump_traceback_later()
            per_rank = launch_ranks(
                ctx.n_ranks, lambda comm: drive(ctx, comm), backend="process",
                recv_timeout=60.0, join_timeout=ctx.args.watchdog,
            )
        else:
            per_rank = [drive(ctx, None)]
    stats = disk_cache_stats()
    result = {
        "ranks": per_rank,
        "disk": {"builds": stats.builds, "hits": stats.hits, "misses": stats.misses},
        "cells": int(np.prod(ctx.workload.shape)),
        "steps_per_sample": ctx.workload.steps_per_sample,
    }
    if ctx.rundir is not None:
        # after the stack closed: the bundle now holds its final manifest
        result["rundir_bytes"] = sum(
            p.stat().st_size for p in ctx.rundir.path.rglob("*") if p.is_file()
        )
    if ctx.traced:
        # this process holds the codegen and compile spans; on one block they
        # are followed by the window's spans, which rank 0 already reported
        result["codegen"] = layers.from_codegen(ctx.rec, ctx.kernels)
        setup = len(ctx.rec.spans) if ctx.n_ranks else per_rank[0].get("setup_spans")
        result["setup_spans"] = ctx.rec.spans[:setup]
    return result


def run_reference(ctx: Context) -> dict:
    """NumPy single-block summary after ``check_steps``, cross-checked.

    The C backend on one block and a 1-rank forest ``gather`` must agree
    with it at the comparison tolerance, or nothing is recorded.
    """
    from repro.parallel import BlockForest, DistributedSolver
    from repro.pfm import GrandPotentialModel, SingleBlockSolver

    w = ctx.workload
    params = model_parameters(w)
    model = GrandPotentialModel(params)
    kernels = model.create_kernels()
    phi0 = initial_condition(params, w.shape, ctx.args.seed)

    def single(backend):
        solver = SingleBlockSolver(kernels, w.shape, backend=backend)
        solver.set_state(phi0, mu=0.0)
        solver.step(w.check_steps)
        return check.summarize(model, solver.phi, solver.mu, solver.time, solver.time_step)

    reference = single("numpy")
    block = w.block or tuple(n // 2 for n in w.shape)
    forest_solver = DistributedSolver(
        kernels, BlockForest(w.shape, block, periodic=True), backend="c"
    )
    forest_solver.set_state_from(
        lambda offset, shape: (
            phi0[tuple(slice(o, o + s) for o, s in zip(offset, shape))], 0.0
        )
    )
    forest_solver.step(w.check_steps)
    gathered = check.summarize(
        model, forest_solver.gather("phi"), forest_solver.gather("mu"),
        forest_solver.time, forest_solver.time_step,
    )
    problems = check.compare(single("c"), reference) + check.compare(gathered, reference)
    if problems:
        raise RuntimeError(f"cross-check failed for {w.name}: {problems}")
    return {"summary": reference, "check_steps": w.check_steps, "shape": list(w.shape)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace-cold", "trace",
                                 "reference", "commbench"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--watchdog", type=float, default=120.0)
    parser.add_argument("--ranks", type=int, default=None,
                        help="override the workload's rank count (rank_speedup)")
    parser.add_argument("--flip-overlap", action="store_true",
                        help="run the sibling schedule (overlap_gain)")
    parser.add_argument("--bare", action="store_true",
                        help="observed workload without its observers (tax_ratio)")
    parser.add_argument("--inject-fault", action="store_true",
                        help="test hook: corrupt the state before the output check")
    args = parser.parse_args(argv)

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    faulthandler.dump_traceback_later(
        args.watchdog, exit=True, file=open(work / "watchdog.txt", "w")
    )
    try:
        if args.mode == "commbench":
            result = layers.commbench()
        else:
            ctx = Context(args)
            result = run_reference(ctx) if args.mode == "reference" else run_workload(ctx)
    except Exception:  # the boundary: report the failure, never hang the driver
        result = {"error": traceback.format_exc()}
    Path(args.result).write_text(json.dumps(result))
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main())
