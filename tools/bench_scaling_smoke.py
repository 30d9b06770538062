#!/usr/bin/env python3
"""Small fig3-style scaling smoke benchmark for CI (writes BENCH_scaling.json).

Also runs a single-block per-kernel smoke (after every process-backend
measurement — libgomp's thread pool does not survive a fork) that writes
``BENCH_kernels.json`` at the repo root, appends one ``repro-perf/1``
record per kernel (plus the scaling series) to the append-only history
under ``benchmarks/history/``.

The three observability costs (flight recorder, hardware-counter sampling,
fingerprints) are gated as **unit costs** — µs per recorder event, µs per
counter sample, ns per hashed byte: self-measured seconds over the number
of events, samples and bytes of the same run.  Their share of the step
wall is still written into the BENCH records, as information: a fraction
of the step punishes every kernel speed-up (the fingerprint share went
2.95 % → 6.95 % when the projection sweep got 10x faster, with the
hashing unchanged).

Runs the two-phase binary model on 1/2/4 ranks over a small 2D block forest
— a miniature of the paper's Fig. 3 scaling study — and records
per-rank-count MLUP/s plus the parallel efficiency relative to the 1-rank
run into a ``repro-bench/1`` document.  Two rank runtimes are measured:

* the **process backend** (``repro.parallel.proc_comm``): real OS
  processes with shared-memory ghost buffers — true multi-core wall clock,
  recorded as ``step_seconds_real`` / ``step_seconds_real_overlap`` with
  ``real_speedup`` and ``real_parallel_efficiency`` against the 1-rank
  process run, and
* the **thread simulator** (``repro.parallel.mpi_sim``): the protocol-
  validation runtime, recorded as ``step_seconds_sync`` /
  ``step_seconds_overlap`` and the simulator-side ``mlups``.

Each rank count is measured with both step schedules (``overlap=off``:
synchronous ghost exchange; ``overlap=on``: interior/frontier split with
asynchronous exchange, paper §4.3); multi-rank runs assert the overlapped
schedule is no slower than the synchronous one within a noise allowance
plus its fixed split-dispatch cost (``OVERLAP_SPLIT_MS``).
On a machine with >= 4 cores the 4-rank process run must beat the 1-rank
process run by more than ``REAL_SPEEDUP_FLOOR``; with fewer cores the
speedup is recorded (and reported) but not enforced — a 1-core container
cannot physically exhibit multi-core speedup.

Ordering note: every process-backend measurement runs *before* any kernel
executes in this parent process.  The C backend's kernels use OpenMP, and
libgomp's thread pool does not survive a fork — forking ranks after a
parallel region ran in the parent can hang the children.  Compilation
itself (gcc + dlopen) is fork-safe and is done up front so the children
inherit a warm kernel cache.

Run:  python tools/bench_scaling_smoke.py [--out BENCH_scaling.json]
Paired with ``tools/bench_regress.py compare`` against the checked-in
baseline (``benchmarks/baselines/scaling_baseline.json``) this gates
throughput regressions in CI; shared runners are noisy, so CI compares
warn-only with a wide tolerance, while schema breakage always fails hard.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

_REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.backends.c_backend import c_compiler_available  # noqa: E402
from repro.observability.bench import BenchWriter  # noqa: E402
from repro.observability.hwcounters import get_counter_harness  # noqa: E402
from repro.observability.recorder import get_recorder  # noqa: E402
from repro.perfmodel.ledger import (  # noqa: E402
    PerfLedger,
    perf_record,
    records_from_profiler,
)
from repro.parallel import (  # noqa: E402
    BlockForest,
    DistributedSolver,
    process_backend_available,
    run_ranks,
    run_ranks_processes,
)
from repro.pfm import (  # noqa: E402
    GrandPotentialModel,
    SingleBlockSolver,
    make_two_phase_binary,
    planar_front,
)

# block sizes must be large enough that compute dominates the per-step
# Python dispatch, or the overlap comparison measures overhead, not hiding;
# the C backend steps ~20x faster, so it affords a larger domain
BACKEND = "c" if c_compiler_available() else "numpy"
if BACKEND == "c":
    GLOBAL_SHAPE = (1024, 1024)
    BLOCK_SHAPE = (512, 512)
else:
    GLOBAL_SHAPE = (512, 512)
    BLOCK_SHAPE = (256, 256)
STEPS = 10
WARMUP = 2
RANK_COUNTS = (1, 2, 4)
REPEATS = 3               # best-of, to tame shared-runner noise
OVERLAP_HEADROOM = 1.15   # allowed sync/overlap noise ratio before failing
#: what the overlapped schedule costs per step whatever the kernels do: each
#: block's mu sweep becomes interior + 2*dim frontier dispatches plus an
#: exchange start/finish.  Measured 0.8-1.4 ms at 1 rank, the same before
#: and after the projection got 10x faster (4 % of a 24 ms step, 13 % of a
#: 9.5 ms one), so it is allowed in ms, on top of the relative noise headroom
OVERLAP_SPLIT_MS = 1.5
REAL_SPEEDUP_FLOOR = 1.3  # required 4-rank process-backend speedup (>=4 cores)
#: unit-cost gates, each ~4x the median of nine runs on the recording host
#: (2-vCPU x86-64 KVM guest, OMP_NUM_THREADS=1): 3.0-4.2 us per recorder
#: event, 2.2-3.2 us per counter sample (rusage rung), 1.49-1.64 ns per
#: hashed byte (BLAKE2b digest + merge + fsync'd ledger append); while the
#: host throttles a vCPU the same run reads 5.0 us, 5.0 us and 2.5 ns.  The
#: rest of the 4x is room for a slower shared runner and for the dearer
#: perf rung (one group read per sample)
RECORDER_US_PER_EVENT = 12.0
COUNTER_US_PER_SAMPLE = 10.0
FINGERPRINT_NS_PER_BYTE = 6.0
#: fingerprint cadence: hashing every interior byte costs real memory
#: bandwidth (~30 ms on this domain), so production runs fingerprint every
#: N-th step; the share of the step wall is reported at that cadence
FINGERPRINT_EVERY = 50
FINGERPRINT_STEPS = 100
#: each rank is pinned to one OpenMP thread so the real-parallel speedup
#: measures rank scaling, not a changing threads-per-rank mix
_RANK_ENV = {"OMP_NUM_THREADS": "1"}


def _planar_init(params):
    def init(offset, shape):
        full = planar_front(
            GLOBAL_SHAPE, params.n_phases, 0, 1,
            position=GLOBAL_SHAPE[0] / 2, epsilon=params.epsilon,
        )
        sl = tuple(slice(o, o + s) for o, s in zip(offset, shape))
        return full[sl], 0.0

    return init


def _make_rank_program(kernels, params, overlap: bool):
    forest = BlockForest(GLOBAL_SHAPE, BLOCK_SHAPE, periodic=True)
    init = _planar_init(params)

    def rank_program(comm):
        solver = DistributedSolver(
            kernels, forest, comm=comm, overlap=overlap, backend=BACKEND
        )
        solver.set_state_from(init)
        solver.step(WARMUP)         # compile + warm caches off the clock
        best = float("inf")
        for _ in range(REPEATS):
            comm.barrier()
            t0 = perf_counter()
            solver.step(STEPS)
            comm.barrier()
            best = min(best, perf_counter() - t0)
        return best

    return rank_program


def _measure_sim(kernels, params, n_ranks: int, overlap: bool) -> float:
    """Best-of-``REPEATS`` wall seconds on *n_ranks* simulator threads."""
    prog = _make_rank_program(kernels, params, overlap)
    return max(run_ranks(n_ranks, prog))


def _measure_real(kernels, params, n_ranks: int, overlap: bool) -> float:
    """Best-of-``REPEATS`` wall seconds on *n_ranks* real processes."""
    prog = _make_rank_program(kernels, params, overlap)
    return max(
        run_ranks_processes(
            n_ranks, prog,
            recv_timeout=600.0, join_timeout=1800.0, env=_RANK_ENV,
        )
    )


def _gate_unit_cost(
    failures: list, what: str, cost: float, unit: str, gate: float,
    fraction: float, note: str = "",
) -> None:
    """Print one observability cost and fail it against its unit-cost gate."""
    print(
        f"{what} overhead: {cost:.2f} {unit} (gate {gate:g}; "
        f"{fraction * 100:.3f}% of wall{note})"
    )
    if cost > gate:
        failures.append(f"{what} costs {cost:.2f} {unit} — above the {gate:g} gate")


def _measure_fingerprint_overhead(kernels, params) -> tuple[float, float, int]:
    """Self-measured fingerprint cost: ns per hashed byte, share of the wall.

    One in-parent 1-rank run with the determinism observatory enabled at
    the documented production cadence (``every=FINGERPRINT_EVERY``); the
    stream's own overhead accounting (digest + merge + serialize + fsync)
    is snapshotted around a ``FINGERPRINT_STEPS``-step window and
    published as the ``repro_fingerprint_overhead_seconds`` gauge.
    Returns ``(ns per byte, amortized fraction, records in the window)``.
    """
    import tempfile

    forest = BlockForest(GLOBAL_SHAPE, BLOCK_SHAPE, periodic=True)
    solver = DistributedSolver(kernels, forest, backend=BACKEND)
    solver.set_state_from(_planar_init(params))
    solver.step(WARMUP)
    with tempfile.TemporaryDirectory() as td:
        stream = solver.enable_fingerprints(
            every=FINGERPRINT_EVERY, path=Path(td) / "fp.jsonl"
        )
        before_overhead = stream.overhead_seconds
        before_records = len(stream.records)
        t0 = perf_counter()
        solver.step(FINGERPRINT_STEPS)
        wall = perf_counter() - t0
        overhead = stream.overhead_seconds - before_overhead
        records = len(stream.records) - before_records
        stream.publish_overhead()
    hashed = records * sum(solver.gather(name).nbytes for name in solver.state_fields)
    return overhead / hashed * 1e9, overhead / wall, records


def _precompile(kernels) -> None:
    """Compile every kernel variant in the parent before any fork.

    Building the solvers compiles the plain and interior/frontier kernel
    sets (gcc + dlopen — no OpenMP parallel region runs), so the forked
    rank processes inherit the warm cache instead of compiling 4x.
    """
    forest = BlockForest(GLOBAL_SHAPE, BLOCK_SHAPE, periodic=True)
    for overlap in (False, True):
        DistributedSolver(kernels, forest, overlap=overlap, backend=BACKEND)


def _kernels_smoke(kernels, params, history: PerfLedger, failures: list) -> BenchWriter:
    """Per-kernel MLUP/s on one block, with the counter-sampling gate.

    Must run after every process-backend measurement (libgomp fork
    hazard); writes a ``kernels`` BENCH suite, appends per-kernel
    ``repro-perf/1`` records and gates the hardware-counter sampling cost
    per sample below ``COUNTER_US_PER_SAMPLE``.
    """
    shape = tuple(n // 2 for n in BLOCK_SHAPE)
    solver = SingleBlockSolver(kernels, shape, backend=BACKEND)
    solver.set_state(
        planar_front(shape, params.n_phases, 0, 1,
                     position=shape[0] / 2, epsilon=params.epsilon),
        mu=0.0,
    )
    solver.step(WARMUP)
    solver.profiler.reset()
    harness = get_counter_harness()
    overhead_before = harness.overhead_seconds
    samples_before = harness.samples_taken
    t0 = perf_counter()
    solver.step(STEPS)
    wall = perf_counter() - t0
    counter_seconds = harness.overhead_seconds - overhead_before
    counter_fraction = counter_seconds / wall
    # "off" takes no samples and costs nothing
    counter_us = counter_seconds / max(harness.samples_taken - samples_before, 1) * 1e6
    harness.publish_overhead()

    writer = BenchWriter("kernels")
    kernel_records = []
    for rec in sorted(solver.profiler.records.values(), key=lambda r: r.name):
        if rec.cells == 0 or rec.seconds == 0.0:
            continue
        metrics = {"mlups": rec.mlups, "mean_seconds": rec.mean_seconds}
        if rec.cycles_per_lup is not None:
            metrics["cycles_per_lup"] = rec.cycles_per_lup
        writer.add(
            f"kernel_{rec.name}",
            params={
                "shape": "x".join(map(str, shape)),
                "steps": STEPS,
                "backend": BACKEND,
            },
            **metrics,
        )
        print(f"kernel {rec.name}: {rec.mlups:.3f} MLUP/s "
              f"({rec.mean_seconds * 1e3:.3f} ms/call)")
    writer.add(
        "counter_overhead",
        params={"backend": BACKEND, "source": harness.source},
        counter_overhead_fraction=counter_fraction,
        counter_us_per_sample=counter_us,
    )
    _gate_unit_cost(
        failures, "hardware-counter", counter_us, "us per sample",
        COUNTER_US_PER_SAMPLE, counter_fraction, f", source={harness.source}",
    )

    kernel_records = records_from_profiler(
        "kernels_smoke",
        kernels.all_kernels,
        solver.profiler,
        block_shape=shape,
        options={"backend": BACKEND, "shape": list(shape)},
    )
    appended = history.extend(kernel_records)
    print(f"appended {appended} kernel record(s) to {history.path}")
    return writer


#: warm compile_cached must cost at most this fraction of the cold one
WARMSTART_RATIO = 0.20

_WARMSTART_PROBE = """\
import json, time
from quickstart import build_kernel
from repro.profiling import compile_cached, disk_cache_stats
kernel = build_kernel()[0]
t0 = time.perf_counter()
compile_cached(kernel, "c")
dt = time.perf_counter() - t0
s = disk_cache_stats()
print(json.dumps({"seconds": dt, "builds": s.builds, "hits": s.hits}))
"""


def _measure_codegen_warmstart(writer: BenchWriter, failures: list, warnings: list):
    """Warm-start gate: a second process compiles **zero** kernels.

    Two fresh subprocesses run the quickstart kernel config against a
    private disk cache: the first (cold) generates C and invokes the
    toolchain, the second (warm) must serve every kernel from disk —
    ``builds == 0`` — and spend at most ``WARMSTART_RATIO`` of the cold
    ``compile_cached`` wall.  Subprocesses (fork+exec) reset libgomp, so
    this is safe to run after in-parent OpenMP regions.
    """
    if BACKEND != "c":
        warnings.append("no C compiler; codegen warm-start gate skipped")
        return
    import json
    import subprocess
    import tempfile

    runs = []
    with tempfile.TemporaryDirectory() as td:
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(Path(td) / "kernel-cache")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(_REPO_ROOT / "src"), str(_REPO_ROOT / "examples")]
        )
        for tag in ("cold", "warm"):
            out = subprocess.run(
                [sys.executable, "-c", _WARMSTART_PROBE],
                capture_output=True, text=True, env=env, timeout=600,
            )
            if out.returncode != 0:
                failures.append(
                    f"codegen warm-start probe ({tag}) failed:\n"
                    f"{out.stderr.strip()[-2000:]}"
                )
                return
            runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    cold, warm = runs
    writer.add(
        "codegen_warmstart",
        params={"backend": BACKEND, "config": "quickstart"},
        codegen_seconds_cold=cold["seconds"],
        codegen_seconds_warm=warm["seconds"],
    )
    ratio = warm["seconds"] / cold["seconds"] if cold["seconds"] else 1.0
    print(
        f"codegen warm start: cold {cold['seconds'] * 1e3:.1f} ms "
        f"({cold['builds']} build(s)) -> warm {warm['seconds'] * 1e3:.1f} ms "
        f"({warm['builds']} build(s), {warm['hits']} disk hit(s), "
        f"ratio {ratio * 100:.1f}%, gate {WARMSTART_RATIO * 100:.0f}%)"
    )
    if cold["builds"] == 0:
        failures.append("codegen warm-start: cold process built nothing")
    if warm["builds"] != 0:
        failures.append(
            f"codegen warm-start: warm process compiled {warm['builds']} "
            f"kernel(s) — the persistent cache failed to serve them"
        )
    if warm["hits"] == 0:
        failures.append("codegen warm-start: warm process saw no disk hits")
    if ratio > WARMSTART_RATIO:
        failures.append(
            f"codegen warm-start: warm compile took {ratio * 100:.1f}% of the "
            f"cold one — above the {WARMSTART_RATIO * 100:.0f}% gate"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(_REPO_ROOT / "BENCH_scaling.json"))
    parser.add_argument(
        "--kernels-out", default=str(_REPO_ROOT / "BENCH_kernels.json"),
        help="where to write the per-kernel BENCH document",
    )
    parser.add_argument(
        "--history",
        default=str(_REPO_ROOT / "benchmarks" / "history" / "perf_history.jsonl"),
        help="append-only repro-perf/1 JSONL ledger",
    )
    parser.add_argument(
        "--skip-real", action="store_true",
        help="skip the process-backend measurements (simulator only)",
    )
    args = parser.parse_args(argv)

    params = make_two_phase_binary(dim=2)
    kernels = GrandPotentialModel(params).create_kernels()
    cells = int(np.prod(GLOBAL_SHAPE))
    cores = os.cpu_count() or 1

    measure_real = not args.skip_real and process_backend_available()
    real_sync: dict[int, float] = {}
    real_overlap: dict[int, float] = {}
    if measure_real:
        # ALL process-backend runs happen before any in-parent kernel run —
        # see the module docstring for the libgomp fork-safety rationale
        _precompile(kernels)
        for n_ranks in RANK_COUNTS:
            real_sync[n_ranks] = _measure_real(kernels, params, n_ranks, overlap=False)
            real_overlap[n_ranks] = _measure_real(kernels, params, n_ranks, overlap=True)

    writer = BenchWriter("scaling")
    base_mlups = None
    failures = []
    warnings = []
    for n_ranks in RANK_COUNTS:
        sync_s = _measure_sim(kernels, params, n_ranks, overlap=False)
        overlap_s = _measure_sim(kernels, params, n_ranks, overlap=True)
        mlups = cells * STEPS / sync_s / 1e6
        if base_mlups is None:
            base_mlups = mlups
        efficiency = mlups / base_mlups   # fixed global size: strong scaling
        metrics = {
            "mlups": mlups,
            "parallel_efficiency": efficiency,
            "step_seconds_sync": sync_s / STEPS,
            "step_seconds_overlap": overlap_s / STEPS,
        }
        if measure_real:
            speedup = real_sync[RANK_COUNTS[0]] / real_sync[n_ranks]
            metrics.update(
                step_seconds_real=real_sync[n_ranks] / STEPS,
                step_seconds_real_overlap=real_overlap[n_ranks] / STEPS,
                real_speedup=speedup,
                real_parallel_efficiency=speedup / n_ranks,
            )
        writer.add(
            f"fig3_smoke_ranks_{n_ranks}",
            params={
                "ranks": n_ranks,
                "domain": "x".join(map(str, GLOBAL_SHAPE)),
                "block": "x".join(map(str, BLOCK_SHAPE)),
                "steps": STEPS,
                "backend": BACKEND,
                "cores": cores,
            },
            **metrics,
        )
        gain = 1.0 - overlap_s / sync_s
        line = (f"ranks={n_ranks}: {mlups:.3f} MLUP/s, "
                f"efficiency {efficiency:.2f}, "
                f"step sync {sync_s / STEPS * 1e3:.2f} ms / "
                f"overlap {overlap_s / STEPS * 1e3:.2f} ms "
                f"(gain {gain * 100:+.1f}%)")
        if measure_real:
            line += (f", real {real_sync[n_ranks] / STEPS * 1e3:.2f} ms "
                     f"(speedup {metrics['real_speedup']:.2f}x)")
        print(line)
        allowed_s = sync_s * OVERLAP_HEADROOM + OVERLAP_SPLIT_MS * 1e-3 * STEPS
        if n_ranks > 1 and overlap_s > allowed_s:
            failures.append(
                f"ranks={n_ranks}: overlapped step "
                f"{overlap_s / STEPS * 1e3:.2f} ms exceeds synchronous "
                f"{sync_s / STEPS * 1e3:.2f} ms by more than "
                f"{(OVERLAP_HEADROOM - 1) * 100:.0f}% + {OVERLAP_SPLIT_MS} ms"
            )

    # flight-recorder gate: one more instrumented 1-rank run with the
    # recorder's own overhead and event counters snapshotted around it
    recorder = get_recorder()
    overhead_before = recorder.overhead_seconds
    events_before = recorder.events_recorded
    t0 = perf_counter()
    _measure_sim(kernels, params, 1, overlap=False)
    overhead_wall = perf_counter() - t0
    recorder_seconds = recorder.overhead_seconds - overhead_before
    overhead_fraction = recorder_seconds / overhead_wall
    recorder_us = recorder_seconds / max(recorder.events_recorded - events_before, 1) * 1e6
    recorder.publish_overhead()
    writer.add(
        "observability_overhead",
        params={
            "ranks": 1,
            "domain": "x".join(map(str, GLOBAL_SHAPE)),
            "steps": STEPS,
            "backend": BACKEND,
        },
        observability_overhead_fraction=overhead_fraction,
        recorder_us_per_event=recorder_us,
    )
    _gate_unit_cost(
        failures, "flight-recorder", recorder_us, "us per event",
        RECORDER_US_PER_EVENT, overhead_fraction,
    )

    # determinism-observatory gate: the fingerprint stream (digest + merge
    # + fsync'd ledger append) per byte it hashed
    fp_ns, fp_fraction, fp_records = _measure_fingerprint_overhead(kernels, params)
    writer.add(
        "fingerprint_overhead",
        params={
            "ranks": 1,
            "domain": "x".join(map(str, GLOBAL_SHAPE)),
            "steps": FINGERPRINT_STEPS,
            "every": FINGERPRINT_EVERY,
            "backend": BACKEND,
        },
        fingerprint_overhead_fraction=fp_fraction,
        fingerprint_ns_per_byte=fp_ns,
    )
    _gate_unit_cost(
        failures, "fingerprint", fp_ns, "ns per hashed byte",
        FINGERPRINT_NS_PER_BYTE, fp_fraction,
        f", {fp_records} record(s) at every={FINGERPRINT_EVERY} over "
        f"{FINGERPRINT_STEPS} steps",
    )

    if measure_real:
        top = RANK_COUNTS[-1]
        speedup = real_sync[RANK_COUNTS[0]] / real_sync[top]
        if cores >= top:
            if speedup <= REAL_SPEEDUP_FLOOR:
                failures.append(
                    f"real-parallel speedup at {top} ranks is {speedup:.2f}x "
                    f"on {cores} cores — below the {REAL_SPEEDUP_FLOOR}x floor"
                )
        elif speedup <= REAL_SPEEDUP_FLOOR:
            warnings.append(
                f"real-parallel speedup at {top} ranks is {speedup:.2f}x, but "
                f"only {cores} core(s) are available — floor of "
                f"{REAL_SPEEDUP_FLOOR}x not enforced"
            )
    elif not args.skip_real:
        warnings.append("process backend unavailable; real metrics skipped")

    # per-kernel smoke + counter-overhead gate + history append (must stay
    # after every process-backend run — libgomp fork hazard, see docstring)
    history = PerfLedger(args.history)
    kernels_writer = _kernels_smoke(kernels, params, history, failures)
    kernels_path = kernels_writer.write(args.kernels_out)
    print(f"wrote {kernels_path}")

    # ROADMAP item 3's acceptance probe: a second process running the
    # quickstart config compiles nothing (subprocesses are fork+exec —
    # no libgomp hazard)
    _measure_codegen_warmstart(writer, failures, warnings)

    # the scaling series also lands in the append-only history (bench-level
    # records: no kernel fingerprint, direction per metric name)
    scaling_records = [
        perf_record(
            "scaling_smoke",
            record["name"],
            record["metrics"],
            options=record["params"],
        )
        for record in writer.records
    ]
    print(f"appended {history.extend(scaling_records)} scaling record(s) "
          f"to {history.path}")

    path = writer.write(args.out)
    print(f"wrote {path}")
    for w in warnings:
        print(f"WARN: {w}", file=sys.stderr)
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
