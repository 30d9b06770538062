#!/usr/bin/env python3
"""The repo's step-time benchmark: seven workloads, three end-to-end metrics.

    python benchmarks/perf/run.py                     # all workloads, untraced
    python benchmarks/perf/run.py --trace             # … plus the traced pass
    python benchmarks/perf/run.py --repeat 2          # A/A: same code twice
    python benchmarks/perf/run.py --quick             # shrunk sizes, sanity check
    python benchmarks/perf/run.py --selftest
    python benchmarks/perf/run.py --workload tiny2d_block --seed 1 \
        --seconds 22 --trace 0                        # one workload, one JSON line

This process never imports ``repro`` and never runs a kernel: every
set-up repetition and the measuring run are fresh ``worker.py``
interpreters started with ``OMP_NUM_THREADS=1`` already in their
environment (libgomp reads it at its first ``dlopen``) and a private,
initially empty ``REPRO_CACHE_DIR``.  Names, units and bounds come from
``BENCHMARK.json``, which also names the three workloads the harness gates;
the suite modes run all seven of ``workloads.py``.  README.md explains every
number.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))

from host import host_block  # noqa: E402
from spans import chrome_trace, self_time_table  # noqa: E402
from workloads import SIBLING, WORKLOADS, not_applicable  # noqa: E402

OUT = HERE / "_out"
#: an invocation must end within the harness's 180 s; stop starting work here
INVOCATION_BUDGET_S = 165.0
WORKER_TIMEOUT_S = 120.0
#: cold set-up repetitions: at most this many fresh processes, and no further
#: one once those before it took this long together (P1 gets one)
SETUP_REPS = 3
SETUP_BUDGET_S = 6.0
#: samples counted as failed when a worker dies before reporting any
FAILED_SAMPLES = 20
QUICK_SECONDS = 0.5
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


# -- starting workers -----------------------------------------------------------------


class Invocation:
    """One workload run: its scratch directory, deadline and worker launches."""

    def __init__(self, workload: str, seed: int, seconds: float, quick: bool,
                 inject_fault: bool = False):
        self.workload, self.seed, self.seconds, self.quick = workload, seed, seconds, quick
        self.inject_fault = inject_fault
        self.deadline = time.monotonic() + INVOCATION_BUDGET_S
        self.work = OUT / f"work-{os.getpid()}-{workload}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.launches = 0
        self.failures: list[str] = []

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def start(self, mode: str, cache: Path, *extra: str,
              seconds: float | None = None) -> "Worker":
        self.launches += 1
        return Worker(self, mode, cache, extra, self.seconds if seconds is None else seconds)

    def worker(self, mode: str, cache: Path, *extra: str,
               seconds: float | None = None) -> dict | None:
        """Run one worker to completion; its result, or ``None`` if it failed."""
        return self.start(mode, cache, *extra, seconds=seconds).finish()


class Worker:
    """One started ``worker.py`` process.

    It gets its own session so that a hard timeout takes its forked ranks
    down with it; its ``faulthandler`` dumps and any failure go into the
    invocation's failure list.
    """

    def __init__(self, inv: Invocation, mode: str, cache: Path, extra: tuple, seconds: float):
        self.inv, self.mode = inv, mode
        self.scratch = inv.work / f"w{inv.launches}-{mode}"
        (self.scratch / "tmp").mkdir(parents=True)
        self.result_path = self.scratch / "result.json"
        env = dict(os.environ)
        env.update(
            OMP_NUM_THREADS="1",
            # the 3-D µ kernel's IR, and with it its cache key, depends on
            # the string-hash seed — README, "Findings"
            PYTHONHASHSEED="0",
            REPRO_CACHE_DIR=str(cache),
            TMPDIR=str(self.scratch / "tmp"),
        )
        command = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", inv.workload, "--mode", mode, "--seed", str(inv.seed),
            "--seconds", str(seconds),
            "--work", str(self.scratch), "--result", str(self.result_path),
            "--watchdog", str(WORKER_TIMEOUT_S - 10), *extra,
        ]
        if inv.quick:
            command.append("--quick")
        self.deadline = min(time.monotonic() + WORKER_TIMEOUT_S, inv.deadline)
        self.spawned = time.monotonic()
        self.process = subprocess.Popen(
            command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            env=env, start_new_session=True, cwd=str(REPO),
        )

    def finish(self) -> dict | None:
        inv, mode, process = self.inv, self.mode, self.process
        timeout = self.deadline - time.monotonic()
        try:
            _, stderr = process.communicate(timeout=max(timeout, 0.0))
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            _, stderr = process.communicate()
            inv.failures.append(f"{mode}: killed at its deadline")
        finally:
            # a rank that outlived its worker must not outlive the benchmark
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        for dump in sorted(self.scratch.glob("watchdog*.txt")):
            if dump.stat().st_size:
                inv.failures.append(f"{mode}: {dump.name}:\n{dump.read_text()}")
        if not self.result_path.exists():
            tail = stderr.decode(errors="replace")[-2000:]
            inv.failures.append(f"{mode}: no result (exit {process.returncode})\n{tail}")
            return None
        result = json.loads(self.result_path.read_text())
        if "error" in result:
            inv.failures.append(f"{mode}: {result['error']}")
            return None
        return result


# -- one workload ---------------------------------------------------------------------


def merged_samples(result: dict, key: str = "window") -> list[float]:
    """Per sample, the slowest rank."""
    return [max(column) for column in zip(*(r[key]["samples"] for r in result["ranks"]))]


def quiet_ms(samples: list[float]) -> float:
    """The gated step time: the fastest sample (see README, "Why the minimum")."""
    return min(samples) * 1e3


def window_mlups(result: dict) -> float:
    """Every step of the window over its whole wall, barriers included."""
    window = result["ranks"][0]["window"]
    return result["cells"] * window["steps"] / window["wall"] / 1e6


def check_problems(result: dict) -> list[str]:
    problems = []
    for r in result["ranks"]:
        problems += r["check"]["problems"] + r["check"]["final_problems"]
        if r["omp_threads"] != 1:
            problems.append(
                f"rank {r['rank']}: {r['omp_threads']} effective OpenMP threads, not 1"
            )
    return problems


def failed_outcome(detail: dict) -> dict:
    """A worker died or timed out: every sample of the workload counts as failed."""
    return {"correct": False, "attempted": FAILED_SAMPLES, "failed": FAILED_SAMPLES,
            "metrics": {}, "detail": detail}


def ready_s(started: Worker, result: dict) -> float:
    """Worker launch → first step returned on every rank."""
    return max(r["t_ready"] for r in result["ranks"]) - started.spawned


def run_untraced(inv: Invocation) -> dict:
    """Cold set-ups, each on an empty cache, then the window in a warm process."""
    cold, cold_result = [], None
    while len(cold) < (1 if inv.quick else SETUP_REPS) and sum(cold) < SETUP_BUDGET_S:
        started = inv.start("setup", inv.work / f"cache{len(cold)}")
        cold_result = started.finish()
        if cold_result is None:
            break
        cold.append(ready_s(started, cold_result))
    detail = {"setup_cold_s": cold, "failures": inv.failures}
    if cold_result is None:
        return failed_outcome(detail)
    measuring = inv.start("measure", inv.work / "cache0",
                          *(["--inject-fault"] if inv.inject_fault else []))
    result = measuring.finish()
    if result is None:
        return failed_outcome(detail)

    samples = merged_samples(result)
    problems = check_problems(result)
    detail.update(
        setup_warm_s=ready_s(measuring, result),
        samples=len(samples),
        steps_per_sample=result["steps_per_sample"],
        median_ms=statistics.median(samples) * 1e3,
        p90_ms=statistics.quantiles(samples, n=10)[-1] * 1e3,
        window_mlups=window_mlups(result),
        omp_threads=[r["omp_threads"] for r in result["ranks"]],
        disk=result["disk"],
        cold_disk=cold_result["disk"],
        check=result["ranks"][0]["check"]["reference"],
        problems=problems,
    )
    return {
        "correct": not problems and not inv.failures,
        "attempted": len(samples),
        "failed": len(samples) if (problems or inv.failures) else 0,
        "metrics": {
            "step_ms": quiet_ms(samples),
            "setup_s": statistics.median(cold),
            "peak_rss_mb": sum(r["rss_mb"] for r in result["ranks"]),
        },
        "detail": detail,
    }


def merge_layers(per_rank: list[dict]) -> dict:
    """One value per metric: counts add up, rates take the slowest rank."""
    merged = {}
    for name in per_rank[0]:
        values = [r[name] for r in per_rank]
        if name in ("parallel.msgs_per_step", "parallel.bytes_per_step"):
            merged[name] = sum(values)
        elif "mlups" in name or name == "host.copy_gbs":
            merged[name] = min(values)
        else:
            merged[name] = max(values)
    return merged


def run_traced(inv: Invocation) -> dict:
    """The traced pass: per-layer metrics, a Chrome trace, a self-time table."""
    w = WORKLOADS[inv.workload]
    cache = inv.work / "cache"
    cold = inv.worker("trace-cold", cache)
    warm_worker = inv.start("trace", cache)
    warm = warm_worker.finish()
    comm = inv.worker("commbench", cache)
    detail = {"failures": inv.failures}
    if cold is None or warm is None or comm is None:
        return failed_outcome(detail)

    layers = merge_layers([r["layers"] for r in warm["ranks"]])
    layers.update(comm)
    layers.update(cold["codegen"])
    layers.pop("profiling.compile_ms")
    layers["profiling.compile_warm_ms"] = warm["codegen"]["profiling.compile_ms"]
    layers["profiling.disk_builds"] = cold["disk"]["builds"]
    layers["profiling.disk_hits"] = warm["disk"]["hits"]
    layers["setup_warm_s"] = ready_s(warm_worker, warm)
    for kernel in ("phi", "phi_project", "mu"):
        layers[f"backends.kernel_bw_frac.{kernel}"] = (
            layers[f"perfmodel.bytes_per_lup.{kernel}"]
            * layers[f"backends.kernel_mlups.{kernel}"] * 1e6
            / (layers["host.copy_gbs"] * 1e9)
        )

    untraced = merged_samples(warm)
    traced = merged_samples(warm, "traced_window")
    step_ms = quiet_ms(untraced)
    layers["bench.trace_overhead"] = quiet_ms(traced) / step_ms
    layers["bench.window_mlups"] = window_mlups(warm)

    # ratios against a second, short run of a neighbouring configuration; a
    # failed one leaves its ratio unmeasured (run_workload reports it)
    def neighbour_ms(*flags: str) -> float | None:
        result = inv.worker("measure", cache, *flags, seconds=inv.seconds / 2)
        return None if result is None else quiet_ms(merged_samples(result))

    if w.ranks:
        own = [r["window"]["own"] for r in warm["ranks"]]
        layers["parallel.imbalance"] = statistics.median(
            max(column) / statistics.fmean(column) for column in zip(*own)
        )
        one_rank = neighbour_ms("--ranks", "1")
        if one_rank is not None:
            layers["parallel.rank_speedup"] = one_rank / step_ms
    if inv.workload in SIBLING:
        other = neighbour_ms("--flip-overlap")
        if other is not None:
            sync, overlap = (other, step_ms) if w.overlap else (step_ms, other)
            layers["parallel.overlap_gain"] = sync / overlap
    if w.observed:
        bare = neighbour_ms("--bare")
        if bare is not None:
            layers["observability.tax_ratio"] = step_ms / bare
        steps = sum(
            warm["ranks"][0][key]["steps"] for key in ("window", "traced_window")
        ) + w.check_steps
        layers["observability.rundir_bytes"] = warm["rundir_bytes"] / steps

    spans = {f"rank{r['rank']}": r["spans"] for r in warm["ranks"]}
    spans["setup-warm"] = warm["setup_spans"]
    spans["setup-cold"] = cold["setup_spans"]
    trace_dir = OUT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{inv.workload}.trace.json"
    table_path = trace_dir / f"{inv.workload}.selftime.txt"
    trace_path.write_text(json.dumps(chrome_trace(spans)))
    table_path.write_text(
        self_time_table(spans, warm["ranks"][0]["traced_window"]["steps"])
    )

    problems = check_problems(warm)
    detail.update(problems=problems, trace=str(trace_path.relative_to(REPO)),
                  self_time=str(table_path.relative_to(REPO)), samples=len(traced))
    return {
        "correct": not problems and not inv.failures,
        "attempted": len(untraced) + len(traced),
        "failed": len(untraced) + len(traced) if (problems or inv.failures) else 0,
        "metrics": layers,
        "detail": detail,
    }


def run_workload(contract: dict, workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False, inject_fault: bool = False) -> dict:
    """Run one workload; the result's ``metrics`` follow ``BENCHMARK.json``."""
    inv = Invocation(workload, seed, seconds, quick, inject_fault)
    host = host_block()
    try:
        outcome = run_traced(inv) if trace else run_untraced(inv)
    finally:
        inv.close()
    declared = contract["per_layer" if trace else "end_to_end"]
    measured = outcome["metrics"]
    # the harness wants a number for every declared metric: a layer the
    # workload does not run reads 0 and is listed as not applicable; one that
    # should have been measured and was not is left out and fails the run
    skipped = not_applicable(WORKLOADS[workload]) if trace else set()
    outcome["metrics"] = {
        m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
        for m in declared if m["name"] in measured or m["name"] in skipped
    }
    missing = [m["name"] for m in declared if m["name"] not in outcome["metrics"]]
    if missing:
        outcome["correct"] = False
        outcome["failed"] = outcome["attempted"]
        outcome["detail"]["failures"].append(f"metrics not measured: {missing}")
    outcome["detail"].update(
        host=host, workload=workload, seed=seed, quick=quick,
        not_applicable=sorted(skipped),
        extra={k: v for k, v in measured.items() if k not in outcome["metrics"]},
    )
    return outcome


# -- printing -------------------------------------------------------------------------


def print_outcome(outcome: dict, trace: bool) -> None:
    detail = outcome["detail"]
    host = detail["host"]
    label = " (QUICK: sizes shrunk, numbers not comparable)" if detail["quick"] else ""
    print(f"== {detail['workload']}  seed {detail['seed']}{label}")
    print(f"   host: {host['nproc']} x {host['cpu']}, L2 {host['l2']}, L3 {host['l3']}; "
          f"{host['compiler']}; python {host['python']}, numpy {host['numpy']}, "
          f"sympy {host['sympy']}; load {host['load1']:.2f}"
          f"{' NOISY' if host['noisy'] else ''}")
    for name, m in outcome["metrics"].items():
        if name in detail["not_applicable"]:
            print(f"   {name:42s} {'n/a':>14s}")
        else:
            print(f"   {name:42s} {m['value']:14.6g} {m['unit']}")
    if not trace and "samples" in detail:
        print(f"   step_ms is the fastest of {detail['samples']} samples of "
              f"{detail['steps_per_sample']} step(s); median {detail['median_ms']:.4f} ms, "
              f"p90 {detail['p90_ms']:.4f} ms, window throughput "
              f"{detail['window_mlups']:.3f} MLUP/s (not gated)")
        print(f"   set-ups: cold {[round(t, 3) for t in detail['setup_cold_s']]} s, "
              f"warm (the measuring process, not gated) {detail['setup_warm_s']:.3f} s; "
              f"OpenMP threads per rank {detail['omp_threads']}; "
              f"disk cache cold {detail['cold_disk']}, warm {detail['disk']}")
        print(f"   output check: {detail['check']}")
    if trace and "trace" in detail:
        print(f"   trace: {detail['trace']}   self times: {detail['self_time']}")
    for problem in detail.get("problems", []) + detail["failures"]:
        print(f"   FAILED: {problem}")
    rate = outcome["failed"] / outcome["attempted"]
    print(f"   error_rate {rate:g} ({outcome['failed']} of {outcome['attempted']} samples)")


def contract_line(outcome: dict) -> str:
    return json.dumps({k: outcome[k] for k in ("correct", "attempted", "failed", "metrics")})


# -- suite modes ----------------------------------------------------------------------


def run_suite(contract: dict, args, trace: bool) -> dict[str, dict]:
    """All seven workloads, the four the harness does not gate included."""
    outcomes = {}
    seconds = QUICK_SECONDS if args.quick else args.seconds
    for name in WORKLOADS:
        outcome = run_workload(contract, name, args.seed, seconds, trace, args.quick)
        print_outcome(outcome, trace)
        outcomes[name] = outcome
    return outcomes


def compare_repeats(contract: dict, passes: list[dict]) -> bool:
    """A/A table: both medians, their relative difference, the bound.

    Only the workloads ``BENCHMARK.json`` names decide the result; the others
    are shown (README, "Why the harness gates three …").
    """
    ok = True
    gated = {w["name"] for w in contract["workloads"]}
    print(f"\n{'workload':26s} {'metric':14s} {'first':>12s} {'second':>12s} "
          f"{'diff':>8s} {'bound':>7s}")
    for name in WORKLOADS:
        for m in contract["end_to_end"]:
            values = [p[name]["metrics"][m["name"]]["value"] for p in passes]
            first = statistics.median(values[: len(values) // 2])
            second = statistics.median(values[len(values) // 2:])
            diff = abs(second - first) / first if first else float("inf")
            flag = "" if diff <= m["bound"] else "  EXCEEDS"
            if name in gated:
                ok &= diff <= m["bound"]
            elif flag:
                flag += " (not gated)"
            print(f"{name:26s} {m['name']:14s} {first:12.5g} {second:12.5g} "
                  f"{diff:8.2%} {m['bound']:7.0%}{flag}")
    return ok


EXACT_COUNTS = re.compile(
    r"^(ir\.nodes\.|perfmodel\.|parallel\.(msgs|bytes)_per_step$|profiling\.disk_builds$)"
)


def selftest(contract: dict, args) -> bool:
    """Names well-formed, output complete, exact counts identical twice."""
    args.quick = True
    ok = True
    names = [w["name"] for w in contract["workloads"]] + [
        m["name"] for m in contract["end_to_end"] + contract["per_layer"]
    ]
    for name in names:
        if not NAME_RE.match(name):
            print(f"selftest: bad name {name!r}")
            ok = False
    if len(set(names)) != len(names):
        print("selftest: a name is used twice")
        ok = False
    if not {w["name"] for w in contract["workloads"]} <= set(WORKLOADS):
        print("selftest: BENCHMARK.json names a workload that workloads.py does not have")
        ok = False
    untraced = run_suite(contract, args, trace=False)
    traced = [run_suite(contract, args, trace=True) for _ in range(2)]
    # a metric that was not measured makes its outcome incorrect (run_workload)
    for outcomes in (untraced, *traced):
        for workload, outcome in outcomes.items():
            if not outcome["correct"]:
                print(f"selftest: {workload}: {outcome['detail']['failures']}")
                ok = False
    for workload in traced[0]:
        for name, m in traced[0][workload]["metrics"].items():
            again = traced[1][workload]["metrics"][name]["value"]
            if EXACT_COUNTS.match(name) and m["value"] != again:
                print(f"selftest: {workload} {name}: {m['value']} != {again}")
                ok = False
    print("selftest:", "ok" if ok else "FAILED")
    return ok


def record_reference(args) -> None:
    """Freeze the NumPy single-block summaries for seeds 0 and 1."""
    reference = {"schema": "perf-reference/1", "rtol": 1e-9, "workloads": {}}
    for name in WORKLOADS:
        entry = None
        for seed in (0, 1):
            inv = Invocation(name, seed, 0.0, quick=False)
            try:
                result = inv.worker("reference", inv.work / "cache")
            finally:
                inv.close()
            if result is None:
                raise SystemExit(f"reference run failed: {inv.failures}")
            entry = entry or {"check_steps": result["check_steps"],
                              "shape": result["shape"], "seeds": {}}
            entry["seeds"][str(seed)] = result["summary"]
            print(f"recorded {name} seed {seed}: {result['summary']}")
        reference["workloads"][name] = entry
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--inject-fault", action="store_true",
                        help="test hook: corrupt the state before the output check")
    args = parser.parse_args(argv)

    if not (REPO / "src" / "repro").is_dir() or not (REPO / "BENCHMARK.json").is_file():
        print(f"run.py: no program to measure under {REPO}", file=sys.stderr)
        return 2
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])

    if args.record_reference:
        record_reference(args)
        return 0
    if args.selftest:
        return 0 if selftest(contract, args) else 1
    if args.workload:
        seconds = QUICK_SECONDS if args.quick else args.seconds
        outcome = run_workload(contract, args.workload, args.seed, seconds,
                               bool(args.trace), args.quick, args.inject_fault)
        print_outcome(outcome, bool(args.trace))
        print(contract_line(outcome))
        return 0 if outcome["correct"] else 1

    passes = [run_suite(contract, args, trace=False) for _ in range(args.repeat)]
    ok = all(o["correct"] for p in passes for o in p.values())
    if args.repeat > 1:
        ok &= compare_repeats(contract, passes)
    if args.trace:
        ok &= all(o["correct"] for o in run_suite(contract, args, trace=True).values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
