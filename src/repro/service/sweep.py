"""Batch/sweep driver: N scenarios across workers sharing the warm cache.

A *sweep* is the ternary-eutectic-study workload (Hötzer et al. 2015):
many parameter/geometry/model combinations of one phase-field model, run
as a batch.  The driver forks a small worker pool; each worker pulls
scenario specs from a queue, builds the model, compiles its kernels
through :func:`repro.profiling.compile_cached` — where the persistent
disk tier (:mod:`repro.profiling.diskcache`) turns every kernel after the
first build into a ``dlopen``, regardless of which process compiled it —
runs the solver with diagnostics + health monitoring into a per-scenario
:class:`~repro.observability.rundir.RunDir`, and reports a summary.

The parent process never runs a kernel (libgomp does not survive a fork
from a process that already entered an OpenMP region), samples the
task-queue depth, and writes one merged ``sweep.json`` manifest
(schema ``repro-sweep/1``) that ``tools/run_report.py`` renders as a
sweep report and ``tools/check_observability.py SWEEPDIR`` validates in
CI.

Scenario specs are plain dicts on the wire (JSON in, JSON out), so a
sweep can be driven from a file::

    python -m repro.service.sweep --specs sweep.json --out sweepdir
    python -m repro.service.sweep --demo 4 --out sweepdir --workers 2
"""

from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..observability.log import get_logger, kv

__all__ = [
    "SWEEP_SCHEMA",
    "ScenarioSpec",
    "demo_specs",
    "load_sweep_manifest",
    "run_scenario",
    "run_sweep",
]

SWEEP_SCHEMA = "repro-sweep/1"

_log = get_logger("service.sweep")

#: model factories a spec may name; each returns ModelParameters
_MODELS = ("binary2", "p1", "p2")


@dataclass
class ScenarioSpec:
    """One scenario of a sweep: model × geometry × parameter overrides."""

    name: str
    model: str = "binary2"
    dim: int = 2
    shape: tuple[int, ...] = (32, 32)
    steps: int = 20
    backend: str = "auto"
    boundary: str = "neumann"
    seed: int = 0
    #: ``{field: value}`` applied to the ModelParameters; the special key
    #: ``undercooling`` maps to ``temperature = constant(1 - value)``
    overrides: dict = field(default_factory=dict)
    diagnostics_every: int = 1

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ValueError(f"unknown model {self.model!r}; choose from {_MODELS}")
        self.shape = tuple(int(s) for s in self.shape)
        if len(self.shape) != self.dim:
            raise ValueError(
                f"shape {self.shape} must have dim={self.dim} entries"
            )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "model": self.model,
            "dim": self.dim,
            "shape": list(self.shape),
            "steps": self.steps,
            "backend": self.backend,
            "boundary": self.boundary,
            "seed": self.seed,
            "overrides": dict(self.overrides),
            "diagnostics_every": self.diagnostics_every,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        known = {
            "name", "model", "dim", "shape", "steps", "backend",
            "boundary", "seed", "overrides", "diagnostics_every",
        }
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        spec = dict(d)
        if "shape" in spec:
            spec["shape"] = tuple(spec["shape"])
        return cls(**spec)

    # -- model construction ----------------------------------------------------

    def build_parameters(self):
        from ..pfm.parameters import make_p1, make_p2, make_two_phase_binary
        from ..pfm.temperature import constant_temperature

        if self.model == "binary2":
            params = make_two_phase_binary(dim=self.dim)
        elif self.model == "p1":
            params = make_p1(dim=self.dim)
        else:
            params = make_p2(dim=self.dim)
        for key, value in self.overrides.items():
            if key == "undercooling":
                params.temperature = constant_temperature(1.0 - float(value))
            elif hasattr(params, key):
                setattr(params, key, value)
            else:
                raise ValueError(
                    f"scenario {self.name!r}: ModelParameters has no field "
                    f"{key!r} (and it is not 'undercooling')"
                )
        return params


def _resolve_backend(requested: str) -> str:
    if requested != "auto":
        return requested
    from ..backends.c_backend import c_compiler_available

    return "c" if c_compiler_available() else "numpy"


def run_scenario(spec: ScenarioSpec, rundir_path, backend: str | None = None) -> dict:
    """Execute one scenario into *rundir_path*; returns a summary dict.

    The summary carries everything the sweep manifest needs: status, wall
    and codegen seconds, throughput, the memory/disk cache deltas this
    scenario caused in *this* process, and the health-event count.
    """
    from ..observability.health import HealthMonitor
    from ..observability.rundir import RunDir
    from ..pfm.initialize import planar_front
    from ..pfm.model import GrandPotentialModel
    from ..pfm.solver import SingleBlockSolver
    from ..profiling import disk_cache_stats, kernel_cache_stats

    backend = _resolve_backend(backend or spec.backend)
    params = spec.build_parameters()
    mem0, disk0 = kernel_cache_stats(), disk_cache_stats()
    t_start = time.perf_counter()
    with RunDir(rundir_path, config=spec.to_dict()) as rundir:
        health = HealthMonitor(policy="record")
        t0 = time.perf_counter()
        kernel_set = GrandPotentialModel(params).create_kernels()
        solver = SingleBlockSolver(
            kernel_set,
            spec.shape,
            boundary=spec.boundary,
            seed=spec.seed,
            backend=backend,
            health=health,
            rundir=rundir,
        )
        codegen_seconds = time.perf_counter() - t0
        phi = planar_front(
            spec.shape,
            params.n_phases,
            solid_phase=0,
            liquid_phase=params.liquid_phase,
            position=0.25 * spec.shape[0] * params.dx,
            epsilon=params.epsilon,
            dx=params.dx,
        )
        solver.set_state(phi, mu=0.0)
        series = solver.enable_diagnostics(every=spec.diagnostics_every)
        t1 = time.perf_counter()
        solver.step(spec.steps)
        step_seconds = time.perf_counter() - t1
        rundir.note(sweep_scenario=spec.name)
    mem1, disk1 = kernel_cache_stats(), disk_cache_stats()
    cells = int(np.prod(spec.shape))
    last = series.last() or {}
    return {
        "name": spec.name,
        "status": "ok",
        "backend": backend,
        "pid": os.getpid(),
        "wall_seconds": time.perf_counter() - t_start,
        "codegen_seconds": codegen_seconds,
        "step_seconds": step_seconds,
        "steps": spec.steps,
        "cells": cells,
        "cell_updates": cells * spec.steps,
        "mlups": cells * spec.steps / step_seconds / 1e6 if step_seconds else 0.0,
        "cache": {
            "memory_hits": mem1.hits - mem0.hits,
            "memory_misses": mem1.misses - mem0.misses,
            "disk_hits": disk1.hits - disk0.hits,
            "disk_misses": disk1.misses - disk0.misses,
            "disk_builds": disk1.builds - disk0.builds,
            "ir_hits": disk1.ir_hits - disk0.ir_hits,
            "ir_derivations": disk1.ir_derivations - disk0.ir_derivations,
        },
        "health_events": len(health.events),
        "diagnostics_rows": len(series),
        "final": {k: v for k, v in last.items() if isinstance(v, (int, float))},
        "rundir": str(rundir_path),
    }


# -- worker pool ---------------------------------------------------------------


def _worker_main(worker_id, task_queue, result_queue, payloads, runs_dir, backend):
    """Worker loop: pull scenario indices until the ``None`` sentinel."""
    while True:
        idx = task_queue.get()
        if idx is None:
            return
        spec = ScenarioSpec.from_dict(payloads[idx])
        result_queue.put(("start", idx, os.getpid()))
        try:
            summary = run_scenario(spec, Path(runs_dir) / spec.name, backend)
            result_queue.put(("done", idx, summary))
        except Exception:
            result_queue.put(("error", idx, traceback.format_exc(limit=20)))


def run_sweep(
    specs,
    sweep_dir,
    workers: int = 2,
    backend: str | None = None,
) -> dict:
    """Run *specs* across a forked worker pool; returns the sweep manifest.

    Scenario RunDirs land under ``<sweep_dir>/runs/<name>``; the merged
    manifest — per-scenario summaries, this sweep's totals (outcomes, cache
    hits and builds, throughput) and the queue-depth samples — is written
    to ``<sweep_dir>/sweep.json``.  Workers fork *before* any kernel runs
    in the parent, so OpenMP state never crosses the fork.  A worker that
    dies mid-scenario (OOM, kill) is detected and its scenario recorded
    as failed; remaining scenarios keep flowing to the surviving workers.
    """
    import multiprocessing as mp

    specs = [s if isinstance(s, ScenarioSpec) else ScenarioSpec.from_dict(s) for s in specs]
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"scenario names must be unique, got {names}")
    workers = max(1, min(int(workers), len(specs))) if specs else 1

    sweep_dir = Path(sweep_dir)
    runs_dir = sweep_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    payloads = [s.to_dict() for s in specs]

    ctx = mp.get_context("fork")
    task_queue: mp.Queue = ctx.Queue()
    result_queue: mp.Queue = ctx.Queue()
    for idx in range(len(specs)):
        task_queue.put(idx)
    for _ in range(workers):
        task_queue.put(None)

    t_sweep = time.perf_counter()
    procs = [
        ctx.Process(
            target=_worker_main,
            args=(w, task_queue, result_queue, payloads, str(runs_dir), backend),
            daemon=True,
        )
        for w in range(workers)
    ]
    for p in procs:
        p.start()
    _log.info(kv("sweep_started", scenarios=len(specs), workers=workers))

    results: dict[int, dict] = {}
    errors: dict[int, str] = {}
    started: dict[int, int] = {}  # idx -> worker pid
    queue_depth_samples: list[dict] = []
    last_sample = 0.0

    def accounted() -> int:
        return len(results) + len(errors)

    import queue as queue_mod

    while accounted() < len(specs):
        now = time.perf_counter()
        if now - last_sample >= 0.1:  # one queue-depth sample per 0.1 s
            try:
                depth = task_queue.qsize()
            except NotImplementedError:  # pragma: no cover - macOS
                depth = -1
            queue_depth_samples.append(
                {"t": round(now - t_sweep, 4), "depth": max(0, depth - workers)}
            )
            last_sample = now
        try:
            msg = result_queue.get(timeout=0.05)
        except queue_mod.Empty:
            if not any(p.is_alive() for p in procs):
                # drain anything posted between the last get and death
                try:
                    while True:
                        msg = result_queue.get_nowait()
                        _dispatch(msg, results, errors, started)
                except queue_mod.Empty:
                    pass
                break
            continue
        _dispatch(msg, results, errors, started)

    for p in procs:
        p.join(timeout=5.0)
        if p.is_alive():  # pragma: no cover - stuck worker
            p.terminate()

    # scenarios a dead worker started but never finished: explicit failures
    for idx, pid in started.items():
        if idx not in results and idx not in errors:
            errors[idx] = f"worker pid {pid} died mid-scenario"
    # scenarios never started because the whole pool died
    for idx in range(len(specs)):
        if idx not in results and idx not in errors:
            errors[idx] = "worker pool exited before this scenario started"

    # record scenario rundirs relative to the sweep dir: the manifest must
    # stay valid when the whole directory is moved or uploaded as an artifact
    # (check_observability and run_report join relative paths onto sweep_dir)
    for summary in results.values():
        try:
            rel = Path(summary["rundir"]).resolve().relative_to(sweep_dir.resolve())
            summary["rundir"] = str(rel)
        except (KeyError, ValueError):
            pass

    wall = time.perf_counter() - t_sweep
    manifest = _merge(specs, results, errors, queue_depth_samples, wall, workers, backend)
    manifest_path = sweep_dir / "sweep.json"
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle, indent=2, default=repr)
        handle.write("\n")
    _log.info(
        kv(
            "sweep_finished",
            ok=manifest["totals"]["ok"],
            failed=manifest["totals"]["failed"],
            wall=round(wall, 3),
            disk_hits=manifest["totals"]["disk_hits"],
        )
    )
    return manifest


def _dispatch(msg, results, errors, started) -> None:
    kind, idx = msg[0], msg[1]
    if kind == "start":
        started[idx] = msg[2]
    elif kind == "done":
        results[idx] = msg[2]
    elif kind == "error":
        errors[idx] = msg[2]


def _merge(specs, results, errors, queue_depth_samples, wall, workers, backend) -> dict:
    scenarios = []
    totals = {
        "ok": 0,
        "failed": 0,
        "wall_seconds": wall,
        "codegen_seconds": 0.0,
        "cell_updates": 0,
        "memory_hits": 0,
        "memory_misses": 0,
        "disk_hits": 0,
        "disk_misses": 0,
        "disk_builds": 0,
        "ir_hits": 0,
        "ir_derivations": 0,
        "health_events": 0,
    }
    for idx, spec in enumerate(specs):
        entry = {"spec": spec.to_dict()}
        summary = results.get(idx)
        if summary is not None:
            entry.update(summary)
            totals["ok"] += 1
            totals["codegen_seconds"] += summary["codegen_seconds"]
            totals["cell_updates"] += summary["cell_updates"]
            totals["health_events"] += summary["health_events"]
            for k in ("memory_hits", "memory_misses", "disk_hits",
                      "disk_misses", "disk_builds", "ir_hits", "ir_derivations"):
                totals[k] += summary["cache"][k]
        else:
            entry["name"] = spec.name
            entry["status"] = "failed"
            entry["error"] = errors.get(idx, "unknown")
            totals["failed"] += 1
        scenarios.append(entry)
    totals["throughput_mlups"] = (
        totals["cell_updates"] / wall / 1e6 if wall > 0 else 0.0
    )
    return {
        "schema": SWEEP_SCHEMA,
        "workers": workers,
        "backend": backend or "auto",
        "wall_seconds": wall,
        "scenarios": scenarios,
        "totals": totals,
        "queue_depth_samples": queue_depth_samples,
    }


def load_sweep_manifest(path) -> dict:
    """Load and schema-check a ``sweep.json`` manifest."""
    path = Path(path)
    if path.is_dir():
        path = path / "sweep.json"
    with open(path) as handle:
        manifest = json.load(handle)
    if manifest.get("schema") != SWEEP_SCHEMA:
        raise ValueError(
            f"{path}: schema is {manifest.get('schema')!r}, expected {SWEEP_SCHEMA!r}"
        )
    return manifest


def demo_specs(n: int = 4, steps: int = 10, shape=(24, 24)) -> list[ScenarioSpec]:
    """A small undercooling sweep (the parameter-study workload in miniature)."""
    return [
        ScenarioSpec(
            name=f"dT{round(0.1 + 0.1 * i, 1)}",
            model="binary2",
            shape=tuple(shape),
            steps=steps,
            seed=i,
            overrides={"undercooling": round(0.1 + 0.1 * i, 1)},
        )
        for i in range(n)
    ]


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--specs", help="JSON file: list of scenario spec dicts")
    parser.add_argument("--demo", type=int, metavar="N",
                        help="run an N-scenario demo undercooling sweep")
    parser.add_argument("--out", required=True, help="sweep output directory")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--backend", default=None,
                        help="force a backend (default: per-spec / auto)")
    parser.add_argument("--steps", type=int, default=10, help="demo steps")
    args = parser.parse_args(argv)

    if bool(args.specs) == bool(args.demo):
        parser.error("exactly one of --specs / --demo is required")
    if args.specs:
        with open(args.specs) as handle:
            specs = [ScenarioSpec.from_dict(d) for d in json.load(handle)]
    else:
        specs = demo_specs(args.demo, steps=args.steps)

    manifest = run_sweep(specs, args.out, workers=args.workers, backend=args.backend)
    totals = manifest["totals"]
    print(
        f"sweep: {totals['ok']} ok, {totals['failed']} failed in "
        f"{totals['wall_seconds']:.2f}s — disk cache {totals['disk_hits']} hits / "
        f"{totals['disk_builds']} builds, {totals['throughput_mlups']:.2f} MLUP/s"
    )
    return 1 if totals["failed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
