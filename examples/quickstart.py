#!/usr/bin/env python3
"""Quickstart: from a free-energy functional to a running simulation.

Walks the paper's full abstraction stack on the simplest meaningful model —
two-phase mean curvature flow (Allen-Cahn):

1. write the energy functional  Ψ = ∫ ε a(φ,∇φ) + ω(φ)/ε  dV,
2. derive the evolution PDE by variational derivative,
3. discretize automatically (second-order staggered finite differences),
4. generate an optimized kernel and run it with the NumPy backend,
5. observe the physics: a circular inclusion shrinks under its curvature,
   dR²/dt = const — the "mean curvature flow" benchmark of §3.1.

Also prints the generated C code so you can see what the backend emits.

Run:  python examples/quickstart.py

Observability (the paper's production-monitoring story, §4):

    python examples/quickstart.py --trace trace.json --metrics metrics.prom

emits a Chrome-trace of the whole pipeline (load ``trace.json`` in
``chrome://tracing`` or https://ui.perfetto.dev) and a Prometheus
text-format metrics snapshot; ``--health`` turns on the NaN/bounds
watchdog, ``--log-level INFO`` shows the structured pipeline log.

    python examples/quickstart.py --rundir runs/demo

bundles EVERY artifact — metrics (.prom and .json), diagnostics CSV, the
flight-recorder journal (every span, step, operation, counter sample and
health event of the run) and the trace rendered from it — under one
directory with a ``manifest.json``, ready for
``tools/check_observability.py runs/demo`` to validate and
``tools/run_report.py`` to render as a self-contained HTML report.
"""

import argparse
import contextlib
import json
from pathlib import Path
from time import perf_counter

import numpy as np
import sympy as sp

from repro.backends import create_arrays
from repro.backends.c_backend import c_compiler_available, compile_c_kernel, generate_c_source
from repro.discretization import FiniteDifferenceDiscretization, discretize_system
from repro.ir import KernelConfig, create_kernel
from repro.observability import (
    FlightRecorder,
    HealthMonitor,
    RunDir,
    chrome_trace,
    configure_logging,
    get_recorder,
    get_registry,
    model_accuracy_report,
    set_recorder,
)
from repro.parallel import fill_ghosts
from repro.profiling import SolverProfiler, compile_cached
from repro.symbolic import (
    EnergyFunctional,
    EvolutionEquation,
    PDESystem,
    fields,
    gradient_norm,
)


def build_kernel(dx=1.0, dt=0.05, epsilon=4.0, gamma=1.0):
    # -- 1. energy functional layer -----------------------------------------
    with get_recorder().span("assemble_energy_functional", category="functional"):
        phi, phi_dst = fields("phi, phi_dst: double[2D]")
        c = phi.center()
        a = gamma * gradient_norm(c, squared=True, dim=2)      # |∇φ|²
        omega = gamma * 16 / sp.pi**2 * c * (1 - c)             # double obstacle
        functional = EnergyFunctional(
            gradient_energy=a, potential=omega, epsilon=sp.Float(epsilon)
        )

    # -- 2. PDE layer ---------------------------------------------------------
    tau = 1.0
    rhs = -functional.variational_derivative(c)
    eq = EvolutionEquation(c, rhs, relaxation=tau * epsilon)
    system = PDESystem([eq], name="allen_cahn")

    # -- 3./4. discretize + generate ------------------------------------------
    disc = FiniteDifferenceDiscretization(dim=2)
    ac = discretize_system(system, phi_dst, disc)
    config = KernelConfig(parameter_values={"dt": dt, "dx_0": dx, "dx_1": dx})
    kernel = create_kernel(ac, config)
    return kernel, functional, phi


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", metavar="PATH",
                    help="write a Chrome-trace JSON of the whole run")
    ap.add_argument("--metrics", metavar="PATH",
                    help="write a Prometheus text-format metrics snapshot")
    ap.add_argument("--health", action="store_true",
                    help="enable the NaN/bounds health watchdog")
    ap.add_argument("--diagnostics", metavar="PATH",
                    help="stream the codegen-derived physics diagnostics "
                         "(free energy, phase fraction, interface area) to a CSV")
    ap.add_argument("--log-level", metavar="LEVEL",
                    help="enable structured logging (DEBUG, INFO, ...)")
    ap.add_argument("--fingerprints", metavar="PATH", nargs="?",
                    const="fingerprints.jsonl", default=None,
                    help="stream per-step repro-fingerprint/1 state digests "
                         "to PATH (default fingerprints.jsonl); two runs of "
                         "this script produce byte-identical ledgers")
    ap.add_argument("--audit-against", metavar="PATH",
                    help="self-audit: compare each emitted fingerprint "
                         "against the reference ledger at PATH and abort at "
                         "the first divergent (step, field, block); implies "
                         "--fingerprints")
    ap.add_argument("--rundir", metavar="PATH",
                    help="bundle every artifact (trace, metrics, diagnostics, "
                         "journal, fingerprints) under one run "
                         "directory with a manifest.json; implies --trace/"
                         "--metrics/--diagnostics/--health/--fingerprints at "
                         "their canonical paths")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    rundir = None
    if args.rundir:
        rundir = RunDir(args.rundir, config={"example": "quickstart",
                                             "n": 96, "steps": 300})
        args.trace = args.trace or str(rundir.trace_path)
        args.metrics = args.metrics or str(rundir.metrics_path)
        args.diagnostics = args.diagnostics or str(rundir.diagnostics_path)
        args.fingerprints = args.fingerprints or str(rundir.fingerprint_path)
        args.health = True
    if args.audit_against and not args.fingerprints:
        args.fingerprints = "fingerprints.jsonl"
    if args.trace and rundir is None:
        # the default recorder keeps the newest 1024 events; a trace wants
        # them all (a RunDir run renders its trace from the journal instead)
        set_recorder(FlightRecorder(capacity=None))
    if args.log_level:
        configure_logging(args.log_level)
    health = HealthMonitor(
        policy="raise", interval=60, bounds={"phi": (-1e-9, 1 + 1e-9)}
    ) if args.health else None
    with rundir if rundir is not None else contextlib.nullcontext():
        _run(args, health, rundir)


def _run(args, health, rundir):
    recorder = get_recorder()
    if rundir is not None:
        rundir.note(example="quickstart", backend="numpy")
        recorder.open_journal(rundir.journal_path())

    kernel, functional, phi_field = build_kernel()
    print("generated kernel:", kernel)
    oc = kernel.operation_count()
    print(f"per-cell cost: {oc}")

    step = compile_cached(kernel, "numpy")

    suite = series = None
    if args.diagnostics:
        from repro.diagnostics import (
            DiagnosticsSeries,
            DiagnosticsSuite,
            functional_diagnostics,
        )

        # the observables come from the SAME functional as the PDE —
        # derived symbolically and lowered to a reduction kernel
        suite = DiagnosticsSuite(
            functional_diagnostics(functional, phi_field, dim=2), dim=2, dx=1.0
        )
        series = DiagnosticsSeries(
            suite.names, csv_path=args.diagnostics, metrics=bool(args.metrics)
        )

    n = 96
    arrays = create_arrays(kernel.fields, (n, n), ghost_layers=1)
    recorder.set_state_provider(lambda: {"phi": arrays["phi"]})
    # circular inclusion of phase φ=1 (radius 30) in a φ=0 matrix
    x, y = np.indices((n, n)) + 0.5
    r0 = 30.0
    d = np.sqrt((x - n / 2) ** 2 + (y - n / 2) ** 2) - r0
    arrays["phi"][1:-1, 1:-1] = np.clip(
        0.5 - 0.5 * np.sin(np.clip(d / 4.0, -np.pi / 2, np.pi / 2)), 0, 1
    )

    fingerprints = None
    if args.fingerprints:
        from repro.observability import FingerprintStream

        # the determinism observatory: per-step BLAKE2b digests of the
        # interior bytes; with --audit-against each record is compared
        # online and the first divergent (step, field, block) raises
        fingerprints = FingerprintStream(
            path=args.fingerprints,
            reference=args.audit_against,
            health=health,
            metrics=bool(args.metrics),
        )

    def record_fingerprint(ts):
        fingerprints.record_state(
            ts, ts * 0.05, {"phi": arrays["phi"][1:-1, 1:-1]}, dim=2
        )

    def area():
        return arrays["phi"][1:-1, 1:-1].sum()

    def eval_diagnostics(ts):
        fill_ghosts(arrays["phi"], 1, 2, mode="neumann")
        series.record(ts, ts * 0.05, suite.evaluate(arrays, ghost_layers=1))

    if series is not None:
        eval_diagnostics(0)
    if fingerprints is not None:
        record_fingerprint(0)

    profiler = SolverProfiler()
    print("\n   step     area A      dA/dt (should be ~constant < 0)")
    a_prev = area()
    for outer in range(5):
        for inner in range(60):
            ts = outer * 60 + inner + 1
            t0 = perf_counter()
            recorder.step_begin(ts)
            with profiler.measure("fill:phi"):
                fill_ghosts(arrays["phi"], 1, 2, mode="neumann")
            recorder.record("kernel", kernel.name, time_step=ts)
            with profiler.measure(kernel.name, cells=n * n):
                step(arrays)
            # the *obstacle* part of the potential: clip back to [0, 1]
            np.clip(arrays["phi_dst"], 0.0, 1.0, out=arrays["phi_dst"])
            arrays["phi"], arrays["phi_dst"] = arrays["phi_dst"], arrays["phi"]
            recorder.step_end(ts, perf_counter() - t0)
            if fingerprints is not None:
                record_fingerprint(ts)
            if series is not None and ts % 10 == 0:
                eval_diagnostics(ts)
            if health is not None and health.due(ts):
                health.check({"phi": arrays["phi"][1:-1, 1:-1]}, ts)
        a_now = area()
        rate = (a_now - a_prev) / (60 * 0.05)
        print(f"  {60 * (outer + 1):5d}  {a_now:9.1f}    {rate:8.2f}")
        a_prev = a_now

    if series is not None:
        e = series.column("free_energy")
        drops = sum(e[i + 1] <= e[i] for i in range(len(e) - 1))
        print(
            f"\ndiagnostics: {len(series)} rows -> {series.csv_path} "
            f"(free energy {e[0]:.2f} -> {e[-1]:.2f}, "
            f"non-increasing on {drops}/{len(e) - 1} intervals)"
        )

    if fingerprints is not None:
        print("\n" + fingerprints.summary())

    print()
    print(model_accuracy_report([kernel], profiler, block_shape=(n, n)))
    if health is not None:
        print("\n" + health.summary())
    if rundir is not None:
        # the self-measured recorder cost becomes a gauge so the metrics
        # snapshot (and the CI checker) can see the observability overhead
        recorder.publish_overhead()
    if args.metrics:
        from repro.observability import export_accuracy_metrics, model_accuracy_rows

        profiler.export_metrics(solver="quickstart")
        export_accuracy_metrics(
            model_accuracy_rows([kernel], profiler, block_shape=(n, n))
        )
        path = get_registry().export_prometheus(args.metrics)
        print(f"\nmetrics written to {path}")
    if args.trace:
        # the journal is line-buffered: it already holds every event so far
        recorders = rundir.journals() if rundir is not None else [recorder]
        Path(args.trace).write_text(json.dumps(chrome_trace(recorders), indent=1))
        print(f"trace written to {args.trace} (load in chrome://tracing)")
    if rundir is not None:
        with open(rundir.metrics_json_path, "w") as fh:
            json.dump(get_registry().to_json(), fh, indent=1)
        # append the measured-vs-predicted kernel record to the run's perf
        # ledger so check_observability.py --require perf can validate it
        from repro.perfmodel.ledger import PerfLedger, records_from_profiler

        perf_records = records_from_profiler(
            "quickstart", [kernel], profiler,
            block_shape=(n, n), options={"backend": "numpy"},
        )
        if perf_records:
            PerfLedger(rundir.perf_path).extend(perf_records)
        print(f"run directory: {rundir.path} (render with tools/run_report.py)")

    if c_compiler_available():
        print("\n--- generated C code (first 25 lines of the kernel body) ---")
        src = generate_c_source(kernel)
        body = src[src.index("void kernel"):]
        print("\n".join(body.splitlines()[:25]))
        # run the compiled version on the final state for a consistency check
        ck = compile_c_kernel(kernel)
        a_np = {k: v.copy() for k, v in arrays.items()}
        fill_ghosts(arrays["phi"], 1, 2, mode="neumann")
        fill_ghosts(a_np["phi"], 1, 2, mode="neumann")
        step(a_np)
        ck(arrays)
        diff = np.abs(a_np["phi_dst"] - arrays["phi_dst"]).max()
        print(f"\nC backend vs NumPy backend: max |Δ| = {diff:.2e} (bitwise: {diff == 0.0})")


if __name__ == "__main__":
    main()
