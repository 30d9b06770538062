"""Output check: invariants on every run, a frozen reference for seeds 0 and 1.

The tolerances are the benchmark's own (not ``HealthMonitor``'s defaults,
whose ``conservation_tol=1e-8`` trips on a healthy 512² front at step 10).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")
RTOL = 1e-9          # summary vs reference
SUM_TOL = 1e-9       # |Σφ − 1|
BOUND_TOL = 1e-12    # φ may leave [0, 1] by rounding of the renormalization only


def invariants(phi: np.ndarray, mu: np.ndarray) -> list[str]:
    """Violations of all-finite, ``|Σφ − 1| ≤ 1e-9`` and ``0 ≤ φ ≤ 1``."""
    problems = []
    if not (np.isfinite(phi).all() and np.isfinite(mu).all()):
        return ["non-finite values in the final state"]
    drift = float(np.abs(phi.sum(axis=-1) - 1.0).max())
    if drift > SUM_TOL:
        problems.append(f"max |sum(phi) - 1| = {drift:.3e} > {SUM_TOL:g}")
    lo, hi = float(phi.min()), float(phi.max())
    if lo < -BOUND_TOL or hi > 1.0 + BOUND_TOL:
        problems.append(f"phi outside [0, 1]: min {lo!r}, max {hi!r}")
    return problems


def summarize(model, phi: np.ndarray, mu: np.ndarray, time: float, time_step: int) -> dict:
    """Phase fractions, mean µ per component and solute mass of a global state.

    Solute mass comes from the repo's own generated reduction
    (``∫ Σ_α c_α(µ,T) h_α(φ) dV``) on the NumPy backend, whose tiled sum
    has a fixed order.
    """
    from repro.diagnostics import DiagnosticSpec, DiagnosticsSuite

    params = model.params
    conc = model.driving_force.concentration_total(model.phi, model.mu, model.T)
    suite = DiagnosticsSuite(
        [DiagnosticSpec(f"solute_mass_{m}", conc[m]) for m in range(params.n_mu)],
        dim=params.dim,
        dx=params.dx,
        name="perf_solute_mass",
        parameter_values=model.compile_time_constants(),
    )
    mass = suite.evaluate(
        {"phi": np.ascontiguousarray(phi), "mu": np.ascontiguousarray(mu)},
        ghost_layers=0, t=time, time_step=time_step, seed=0,
    )
    n = params.n_phases
    return {
        "phase_fractions": [float(v) for v in phi.reshape(-1, n).mean(axis=0)],
        "mean_mu": [float(v) for v in mu.reshape(-1, params.n_mu).mean(axis=0)],
        "solute_mass": [mass[f"solute_mass_{m}"] for m in range(params.n_mu)],
    }


def compare(summary: dict, reference: dict, rtol: float = RTOL) -> list[str]:
    problems = []
    for key, expected in reference.items():
        got = np.asarray(summary[key])
        want = np.asarray(expected)
        scale = np.maximum(np.abs(want), 1e-300)
        worst = float((np.abs(got - want) / scale).max())
        if not worst <= rtol:
            problems.append(f"{key}: relative error {worst:.3e} > {rtol:g}")
    return problems


def load_reference(workload, seed: int) -> dict | None:
    """The frozen summary for (*workload*, *seed*), or ``None`` if not recorded.

    Also ``None`` when the workload is not at its recorded size (``--quick``).
    """
    if not REFERENCE_PATH.exists():
        return None
    entry = json.loads(REFERENCE_PATH.read_text())["workloads"].get(workload.name)
    if entry is None or tuple(entry["shape"]) != tuple(workload.shape):
        return None
    if entry["check_steps"] != workload.check_steps:
        return None
    return entry["seeds"].get(str(seed))
