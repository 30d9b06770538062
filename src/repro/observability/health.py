"""Simulation health monitoring: fail loudly and early, not at t_end.

Long phase-field runs can silently go unstable (too-large ``dt``, bad
parameters) and keep writing garbage checkpoints for hours.  The
:class:`HealthMonitor` is called by both solvers on a configurable cadence
and runs three checks on the live fields:

* **NaN/Inf watchdog** — any non-finite value in φ or µ,
* **phase-sum drift** — the Gibbs-simplex/Lagrange constraint ``Σ_α φ_α = 1``
  must hold post-projection; drift means the projection or the multiplier
  is broken,
* **field bounds** — configurable per-field ``(lo, hi)`` alarms (φ must
  stay in [0, 1]; µ excursions flag a runaway driving force).

Findings become :class:`HealthEvent` records and metrics; the *policy*
decides what else happens: ``"record"`` only stores them, ``"warn"`` also
logs, ``"raise"`` aborts the run with :class:`HealthError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .log import get_logger, kv
from .metrics import get_registry
from .recorder import get_recorder

__all__ = ["HealthError", "HealthEvent", "HealthMonitor"]

_log = get_logger("observability.health")


class HealthError(RuntimeError):
    """Raised (policy ``"raise"``) when a health check fails."""

    def __init__(self, events: list["HealthEvent"]):
        self.events = events
        super().__init__(
            "; ".join(str(e) for e in events) or "health check failed"
        )


@dataclass
class HealthEvent:
    """One failed check at one point in simulated time."""

    time_step: int
    check: str          # "nan" | "phase_sum" | "bounds" | "conservation" | "energy_decay" | "divergence"
    field: str
    message: str
    value: float = 0.0
    where: str = ""     # e.g. "block (0, 1)" for distributed runs

    def __str__(self):
        loc = f" {self.where}" if self.where else ""
        return f"[step {self.time_step}{loc}] {self.check}({self.field}): {self.message}"


@dataclass
class HealthMonitor:
    """Configurable watchdog over live simulation fields.

    Parameters
    ----------
    policy:
        ``"record"`` (store events), ``"warn"`` (store + log warning) or
        ``"raise"`` (store + log + raise :class:`HealthError`).
    interval:
        Check cadence in time steps (the solvers call :meth:`due` each step).
    nan_check:
        Enable the non-finite watchdog.
    phase_sum_tol:
        Allowed ``max|Σφ − 1|`` drift, or ``None`` to disable the check.
    bounds:
        Per-field ``{name: (lo, hi)}`` alarms; ``None`` for either end
        leaves that side unchecked.
    conservation_tol:
        Allowed relative drift of a conserved diagnostic (e.g. total
        solute mass) from its first recorded value, or ``None`` to
        disable — used by :meth:`check_diagnostics`.
    energy_decay_slack:
        Relative slack allowed on the free-energy monotonic-decay
        invariant ``dΨ/dt ≤ 0`` (isothermal, no noise); absorbs rounding
        of the reduction itself.
    """

    policy: str = "raise"
    interval: int = 1
    nan_check: bool = True
    phase_sum_tol: float | None = 1e-6
    bounds: dict[str, tuple[float | None, float | None]] = dc_field(
        default_factory=dict
    )
    conservation_tol: float | None = 1e-8
    energy_decay_slack: float = 1e-12
    events: list[HealthEvent] = dc_field(default_factory=list)
    n_checks: int = 0
    _mass_ref: dict = dc_field(default_factory=dict, repr=False)
    _energy_prev: float | None = dc_field(default=None, repr=False)

    def __post_init__(self):
        if self.policy not in ("record", "warn", "raise"):
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.interval < 1:
            raise ValueError("interval must be >= 1")

    # -- scheduling ------------------------------------------------------------

    def due(self, time_step: int) -> bool:
        """True when *time_step* falls on the check cadence."""
        return time_step % self.interval == 0

    @property
    def healthy(self) -> bool:
        return not self.events

    # -- checking --------------------------------------------------------------

    def check(
        self,
        fields: dict[str, np.ndarray],
        time_step: int = 0,
        phase_sum_of: str | None = None,
        where: str = "",
    ) -> list[HealthEvent]:
        """Run all configured checks on *fields*; returns the new events.

        *phase_sum_of* names the field whose trailing axis holds the phase
        index and must sum to one (skip for scalar order parameters).
        """
        registry = get_registry()
        registry.counter(
            "repro_health_checks_total", "health checks executed"
        ).inc()
        found: list[HealthEvent] = []

        for name, arr in fields.items():
            if self.nan_check:
                bad = np.size(arr) - int(np.count_nonzero(np.isfinite(arr)))
                if bad:
                    found.append(
                        HealthEvent(
                            time_step, "nan", name,
                            f"{bad} non-finite values", float(bad), where,
                        )
                    )
                    continue  # bounds/drift on NaN data is meaningless
            lo, hi = self.bounds.get(name, (None, None))
            if lo is not None or hi is not None:
                below = int(np.count_nonzero(arr < lo)) if lo is not None else 0
                above = int(np.count_nonzero(arr > hi)) if hi is not None else 0
                if below or above:
                    found.append(
                        HealthEvent(
                            time_step, "bounds", name,
                            f"{below + above} values outside [{lo}, {hi}]",
                            float(below + above), where,
                        )
                    )

        if phase_sum_of is not None and self.phase_sum_tol is not None:
            arr = fields.get(phase_sum_of)
            if arr is not None and arr.ndim >= 1 and np.all(np.isfinite(arr)):
                drift = float(np.abs(arr.sum(axis=-1) - 1.0).max())
                if drift > self.phase_sum_tol:
                    found.append(
                        HealthEvent(
                            time_step, "phase_sum", phase_sum_of,
                            f"max |Σφ − 1| = {drift:.3e} "
                            f"(tol {self.phase_sum_tol:.1e})",
                            drift, where,
                        )
                    )

        self.n_checks += 1
        self._record(found, registry)
        return found

    def check_diagnostics(
        self,
        values: dict[str, float],
        time_step: int = 0,
        mass_names: tuple[str, ...] = (),
        energy_name: str | None = None,
        where: str = "",
    ) -> list[HealthEvent]:
        """Run the physics-invariant checks on a diagnostics row.

        *mass_names* lists conserved diagnostics (checked for relative
        drift against their first recorded value), *energy_name* the total
        free energy (checked for monotonic decay against the previous
        value).  Non-finite values are skipped — the NaN watchdog owns
        those.  Findings go through the same policy/metrics machinery as
        the field checks.
        """
        registry = get_registry()
        registry.counter(
            "repro_health_checks_total", "health checks executed"
        ).inc()
        found: list[HealthEvent] = []

        for name in mass_names:
            value = values.get(name)
            if value is None or not np.isfinite(value):
                continue
            ref = self._mass_ref.setdefault(name, float(value))
            if self.conservation_tol is None:
                continue
            drift = abs(float(value) - ref) / max(abs(ref), 1e-300)
            if drift > self.conservation_tol:
                found.append(
                    HealthEvent(
                        time_step, "conservation", name,
                        f"relative drift {drift:.3e} from initial "
                        f"{ref:.17g} (tol {self.conservation_tol:.1e})",
                        drift, where,
                    )
                )

        if energy_name is not None:
            value = values.get(energy_name)
            if value is not None and np.isfinite(value):
                prev = self._energy_prev
                self._energy_prev = float(value)
                if prev is not None:
                    allowed = self.energy_decay_slack * max(abs(prev), 1.0)
                    rise = float(value) - prev
                    if rise > allowed:
                        found.append(
                            HealthEvent(
                                time_step, "energy_decay", energy_name,
                                f"dΨ/dt > 0: {prev:.17g} → {value:.17g} "
                                f"(+{rise:.3e})",
                                rise, where,
                            )
                        )

        self.n_checks += 1
        self._record(found, registry)
        return found

    def check_fingerprint(
        self,
        mismatches: list[dict],
        time_step: int = 0,
        where: str = "",
    ) -> list[HealthEvent]:
        """Report state-fingerprint divergence from a reference ledger.

        *mismatches* is the per-``(field, block)`` digest diff produced by
        :func:`repro.observability.fingerprint.find_mismatches`, already in
        the fixed traversal order, so ``mismatches[0]`` is the most
        upstream divergent pair.  The event names the step, the field and
        the block of that first mismatch and carries the total divergent
        pair count as its value; it goes through the same policy/metrics
        machinery as the field checks (check kind ``"divergence"``).
        """
        registry = get_registry()
        registry.counter(
            "repro_health_checks_total", "health checks executed"
        ).inc()
        found: list[HealthEvent] = []
        if mismatches:
            first = mismatches[0]
            actual = first.get("actual") or "missing"
            expected = first.get("expected") or "missing"
            found.append(
                HealthEvent(
                    time_step, "divergence", first["field"],
                    f"block ({first['block']}): fingerprint {actual} != "
                    f"reference {expected}; {len(mismatches)} (field, block) "
                    f"pair(s) diverged at this step",
                    float(len(mismatches)),
                    where=f"{where} block ({first['block']})".strip(),
                )
            )
        self.n_checks += 1
        self._record(found, registry)
        return found

    def _record(self, found: list[HealthEvent], registry) -> None:
        """Shared event handling: store, record, count, log, apply the policy.

        The ``kind="health"`` recorder event (``check`` as its name) is the
        durable form: with a journal open it is the run's health log.
        """
        if not found:
            return
        self.events.extend(found)
        recorder = get_recorder()
        for event in found:
            recorder.record(
                "health",
                event.check,
                field=event.field,
                time_step=event.time_step,
                message=event.message,
                value=event.value,
                where=event.where,
            )
            registry.counter(
                "repro_health_events_total",
                "failed health checks",
                check=event.check,
                field=event.field,
            ).inc()
            if self.policy in ("warn", "raise"):
                _log.warning(
                    kv(
                        "health_check_failed",
                        step=event.time_step,
                        check=event.check,
                        field=event.field,
                        detail=event.message,
                        where=event.where,
                    )
                )
        if self.policy == "raise":
            raise HealthError(found)

    # -- reporting -------------------------------------------------------------

    def summary(self) -> str:
        """One-paragraph status line for logs and reports."""
        if self.healthy:
            return f"health: OK ({self.n_checks} checks, 0 events)"
        by_check: dict[str, int] = {}
        for e in self.events:
            by_check[e.check] = by_check.get(e.check, 0) + 1
        detail = ", ".join(f"{k}×{v}" for k, v in sorted(by_check.items()))
        first = self.events[0]
        return (
            f"health: {len(self.events)} events over {self.n_checks} checks "
            f"({detail}); first: {first}"
        )
