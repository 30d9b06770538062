"""The grand-potential phase-field model: functional → PDEs → kernels.

This module performs the paper's full vertical assembly (Fig. 1):

1. build the energy density ``ε a(φ,∇φ) + ω(φ)/ε + ψ(φ,µ,T)`` from a
   :class:`~repro.pfm.parameters.ModelParameters` configuration,
2. derive the N Allen-Cahn equations by variational derivative, add the
   Lagrange multiplier ``Λ = (1/N) Σ δΨ/δφ_β`` and optional Philox
   fluctuations (Eq. 7),
3. construct the K−1 chemical-potential equations non-variationally
   (Eq. 8) with mobility (Eq. 9) and anti-trapping current (Eq. 10),
4. discretize (the full or the split form of each system, by default
   chosen by :meth:`SplitKernels.buffering_pays
   <repro.discretization.staggered.SplitKernels.buffering_pays>`) and
   produce backend-ready kernels, including the Gibbs-simplex projection
   that realizes the obstacle part of the potential.

Steps 1–4 run once per model and host: the derived kernel set is pickled
into the IR tier of the kernel disk cache (:mod:`repro.profiling.diskcache`),
and every later :meth:`GrandPotentialModel.create_kernels` with equal
parameters and arguments, in any process, loads it without sympy work.
The φ and µ systems are derived independently, on two CPUs where there
are two (:class:`_Child`); such a forked derivation of a CPU set also
builds the set's binaries.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
import threading
import traceback
from dataclasses import dataclass, fields, is_dataclass
from functools import partial

import numpy as np
import sympy as sp

from ..backends.c_backend import c_compiler_available, compile_c_fill
from ..discretization import (
    FiniteDifferenceDiscretization,
    SplitKernels,
    discretize_system,
)
from ..ir import Kernel, KernelConfig, contract, create_kernel
from ..observability.log import get_logger, kv
from ..observability.recorder import FlightRecorder, get_recorder, set_thread_recorder
from ..profiling.cache import canonical_srepr, compile_all, compile_cached, usable_cpus
from ..profiling.diskcache import (
    KernelDiskCache,
    add_disk_cache_stats,
    disk_cache_stats,
    ir_cache_key,
    reset_disk_cache_stats,
)
from ..symbolic import (
    Assignment,
    AssignmentCollection,
    Divergence,
    EnergyFunctional,
    EvolutionEquation,
    Field,
    PDESystem,
    functional_derivative,
    random_uniform,
)
from ..symbolic.coordinates import dt as dt_symbol, spacing
from ..symbolic.operators import Diff, Transient
from .antitrapping import anti_trapping_current
from .driving_force import GrandPotentialDrivingForce
from .gradient_energy import anisotropic_gradient_energy, isotropic_gradient_energy
from .interpolation import g_interp, h_interp, h_interp_prime
from .parameters import ModelParameters
from .potentials import multi_obstacle_potential

__all__ = ["GrandPotentialModel", "KernelDerivationError", "PhaseFieldKernelSet"]

_TAU_EPS = sp.Float(1e-9)
_log = get_logger("pfm.model")
#: what a pickled kernel set holds; the calling model and variants are added
_KERNEL_SET_PARTS = ("phi_kernels", "projection_kernel", "mu_kernels")


def _canonical(value) -> str:
    """Text of a parameter value that equal values print alike, in any process.

    Dataclasses field by field, arrays by dtype, shape and bytes, sympy
    objects by a hash-seed-independent ``srepr``; a type without a known
    canonical form is refused rather than keyed by a ``repr`` that may hold
    an address.
    """
    if is_dataclass(value) and not isinstance(value, type):
        inner = ", ".join(
            f"{f.name}={_canonical(getattr(value, f.name))}" for f in fields(value)
        )
        return f"{type(value).__qualname__}({inner})"
    if isinstance(value, np.ndarray):
        return f"ndarray({value.dtype.str}, {value.shape}, {value.tobytes().hex()})"
    if isinstance(value, (sp.Basic, sp.MatrixBase)):
        return canonical_srepr(value)
    if isinstance(value, dict):
        items = sorted(f"{_canonical(k)}: {_canonical(v)}" for k, v in value.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return f"{type(value).__name__}({', '.join(map(_canonical, value))})"
    if value is None or isinstance(value, (bool, int, float, str, np.generic)):
        return repr(value)
    raise TypeError(f"no canonical form for a parameter of type {type(value).__name__}")


def _kernel_set_parts(value) -> dict:
    """*value* if it is the parts of a pickled kernel set, else ``TypeError``."""
    ok = (
        isinstance(value, dict)
        and tuple(value) == _KERNEL_SET_PARTS
        and isinstance(value["projection_kernel"], Kernel)
        and all(
            isinstance(ks, list) and ks and all(isinstance(k, Kernel) for k in ks)
            for ks in (value["phi_kernels"], value["mu_kernels"])
        )
    )
    if not ok:
        raise TypeError(f"not the parts of a kernel set: {type(value).__name__}")
    return value


def _form(kernels: list[Kernel]) -> str:
    """``"split"`` or ``"full"``: the form a system's kernels were lowered in."""
    split = len(kernels) > 1 or kernels[0].flux_field is not None
    return "split" if split else "full"


class KernelDerivationError(RuntimeError):
    """A forked child deriving one system's kernels failed; the message names it."""


def _may_fork() -> bool:
    """Whether a derivation forks: a second usable CPU, and no thread a fork would drop."""
    return hasattr(os, "fork") and usable_cpus() > 1 and threading.active_count() == 1


class _Child:
    """``work()`` of one *system*, run in a forked child; :meth:`join` returns its value.

    The child records into a recorder of its own and counts its disk-tier
    work from zero; both travel back with the value, and :meth:`join` adds
    them to this process's.  It writes to the pipe only once *work* has
    returned, so a full pipe never stalls its compiler runs, and it ends
    with ``os._exit``: no exit handler, buffer flush or ``faulthandler``
    clean-up of the parent's state runs in it.
    """

    def __init__(self, system: str, work):
        self.system = system
        parent = get_recorder()
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:
            os.close(read)
            self._serve(work, write, parent)
        os.close(write)
        self._pipe = os.fdopen(read, "rb")
        try:  # also in the child, whichever runs first: a group :meth:`_reap` kills
            os.setpgid(self.pid, self.pid)
        except OSError:  # the child has done it, or has exited
            pass

    @staticmethod
    def _serve(work, write: int, parent: FlightRecorder):
        status = 1
        try:
            os.setpgid(0, 0)
            recorder = FlightRecorder(capacity=None, enabled=parent.enabled, rank=parent.rank)
            set_thread_recorder(recorder)
            reset_disk_cache_stats()
            protocol = pickle.HIGHEST_PROTOCOL
            try:
                reply = pickle.dumps(
                    ("ok", work(), disk_cache_stats(), recorder.events), protocol
                )
            except Exception:
                reply = pickle.dumps(
                    ("error", traceback.format_exc(), disk_cache_stats(), recorder.events),
                    protocol,
                )
            with os.fdopen(write, "wb") as pipe:
                pipe.write(reply)
            status = 0
        finally:
            os._exit(status)

    def join(self):
        """The child's value, once it has exited; its failure as a named error."""
        with self._pipe:
            data = self._pipe.read()
        pid, status, usage = self._reap()
        _log.info(
            kv("derivation_child_exited", system=self.system, pid=pid,
               peak_rss_mb=round(usage.ru_maxrss / 1024.0, 1))
        )
        failed = f"deriving the {self.system!r} kernels in child process {pid} failed"
        try:
            outcome, value, stats, events = pickle.loads(data)
        except (EOFError, pickle.UnpicklingError):  # no reply, or a torn one
            if os.WIFSIGNALED(status):
                cause = f"killed by {signal.Signals(os.WTERMSIG(status)).name}"
            else:
                cause = f"exit status {os.waitstatus_to_exitcode(status)}, no reply"
            raise KernelDerivationError(f"{failed}: {cause}") from None
        get_recorder().adopt(events)
        add_disk_cache_stats(stats)
        if outcome != "ok":
            raise KernelDerivationError(f"{failed}:\n{value}")
        return value

    def reap(self) -> None:
        """Kill and wait for a child that was not joined (the caller failed)."""
        if self.pid is not None:
            self._pipe.close()
            self._reap()

    def _reap(self):
        """Kill what is left of the child's process group, then wait for the child.

        The group is the child and its compiler runs: after a reply nothing
        but the exited child is in it, after a failure nothing of it is left
        running.  Returns the pid, the wait status and the child's usage.
        """
        pid, self.pid = self.pid, None
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:  # no group was made: the child alone
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        return pid, status, usage


@dataclass
class PhaseFieldKernelSet:
    """All kernels of one time step (Algorithm 1) plus their fields."""

    model: "GrandPotentialModel"
    phi_kernels: list[Kernel]
    projection_kernel: Kernel
    mu_kernels: list[Kernel]
    variant_phi: str
    variant_mu: str

    @property
    def all_kernels(self) -> list[Kernel]:
        return self.phi_kernels + [self.projection_kernel] + self.mu_kernels

    @property
    def fields(self) -> list[Field]:
        seen: dict[str, Field] = {}
        for k in self.all_kernels:
            for f in k.fields:
                seen[f.name] = f
        return [seen[n] for n in sorted(seen)]

    @property
    def ghost_layers(self) -> int:
        return max(k.ghost_layers for k in self.all_kernels)

    #: field pairs exchanged at the end of every time step
    swaps = (("phi", "phi_dst"), ("mu", "mu_dst"))

    @property
    def schedule(self) -> list[tuple]:
        """Algorithm 1 as a sweep schedule (see :mod:`repro.timeloop`).

        φ kernels and the Gibbs-simplex projection, ghost synchronization of
        φ_dst, µ kernels, ghost synchronization of µ_dst.
        """
        return [
            ("sweep", [*self.phi_kernels, self.projection_kernel]),
            ("sync", "phi_dst"),
            ("sweep", list(self.mu_kernels)),
            ("sync", "mu_dst"),
        ]


class GrandPotentialModel:
    """Symbolic assembly of the thermodynamically consistent model."""

    def __init__(self, params: ModelParameters):
        self.params = params
        n, k, dim = params.n_phases, params.n_mu, params.dim
        self.phi = Field("phi", dim, (n,))
        self.phi_dst = Field("phi_dst", dim, (n,))
        self.mu = Field("mu", dim, (k,))
        self.mu_dst = Field("mu_dst", dim, (k,))
        self.driving_force = GrandPotentialDrivingForce(params.phases)
        self.T = params.temperature.expr
        self._dpsi_cache: list[sp.Expr] | None = None

    # -- energy functional layer (paper §3.1) --------------------------------

    def gradient_energy(self) -> sp.Expr:
        p = self.params
        if p.anisotropy is None:
            return isotropic_gradient_energy(self.phi, p.gamma)
        return anisotropic_gradient_energy(self.phi, p.gamma, p.anisotropy)

    def obstacle_potential(self) -> sp.Expr:
        p = self.params
        return multi_obstacle_potential(self.phi, p.gamma, p.gamma_triple)

    def energy_functional(self) -> EnergyFunctional:
        with get_recorder().span(
            "assemble_energy_functional",
            category="functional",
            phases=self.params.n_phases,
        ):
            return EnergyFunctional(
                gradient_energy=self.gradient_energy(),
                potential=self.obstacle_potential(),
                driving_force=self.driving_force.psi_total(self.phi, self.mu, self.T),
                epsilon=sp.Float(self.params.epsilon),
            )

    def energy_density(self) -> sp.Expr:
        return self.energy_functional().density

    # -- PDE layer (paper §3.2) ------------------------------------------------

    def variational_derivatives(self) -> list[sp.Expr]:
        """δΨ/δφ_α for every phase (cached — they are expensive)."""
        if self._dpsi_cache is None:
            with get_recorder().span(
                "variational_derivatives",
                category="pde",
                phases=self.params.n_phases,
            ):
                density = self.energy_density()
                self._dpsi_cache = [
                    functional_derivative(density, self.phi.center(a))
                    for a in range(self.params.n_phases)
                ]
        return self._dpsi_cache

    def tau_interpolated(self) -> sp.Expr:
        """Local kinetic coefficient from pairwise τ_αβ (paper §3.2)."""
        p = self.params
        n = p.n_phases
        num = sp.Add(
            *[
                sp.Float(p.tau[a, b]) * self.phi.center(a) * self.phi.center(b)
                for b in range(n)
                for a in range(b)
            ]
        )
        den = sp.Add(
            *[self.phi.center(a) * self.phi.center(b) for b in range(n) for a in range(b)]
        )
        off = p.tau[~np.eye(n, dtype=bool)]
        fallback = sp.Float(float(off.mean()))
        return sp.Piecewise((num / den, den > _TAU_EPS), (fallback, True))

    def phi_system(self) -> PDESystem:
        """Allen-Cahn equations with Lagrange multiplier and fluctuations."""
        with get_recorder().span("build_phi_system", category="pde"):
            return self._phi_system()

    def _phi_system(self) -> PDESystem:
        p = self.params
        n = p.n_phases
        dpsi = self.variational_derivatives()
        lam = sp.Add(*dpsi) / n
        relax = self.tau_interpolated() * sp.Float(p.epsilon)
        equations = []
        for a in range(n):
            rhs = -dpsi[a] + lam
            if p.fluctuation_amplitude:
                rhs += sp.Float(p.fluctuation_amplitude) * random_uniform(
                    -1, 1, stream=a
                )
            equations.append(
                EvolutionEquation(self.phi.center(a), rhs, relaxation=relax)
            )
        return PDESystem(equations, name="phi")

    def mobility_matrix(self) -> sp.Matrix:
        """Eq. (9): M = Σ_α D_α (∂c_α/∂µ) g_α(φ)."""
        p = self.params
        k = p.n_mu
        total = sp.zeros(k, k)
        for a, phase in enumerate(p.phases):
            total += (
                sp.Float(p.diffusivities[a])
                * phase.susceptibility(self.T)
                * g_interp(self.phi.center(a))
            )
        return total

    def mu_system(self) -> PDESystem:
        """Eq. (8): the non-variational chemical potential evolution."""
        with get_recorder().span("build_mu_system", category="pde"):
            return self._mu_system()

    def _mu_system(self) -> PDESystem:
        p = self.params
        k = p.n_mu
        mv = self.driving_force.mu_vector(self.mu)

        chi = self.driving_force.susceptibility_total(self.phi, self.T)
        chi_inv = chi.inv() if k > 1 else sp.Matrix([[1 / chi[0, 0]]])
        M = self.mobility_matrix()

        if p.anti_trapping:
            jat = anti_trapping_current(
                self.phi,
                self.mu,
                self.driving_force,
                self.T,
                sp.Float(p.epsilon),
                p.liquid_phase,
                dim=p.dim,
            )
        else:
            jat = [[sp.S.Zero] * p.dim for _ in range(k)]

        div_terms = []
        for m in range(k):
            flux = [
                sp.Add(*[M[m, n_] * Diff(self.mu.center(n_), i) for n_ in range(k)])
                - jat[m][i]
                for i in range(p.dim)
            ]
            div_terms.append(Divergence(flux))

        # source terms: −Σ_α (∂c/∂φ_α) ∂φ_α/∂t − (∂c/∂T) ∂T/∂t
        sources = [sp.S.Zero] * k
        for a, phase in enumerate(p.phases):
            c_a = phase.concentration(mv, self.T)
            hp = h_interp_prime(self.phi.center(a))
            dphidt = Transient(self.phi.center(a))
            for m in range(k):
                sources[m] -= c_a[m] * hp * dphidt
        dTdt = self.params.temperature.time_derivative
        if dTdt != 0:
            for a, phase in enumerate(p.phases):
                dc_dT = -(
                    2 * sp.Matrix(phase.a1.tolist()) * mv
                    + sp.Matrix(phase.b1.tolist())
                )
                h_a = h_interp(self.phi.center(a))
                for m in range(k):
                    sources[m] -= dc_dT[m] * h_a * dTdt

        equations = []
        for m in range(k):
            rhs = sp.Add(
                *[chi_inv[m, n_] * (div_terms[n_] + sources[n_]) for n_ in range(k)]
            )
            equations.append(EvolutionEquation(self.mu.center(m), rhs))
        return PDESystem(equations, name="mu")

    def projection_collection(self) -> AssignmentCollection:
        """Gibbs-simplex projection realizing the obstacle potential.

        Clips every updated phase field to [0, 1] and renormalizes the sum
        to one — the standard treatment of the multi-obstacle potential.
        """
        n = self.params.n_phases
        clipped = [
            Assignment(
                sp.Symbol(f"clip_{a}", real=True),
                sp.Min(sp.Integer(1), sp.Max(sp.Integer(0), self.phi_dst.center(a))),
            )
            for a in range(n)
        ]
        total = Assignment(
            sp.Symbol("clip_total", real=True),
            # guard against the (unphysical) all-clipped-to-zero cell
            sp.Max(sp.Add(*[c.lhs for c in clipped]), sp.Float(1e-300)),
        )
        mains = [
            Assignment(self.phi_dst.center(a), clipped[a].lhs / total.lhs)
            for a in range(n)
        ]
        return AssignmentCollection(mains, clipped + [total], name="phi_project")

    # -- discretization & kernel creation (paper §3.3–3.4) ------------------------

    def discretizer(self) -> FiniteDifferenceDiscretization:
        return FiniteDifferenceDiscretization(
            dim=self.params.dim,
            dst_map={self.phi: self.phi_dst, self.mu: self.mu_dst},
        )

    def compile_time_constants(self) -> dict:
        p = self.params
        consts = {dt_symbol: p.dt}
        for d in range(p.dim):
            consts[spacing(d)] = p.dx
        return consts

    def create_kernels(
        self,
        variant_phi: str | None = None,
        variant_mu: str | None = None,
        target: str = "cpu",
        approximations: tuple = (),
        fold_constants: bool = True,
    ) -> PhaseFieldKernelSet:
        """Discretize both systems and lower them to kernels.

        ``variant_*`` select the full (recompute) or split (staggered
        pre-computation) kernel forms — the µ-full / µ-split / φ-full /
        φ-split variants of Table 1 and Algorithm 1; unset, each system
        takes the form :meth:`SplitKernels.buffering_pays
        <repro.discretization.staggered.SplitKernels.buffering_pays>`
        chooses (P1: split, split; the binary model: full, full).  On
        the CPU a split system is one kernel named after it, its flux field
        contracted (:func:`~repro.ir.kernel.contract`); ``target="gpu"``
        keeps the paper's two kernels, ``<system>_flux`` and
        ``<system>_main``.  The set's ``variant_*`` name the forms taken.

        The set is derived once: it is published to the kernel disk cache
        under :meth:`_kernel_set_key`, and a later call with equal
        parameters and arguments, in this or any process, loads it.
        """
        options = dict(
            variant_phi=variant_phi,
            variant_mu=variant_mu,
            target=target,
            approximations=approximations,
            fold_constants=fold_constants,
        )
        with get_recorder().span(
            "create_kernels",
            category="pipeline",
            variant_phi=variant_phi,
            variant_mu=variant_mu,
            target=target,
        ) as span:
            parts, hit = KernelDiskCache().load_or_derive(
                self._kernel_set_key(**options),
                lambda: self._derive_kernels(**options),
                check=_kernel_set_parts,
                meta={"model": self.params.name, **options},
            )
            span["cache"] = "hit" if hit else "derived"
        kernel_set = PhaseFieldKernelSet(
            model=self, **parts, variant_phi=_form(parts["phi_kernels"]),
            variant_mu=_form(parts["mu_kernels"]),
        )
        _log.info(
            kv(
                "kernel_set_created",
                kernels=len(kernel_set.all_kernels),
                variant_phi=kernel_set.variant_phi,
                variant_mu=kernel_set.variant_mu,
                target=target,
                ghost_layers=kernel_set.ghost_layers,
                cache="hit" if hit else "derived",
            )
        )
        return kernel_set

    def _kernel_set_key(
        self, variant_phi, variant_mu, target, approximations, fold_constants
    ) -> str:
        """IR-tier cache key: every parameter field and every argument (unset: ``"None"``)."""
        digest = hashlib.sha256(_canonical(self.params).encode()).hexdigest()
        return ir_cache_key(
            digest, str(variant_phi), str(variant_mu), target, repr(approximations),
            repr(fold_constants),
        )

    def _derive_kernels(
        self, variant_phi, variant_mu, target, approximations, fold_constants
    ) -> dict:
        """The sympy derivation of a kernel set (steps 1–4), as its parts.

        The two systems share nothing but the model: where :func:`_may_fork`,
        a forked child lowers µ and the projection while this process lowers
        φ, each building its share's binaries, and both have returned before
        this does.  Otherwise both are lowered here and build nothing: the
        time loop builds what it runs on its own pool, as a warm set's does.
        """
        config = KernelConfig(
            target=target,
            approximations=approximations,
            parameter_values=self.compile_time_constants() if fold_constants else None,
        )
        lower = partial(self._lower_system, config=config)
        if not _may_fork():
            phi = lower("phi", variant_phi, build=False)
            mu = lower("mu", variant_mu, build=False)
        else:
            build = target == "cpu" and c_compiler_available()
            child = _Child("mu", partial(lower, "mu", variant_mu, build=build))
            try:
                phi = lower("phi", variant_phi, build=build)
                mu = child.join()
            finally:
                child.reap()
        return dict(phi_kernels=phi, projection_kernel=mu[-1], mu_kernels=mu[:-1])

    def _lower_system(
        self, system: str, variant: str | None, config: KernelConfig, build: bool
    ) -> list[Kernel]:
        """The *variant* kernels of one *system*: ``"phi"``, or ``"mu"`` and the projection.

        An unset *variant* is the one :meth:`SplitKernels.buffering_pays`
        chooses from the split discretization; choosing full costs a
        second, full discretization.  The projection goes with µ: deriving
        it takes no time, and its build evens out the two shares (P1, both
        systems split, each share alone on a 2-vCPU Xeon guest: φ is
        1.9–2.2 s of sympy and 1.4–1.6 s of gcc, µ 1.1 s and 2.0–2.4 s
        with the projection and the native fill; forked, either share may
        end last, and moving the projection or the fill to φ made φ the
        longer one).  With *build*, each kernel's C binary is compiled
        (:func:`~repro.profiling.cache.compile_all`, on one worker: the
        other CPU is the other process's) and published
        to the disk cache, and with µ the native ghost fill, so a solver's
        lowering finds every binary in memory or on disk.  A failed build
        is logged and leaves the kernels usable: a C solver builds them
        again and reports the failure.
        """
        if system == "phi":
            equations, dst = self.phi_system(), self.phi_dst
        else:
            equations, dst = self.mu_system(), self.mu_dst
        discretize = partial(
            discretize_system, equations, dst, self.discretizer(),
            flux_field_name=f"{system}_flux",
        )
        result = discretize(variant=variant or "split")
        if variant is None and not result.buffering_pays():
            result = discretize(variant="full")
        if isinstance(result, SplitKernels):
            flux = create_kernel(result.flux_kernel, config)
            update = create_kernel(result.main_kernel, config)
            kernels = [flux, update] if config.target == "gpu" else [contract(flux, update, system)]
        else:
            kernels = [create_kernel(result, config)]
        if system == "mu":
            kernels.append(
                create_kernel(self.projection_collection(), KernelConfig(target=config.target))
            )
        if build:
            jobs = [partial(compile_cached, k, "c") for k in kernels]
            if system == "mu":
                jobs.append(compile_c_fill)  # what a C block solver builds beside them
            try:
                compile_all(jobs, workers=1)
            except Exception as err:  # noqa: BLE001 - the set does not need its binaries
                _log.warning(kv("kernel_prebuild_failed", system=system, error=repr(err)))
        return kernels
