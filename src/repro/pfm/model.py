"""The grand-potential phase-field model: functional → PDEs → kernels.

This module performs the paper's full vertical assembly (Fig. 1):

1. build the energy density ``ε a(φ,∇φ) + ω(φ)/ε + ψ(φ,µ,T)`` from a
   :class:`~repro.pfm.parameters.ModelParameters` configuration,
2. derive the N Allen-Cahn equations by variational derivative, add the
   Lagrange multiplier ``Λ = (1/N) Σ δΨ/δφ_β`` and optional Philox
   fluctuations (Eq. 7),
3. construct the K−1 chemical-potential equations non-variationally
   (Eq. 8) with mobility (Eq. 9) and anti-trapping current (Eq. 10),
4. discretize (full or split variants) and produce backend-ready kernels,
   including the Gibbs-simplex projection that realizes the obstacle part
   of the potential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy as sp

from ..discretization import (
    FiniteDifferenceDiscretization,
    SplitKernels,
    discretize_system,
)
from ..ir import Kernel, KernelConfig, create_kernel
from ..observability.log import get_logger, kv
from ..observability.recorder import get_recorder
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

__all__ = ["GrandPotentialModel", "PhaseFieldKernelSet"]

_TAU_EPS = sp.Float(1e-9)
_log = get_logger("pfm.model")


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
        variant_phi: str = "full",
        variant_mu: str = "full",
        target: str = "cpu",
        approximations: tuple = (),
        fold_constants: bool = True,
    ) -> PhaseFieldKernelSet:
        """Discretize both systems and lower them to kernels.

        ``variant_*`` select the full (recompute) or split (staggered
        pre-computation) kernel forms — the µ-full / µ-split / φ-full /
        φ-split variants of Table 1 and Algorithm 1.
        """
        disc = self.discretizer()
        config = KernelConfig(
            target=target,
            approximations=approximations,
            parameter_values=self.compile_time_constants() if fold_constants else None,
        )

        def build(system: PDESystem, dst: Field, variant: str, flux_name: str):
            result = discretize_system(
                system, dst, disc, variant=variant, flux_field_name=flux_name
            )
            if isinstance(result, SplitKernels):
                return [
                    create_kernel(result.flux_kernel, config),
                    create_kernel(result.main_kernel, config),
                ]
            return [create_kernel(result, config)]

        with get_recorder().span(
            "create_kernels",
            category="pipeline",
            variant_phi=variant_phi,
            variant_mu=variant_mu,
            target=target,
        ):
            phi_kernels = build(
                self.phi_system(), self.phi_dst, variant_phi, "phi_flux"
            )
            mu_kernels = build(self.mu_system(), self.mu_dst, variant_mu, "mu_flux")
            projection = create_kernel(
                self.projection_collection(), KernelConfig(target=target)
            )
        kernel_set = PhaseFieldKernelSet(
            model=self,
            phi_kernels=phi_kernels,
            projection_kernel=projection,
            mu_kernels=mu_kernels,
            variant_phi=variant_phi,
            variant_mu=variant_mu,
        )
        _log.info(
            kv(
                "kernel_set_created",
                kernels=len(kernel_set.all_kernels),
                variant_phi=variant_phi,
                variant_mu=variant_mu,
                target=target,
                ghost_layers=kernel_set.ghost_layers,
            )
        )
        return kernel_set
