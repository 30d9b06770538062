"""Model parameterizations, including the paper's P1 and P2 setups (§5.1).

* **P1** — 4 phases, 3 components (ternary eutectic directional
  solidification, the setup manually optimized in [Bauer et al. 2015]):
  *isotropic* gradient energy (``A_{αβ} = 1``) and an analytic temperature
  gradient depending on time and one spatial coordinate.
* **P2** — 3 phases, 2 components, *anisotropic* gradient energy (cubic,
  with per-grain rotations): dendritic solidification.  The apparently
  small change quadruples the φ-kernel FLOPs (Table 1) — without code
  generation "a complete re-implementation of the kernel would have been
  necessary".

All values are non-dimensionalized; magnitudes follow the grand-potential
literature (interface width ≈ 4Δx, parabolic free energies concave in µ).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .driving_force import ParabolicPhaseData
from .gradient_energy import CubicAnisotropy, rotation_matrix
from .temperature import TemperatureField, constant_temperature, gradient_temperature

__all__ = ["ModelParameters", "make_p1", "make_p2", "make_two_phase_binary"]


@dataclass
class ModelParameters:
    """Complete configuration of a grand-potential phase-field model."""

    name: str
    dim: int
    phases: list[ParabolicPhaseData]          # one entry per phase α
    gamma: np.ndarray                          # (N, N) interface energies
    tau: np.ndarray                            # (N, N) kinetic coefficients
    diffusivities: np.ndarray                  # (N,) per-phase diffusivities
    temperature: TemperatureField
    epsilon: float = 4.0                       # interface width parameter
    dx: float = 1.0
    dt: float = 0.01
    gamma_triple: float | None = None          # third-phase suppression
    anisotropy: CubicAnisotropy | None = None
    liquid_phase: int = -1                     # index; -1 → last phase
    fluctuation_amplitude: float = 0.0
    anti_trapping: bool = True

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=float)
        self.tau = np.asarray(self.tau, dtype=float)
        self.diffusivities = np.asarray(self.diffusivities, dtype=float)
        n = self.n_phases
        if self.gamma.shape != (n, n) or self.tau.shape != (n, n):
            raise ValueError("gamma/tau must be (N, N)")
        if not np.allclose(self.gamma, self.gamma.T):
            raise ValueError("gamma must be symmetric")
        if self.diffusivities.shape != (n,):
            raise ValueError("diffusivities must have one entry per phase")
        if self.liquid_phase < 0:
            self.liquid_phase += n
        if not 0 <= self.liquid_phase < n:
            raise ValueError("liquid_phase out of range")

    @property
    def n_phases(self) -> int:
        return len(self.phases)

    @property
    def n_mu(self) -> int:
        return self.phases[0].n_mu

    def configuration_parameter_count(self) -> int:
        """Scalar values fixed at compile time (paper §5.1's counting).

        Driving force: 2·(sym(K−1) + (K−1) + 1) per phase; mobilities add
        N·(K−1)²; plus pairwise γ and τ matrices.
        """
        n = self.n_phases
        k = self.n_mu
        driving = sum(p.parameter_count() for p in self.phases)
        mobility = n * k * k
        pairwise = 2 * (n * (n - 1) // 2)
        return driving + mobility + pairwise


def _phase(a_diag, b, c0, c1, a1_scale=0.0, b1=None):
    """Helper: isotropic-in-µ parabolic phase with concave A = −diag(a_diag)."""
    a_diag = np.atleast_1d(np.asarray(a_diag, dtype=float))
    k = a_diag.shape[0]
    a0 = -np.diag(a_diag)
    a1 = a1_scale * np.eye(k)
    b = np.atleast_1d(np.asarray(b, dtype=float))
    b1 = np.zeros(k) if b1 is None else np.atleast_1d(np.asarray(b1, dtype=float))
    return ParabolicPhaseData(a0=a0, a1=a1, b0=b, b1=b1, c0=c0, c1=c1)


def make_p1(
    dim: int = 3,
    fluctuation_amplitude: float = 0.0,
    G: float = 1e-3,
    v: float = 1e-3,
    T0: float = 1.0,
) -> ModelParameters:
    """Setup P1: ternary eutectic (4 phases / 3 components), isotropic.

    The three solid phases differ in their preferred concentrations (B
    vectors) and in the temperature sensitivity of their potentials (c1),
    giving a eutectic driving force below T0; the liquid is the reference.
    """
    # identical, T-constant A matrices keep the susceptibility inverse cheap
    # (a "simplified configuration" the code generator exploits, §5.1);
    # the T-linear B vectors carry the temperature dependence of the
    # concentrations into the fluxes and the anti-trapping current.
    # ψ_s − ψ_l = B·µ + c1·(T − T_m) with T_m = 1: solids are favored below
    # the eutectic temperature, with the moving gradient selecting the front
    solids = [
        _phase([0.5, 0.5], [+0.30, +0.10], -0.25, +0.25, b1=[0.02, 0.01]),
        _phase([0.5, 0.5], [-0.30, +0.10], -0.25, +0.25, b1=[-0.02, 0.01]),
        _phase([0.5, 0.5], [+0.00, -0.35], -0.25, +0.25, b1=[0.00, -0.02]),
    ]
    liquid = _phase([0.5, 0.5], [0.0, 0.0], 0.0, 0.0)
    n = 4
    gamma = np.full((n, n), 1.0)
    np.fill_diagonal(gamma, 0.0)
    tau = np.full((n, n), 1.0)
    d = np.array([0.1, 0.1, 0.1, 1.0])  # liquid diffuses fastest
    return ModelParameters(
        name="P1",
        dim=dim,
        phases=solids + [liquid],
        gamma=gamma,
        tau=tau,
        diffusivities=d,
        temperature=gradient_temperature(T0=T0, G=G, v=v, axis=0),
        epsilon=4.0,
        dx=1.0,
        dt=5e-3,
        gamma_triple=15.0,
        anisotropy=None,
        liquid_phase=3,
        fluctuation_amplitude=fluctuation_amplitude,
    )


def make_p2(
    dim: int = 3,
    delta: float = 0.3,
    orientations_deg: tuple = (10.0, 40.0),
    fluctuation_amplitude: float = 0.0,
    undercooling: float = 0.3,
) -> ModelParameters:
    """Setup P2: binary dendritic solidification (3 phases / 2 components).

    Two solid grains with different cubic-anisotropy orientations compete
    in an undercooled binary melt (constant temperature below liquidus).
    """
    # melting point T_m = 1: ψ_s − ψ_l = 0.25µ + 0.5(T − 1)
    solids = [
        _phase([0.5], [+0.25], -0.5, +0.5),
        _phase([0.5], [+0.25], -0.5, +0.5),
    ]
    liquid = _phase([0.5], [0.0], 0.0, 0.0)
    n = 3
    gamma = np.full((n, n), 1.0)
    np.fill_diagonal(gamma, 0.0)
    tau = np.full((n, n), 1.0)
    d = np.array([0.05, 0.05, 1.0])
    # full 3D misorientations (second Euler angle tilts out of plane) —
    # dense rotation matrices, as for the competing grains of Fig. 4
    rotations = {
        i: rotation_matrix(np.deg2rad(angle), np.deg2rad(15.0))
        for i, angle in enumerate(orientations_deg)
    }
    return ModelParameters(
        name="P2",
        dim=dim,
        phases=solids + [liquid],
        gamma=gamma,
        tau=tau,
        diffusivities=d,
        temperature=constant_temperature(1.0 - undercooling),
        epsilon=4.0,
        dx=1.0,
        dt=5e-3,
        gamma_triple=10.0,
        anisotropy=CubicAnisotropy(delta=delta, rotations=rotations),
        liquid_phase=2,
        fluctuation_amplitude=fluctuation_amplitude,
    )


def make_two_phase_binary(dim: int = 2, anti_trapping: bool = False) -> ModelParameters:
    """Minimal 2-phase / 2-component model used for reference validation."""
    # ψ_s − ψ_l = 0.2µ + 0.5(T − 1): solid favored below T_m = 1
    solid = _phase([0.5], [+0.2], -0.5, +0.5)
    liquid = _phase([0.5], [0.0], 0.0, 0.0)
    gamma = np.array([[0.0, 1.0], [1.0, 0.0]])
    tau = np.ones((2, 2))
    return ModelParameters(
        name="binary2",
        dim=dim,
        phases=[solid, liquid],
        gamma=gamma,
        tau=tau,
        diffusivities=np.array([0.2, 1.0]),
        temperature=constant_temperature(0.8),
        epsilon=4.0,
        dx=1.0,
        dt=5e-3,
        gamma_triple=None,
        liquid_phase=1,
        anti_trapping=anti_trapping,
    )
