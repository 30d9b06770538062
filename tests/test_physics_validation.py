"""Quantitative physics validation of the generated kernels.

These tests validate the *symbolic derivation* itself (not just backend
parity) against independently known solutions:

* with uniform phase fields the µ equation must reduce to pure diffusion
  with the analytically known coefficient M/χ — the decay rate of a sine
  mode is checked against the exact semi-discrete solution,
* a relaxed planar interface is a fixed point of the φ kernel,
* without bulk driving, a solid disk shrinks monotonically under curvature
  (interfacial energy decreases).
"""

import numpy as np
import pytest

from repro.pfm import (
    GrandPotentialModel,
    ModelParameters,
    SingleBlockSolver,
    add_seed,
    constant_temperature,
    make_two_phase_binary,
    planar_front,
)
from repro.pfm.parameters import _phase


@pytest.fixture(scope="module")
def binary_kernels():
    return GrandPotentialModel(make_two_phase_binary(dim=2)).create_kernels()


class TestMuDiffusionLimit:
    def test_sine_mode_decay_matches_analytic_coefficient(self, binary_kernels):
        """Pure liquid, µ = sin(kx): ∂tµ = (M/χ) ∇²µ with M/χ = D_liquid.

        For the binary parameterization: χ = −2A·h(1) = 1, M = D_l·(−2A_l)·
        g(1) = D_l, so the effective diffusivity is exactly D_l = 1.0.
        The check uses the exact *semi-discrete* decay of the 3-point
        Laplacian, so only time-stepping error (O(dt), tiny here) remains.
        """
        params = binary_kernels.model.params
        n = 32
        solver = SingleBlockSolver(binary_kernels, (n, 4), boundary="periodic")
        phi0 = np.zeros((n, 4, 2))
        phi0[..., 1] = 1.0  # pure liquid
        solver.set_state(phi0, mu=0.0)
        k = 2 * np.pi / n
        x = np.arange(n) + 0.5
        mu0 = 1e-3 * np.sin(k * x)
        solver.mu[..., 0] = mu0[:, None]
        solver.sync("mu")

        steps = 400
        solver.step(steps)

        d_eff = params.diffusivities[1]  # liquid
        lam = -d_eff * (2 - 2 * np.cos(k)) / params.dx**2
        growth = (1 + lam * params.dt) ** steps  # discrete Euler decay
        expected = mu0 * growth
        measured = solver.mu[..., 0].mean(axis=1)
        np.testing.assert_allclose(measured, expected, atol=2e-7)
        # and the phase fields stayed exactly pure liquid
        np.testing.assert_allclose(solver.phi[..., 1], 1.0, atol=1e-12)


class TestInterfaceFixedPoint:
    def test_relaxed_planar_interface_is_stationary(self, binary_kernels):
        """After relaxation, the planar profile must stop moving entirely
        when there is no bulk driving force (µ at two-phase equilibrium)."""
        model = binary_kernels.model
        params = model.params
        shape = (32, 4)
        solver = SingleBlockSolver(binary_kernels, shape, boundary=("neumann", "periodic"))
        phi0 = planar_front(shape, 2, 0, 1, position=16.0, epsilon=params.epsilon)
        # equilibrium µ for the binary parabolic model: ψ_s(µ*) = ψ_l(µ*)
        # with A identical: 0.2µ + c1·T = 0 → µ* = −c1 T / 0.2
        T = float(params.temperature.expr)
        # solve ψ_s − ψ_l = 0.2µ − 0.5 + 0.5T = 0
        mu_eq = (0.5 - 0.5 * T) / 0.2
        solver.set_state(phi0, mu=mu_eq)
        solver.step(800)  # relax the profile shape
        relaxed = solver.phi.copy()
        front_before = relaxed[..., 0].sum()
        solver.step(200)
        front_after = solver.phi[..., 0].sum()
        # front motion per step must be vanishingly small at equilibrium
        drift = abs(front_after - front_before) / 200
        assert drift < 1e-4, f"interface drifts {drift} cells²/step at equilibrium"
        # the shape keeps relaxing on a slow diffusive tail; it must only be
        # close to converged, while the front position is already pinned
        np.testing.assert_allclose(solver.phi, relaxed, atol=1e-2)


class TestCurvatureDrivenShrinkage:
    def _neutral_params(self) -> ModelParameters:
        """Two phases with *identical* thermodynamics: no bulk driving."""
        same = _phase([0.5], [0.0], 0.0, 0.0)
        import numpy as np

        return ModelParameters(
            name="neutral",
            dim=2,
            phases=[same, _phase([0.5], [0.0], 0.0, 0.0)],
            gamma=np.array([[0.0, 1.0], [1.0, 0.0]]),
            tau=np.ones((2, 2)),
            diffusivities=np.array([0.5, 0.5]),
            temperature=constant_temperature(1.0),
            epsilon=4.0,
            dt=5e-3,
            anti_trapping=False,
        )

    def test_disk_shrinks_monotonically(self):
        model = GrandPotentialModel(self._neutral_params())
        kernels = model.create_kernels()
        n = 40
        solver = SingleBlockSolver(kernels, (n, n), boundary="periodic")
        phi0 = np.zeros((n, n, 2))
        phi0[..., 1] = 1.0
        phi0 = add_seed(phi0, (n / 2, n / 2), 12.0, 0, 1, 4.0)
        solver.set_state(phi0, mu=0.0)

        areas = [solver.phi[..., 0].sum()]
        for _ in range(6):
            solver.step(100)
            solver.check_invariants()
            areas.append(solver.phi[..., 0].sum())
        diffs = np.diff(areas)
        assert np.all(diffs < 0), f"disk must shrink: {areas}"
        # curvature flow: dA/dt roughly constant while R ≫ interface width
        rates = -diffs[:4]
        assert rates.max() / rates.min() < 1.6, f"dA/dt not ~constant: {rates}"
