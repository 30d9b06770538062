"""Integration tests of the grand-potential model: physics on small grids."""

import numpy as np
import pytest

from repro.pfm import (
    GrandPotentialModel,
    SingleBlockSolver,
    add_seed,
    make_two_phase_binary,
    planar_front,
)


@pytest.fixture(scope="module")
def binary_model():
    return GrandPotentialModel(make_two_phase_binary(dim=2))


@pytest.fixture(scope="module")
def binary_kernels_full(binary_model):
    return binary_model.create_kernels(variant_phi="full", variant_mu="full")


@pytest.fixture(scope="module")
def binary_kernels_split(binary_model):
    return binary_model.create_kernels(variant_phi="split", variant_mu="split")


def _front_solver(kernels, shape=(24, 16), position=8.0):
    s = SingleBlockSolver(kernels, shape, boundary=("neumann", "periodic"))
    p = kernels.model.params
    phi0 = planar_front(
        shape, p.n_phases, solid_phase=0, liquid_phase=1,
        position=position, epsilon=p.epsilon,
    )
    s.set_state(phi0, mu=0.0)
    return s


class TestInvariants:
    def test_simplex_preserved(self, binary_kernels_full):
        s = _front_solver(binary_kernels_full)
        s.step(30)
        s.check_invariants()

    def test_bounded_mu(self, binary_kernels_full):
        s = _front_solver(binary_kernels_full)
        s.step(30)
        assert np.all(np.isfinite(s.mu))
        assert np.abs(s.mu).max() < 1.0

    def test_undercooled_melt_solidifies(self, binary_kernels_full):
        s = _front_solver(binary_kernels_full)
        f0 = s.phase_fractions()[0]
        s.step(100)
        f1 = s.phase_fractions()[0]
        assert f1 > f0, "solid fraction must grow in an undercooled melt"

    def test_pure_bulk_is_stationary(self, binary_kernels_full):
        """A single-phase bulk state must not evolve (bulk stability)."""
        s = SingleBlockSolver(binary_kernels_full, (10, 10))
        n = binary_kernels_full.model.params.n_phases
        phi0 = np.zeros((10, 10, n))
        phi0[..., 1] = 1.0  # pure liquid
        s.set_state(phi0, mu=0.0)
        s.step(20)
        np.testing.assert_allclose(s.phi[..., 1], 1.0, atol=1e-12)
        np.testing.assert_allclose(s.mu, 0.0, atol=1e-12)


class TestSplitFullEquivalence:
    def test_split_and_full_trajectories_match(
        self, binary_kernels_full, binary_kernels_split
    ):
        """The µ/φ-split kernels must produce the same physics as the full
        variants (they are algebraically identical rearrangements)."""
        s_full = _front_solver(binary_kernels_full)
        s_split = _front_solver(binary_kernels_split)
        s_full.step(20)
        s_split.step(20)
        np.testing.assert_allclose(s_split.phi, s_full.phi, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(s_split.mu, s_full.mu, rtol=1e-9, atol=1e-12)


class TestSymmetry:
    def test_phase_swap_symmetry(self, binary_model, binary_kernels_full):
        """Mirroring the initial condition mirrors the result."""
        p = binary_model.params
        shape = (20, 12)
        s1 = SingleBlockSolver(binary_kernels_full, shape, boundary="periodic")
        s2 = SingleBlockSolver(binary_kernels_full, shape, boundary="periodic")
        phi0 = planar_front(shape, p.n_phases, 0, 1, position=7.0, epsilon=p.epsilon)
        s1.set_state(phi0, mu=0.0)
        s2.set_state(phi0[::-1].copy(), mu=0.0)
        s1.step(15)
        s2.step(15)
        np.testing.assert_allclose(s2.phi, s1.phi[::-1], rtol=1e-9, atol=1e-11)

    def test_translation_invariance_periodic(self, binary_model, binary_kernels_full):
        p = binary_model.params
        shape = (16, 16)
        seed_phi = np.zeros(shape + (2,))
        seed_phi[..., 1] = 1.0
        seed_phi = add_seed(seed_phi, (8.0, 8.0), 4.0, 0, 1, p.epsilon)
        rolled = np.roll(seed_phi, shift=4, axis=1)
        s1 = SingleBlockSolver(binary_kernels_full, shape, boundary="periodic")
        s2 = SingleBlockSolver(binary_kernels_full, shape, boundary="periodic")
        s1.set_state(seed_phi, mu=0.0)
        s2.set_state(rolled, mu=0.0)
        s1.step(10)
        s2.step(10)
        np.testing.assert_allclose(np.roll(s1.phi, 4, axis=1), s2.phi, rtol=1e-9, atol=1e-11)


class TestProjection:
    def test_projection_restores_simplex(self, binary_model):
        from repro.backends import compile_numpy_kernel, create_arrays
        from repro.ir import create_kernel

        proj = compile_numpy_kernel(create_kernel(binary_model.projection_collection()))
        arrays = create_arrays(proj.kernel.fields, (6, 6), 1)
        rng = np.random.default_rng(0)
        arrays["phi_dst"][...] = rng.normal(0.5, 0.3, arrays["phi_dst"].shape)
        proj(arrays, ghost_layers=1)
        interior = arrays["phi_dst"][1:-1, 1:-1]
        assert np.all(interior >= 0) and np.all(interior <= 1)
        np.testing.assert_allclose(interior.sum(axis=-1), 1.0, rtol=1e-12)


class TestModelStructure:
    def test_energy_density_terms(self, binary_model):
        density = binary_model.energy_density()
        from repro.symbolic import Diff

        assert density.atoms(Diff), "gradient energy missing"

    def test_phi_system_size(self, binary_model):
        system = binary_model.phi_system()
        assert len(system) == binary_model.params.n_phases

    def test_mu_system_size(self, binary_model):
        system = binary_model.mu_system()
        assert len(system) == binary_model.params.n_mu

    def test_lagrange_multiplier_conserves_sum(self, binary_model):
        """Σ_α rhs_α of the φ system must vanish identically (no fluctuations)."""
        import sympy as sp

        system = binary_model.phi_system()
        total = sp.Add(*[eq.rhs for eq in system.equations])
        assert sp.simplify(total) == 0

    def test_configuration_parameter_count(self, binary_model):
        n = binary_model.params.configuration_parameter_count()
        # 2 phases x 2(1+1+1) driving force + 2x1 mobility + 2x1 pairwise
        assert n == 16

    def test_fluctuation_term_appears(self):
        from repro.pfm import make_two_phase_binary
        from repro.symbolic import RandomValue

        p = make_two_phase_binary(dim=2)
        p.fluctuation_amplitude = 0.01
        m = GrandPotentialModel(p)
        system = m.phi_system()
        assert any(eq.rhs.atoms(RandomValue) for eq in system.equations)


class TestP2Setup:
    """Setup P2, as the dendrite example and the sweep's ``p2`` model build it."""

    def test_anisotropic_kernel_set_steps_on_numpy(self):
        from repro.pfm import make_p2

        params = make_p2(dim=2, delta=0.25, orientations_deg=(0.0, 45.0), undercooling=0.35)
        assert (params.n_phases, params.n_mu, params.liquid_phase) == (3, 1, 2)
        for rotation in params.anisotropy.rotations.values():
            rotation = np.asarray(rotation, dtype=float)
            np.testing.assert_allclose(rotation @ rotation.T, np.eye(3), atol=1e-12)
        kernels = GrandPotentialModel(params).create_kernels(
            variant_phi="split", variant_mu="full"
        )
        # the split φ is one kernel on the CPU, its flux field contracted
        assert [k.name for k in kernels.all_kernels] == ["phi", "phi_project", "mu"]
        assert (kernels.variant_phi, kernels.variant_mu) == ("split", "full")
        assert kernels.phi_kernels[0].flux_field is not None
        shape = (24, 24)
        phi0 = np.zeros(shape + (3,))
        phi0[..., 2] = 1.0
        phi0 = add_seed(phi0, (8.0, 8.0), 5.0, 0, 2, params.epsilon)
        phi0 = add_seed(phi0, (16.0, 16.0), 5.0, 1, 2, params.epsilon)
        solver = SingleBlockSolver(kernels, shape, boundary="periodic")
        solver.set_state(phi0, mu=0.0)
        before = solver.phase_fractions()
        assert before[0] == pytest.approx(before[1], rel=1e-14)
        solver.step(5)
        solver.check_invariants()
        after = solver.phase_fractions()
        # both grains grow into the undercooled melt, at rates set by their
        # orientations: the same seed grows differently under another rotation
        assert after[0] > before[0] and after[1] > before[1]
        assert abs(after[0] - after[1]) > 1e-3 * (after[0] - before[0])
