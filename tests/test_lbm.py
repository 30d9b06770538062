"""Lattice Boltzmann extension: lattices, kernels, physics validation."""

import numpy as np
import pytest
import sympy as sp

from repro.lbm import (
    D2Q9,
    D3Q19,
    LBMethod,
    LBMSimulation,
    create_lbm_update,
    equilibrium_pdfs,
)


class TestLattices:
    @pytest.mark.parametrize("lat", [D2Q9, D3Q19], ids=lambda lat: lat.name)
    def test_moments(self, lat):
        lat.validate()  # weights sum, zero first moment, cs² second moment

    @pytest.mark.parametrize("lat", [D2Q9, D3Q19], ids=lambda lat: lat.name)
    def test_opposites(self, lat):
        for i in range(lat.q):
            j = lat.opposite(i)
            assert lat.opposite(j) == i
            assert all(
                a == -b for a, b in zip(lat.velocities[i], lat.velocities[j])
            )

    def test_q_counts(self):
        assert D2Q9.q == 9 and D3Q19.q == 19


class TestMethod:
    def test_equilibrium_moments(self):
        """Σfeq = ρ and Σ c feq = ρu for symbolic ρ, u."""
        m = LBMethod()
        rho = sp.Symbol("rho")
        u = [sp.Symbol("ux"), sp.Symbol("uy")]
        feqs = [m.equilibrium(i, rho, u) for i in range(9)]
        assert sp.expand(sp.Add(*feqs) - rho) == 0
        for d in range(2):
            mom = sp.Add(*[D2Q9.velocities[i][d] * feqs[i] for i in range(9)])
            assert sp.expand(mom - rho * u[d]) == 0

    def test_viscosity_formula(self):
        m = LBMethod(relaxation_rate=1.0)
        assert float(m.viscosity) == pytest.approx(1 / 6)
        m2 = LBMethod(relaxation_rate=2.0)
        assert float(m2.viscosity) == pytest.approx(0.0)

    def test_rest_equilibrium(self):
        eq = equilibrium_pdfs(LBMethod(), rho=1.0, u=(0, 0))
        assert eq[0] == pytest.approx(4 / 9)
        assert sum(eq) == pytest.approx(1.0)

    def test_update_collection_structure(self):
        ac, src, dst = create_lbm_update(LBMethod())
        assert len(ac.main_assignments) == 9
        assert src.index_shape == (9,) and dst.index_shape == (9,)
        assert ac.ghost_layers_required() == 1

    def test_kernel_generation_through_pipeline(self):
        """The LBM kernel goes through the same IR/backends as phase-field."""
        from repro.ir import create_kernel

        ac, _, _ = create_lbm_update(LBMethod(relaxation_rate=1.5))
        k = create_kernel(ac)
        oc = k.operation_count()
        assert oc.loads == 9 and oc.stores == 9
        assert oc.divs >= 1  # 1/rho

    def test_cuda_source_for_lbm(self):
        from repro.backends.cuda_backend import generate_cuda_source
        from repro.ir import create_kernel

        ac, _, _ = create_lbm_update(LBMethod())
        src = generate_cuda_source(create_kernel(ac)).source
        assert "__global__ void kernel_lbm_d2q9" in src


class TestPhysics:
    def test_uniform_state_is_fixed_point(self):
        sim = LBMSimulation(LBMethod(relaxation_rate=1.2), (8, 8))
        before = sim.pdf.copy()
        sim.step(5)
        np.testing.assert_allclose(sim.pdf, before, atol=1e-14)

    def test_mass_conservation_periodic(self):
        sim = LBMSimulation(LBMethod(relaxation_rate=1.7), (12, 10))
        rng = np.random.default_rng(0)
        u0 = 0.02 * rng.standard_normal((12, 10, 2))
        sim.set_velocity(u0)
        m0 = sim.total_mass()
        sim.step(50)
        assert sim.total_mass() == pytest.approx(m0, rel=1e-12)

    def test_momentum_conservation_periodic(self):
        sim = LBMSimulation(LBMethod(relaxation_rate=1.3), (10, 10))
        u0 = np.zeros((10, 10, 2))
        u0[..., 0] = 0.01
        sim.set_velocity(u0)
        sim.step(40)
        u = sim.velocity()
        np.testing.assert_allclose(u[..., 0].mean(), 0.01, rtol=1e-10)

    def test_poiseuille_profile(self):
        """Body-force channel flow matches the analytic parabola (<1 %)."""
        g = 1e-6
        method = LBMethod(relaxation_rate=1.0, force=(0.0, g))
        sim = LBMSimulation(method, (21, 4), walls=[(0, -1), (0, +1)])
        sim.step(3000)
        u = sim.velocity()[..., 1].mean(axis=1)
        nu = float(method.viscosity)
        y = np.arange(21) + 0.5
        analytic = g / (2 * nu) * y * (21.0 - y)
        assert np.abs(u - analytic).max() / analytic.max() < 0.01

    def test_shear_wave_decay_rate(self):
        """A sinusoidal shear wave decays with exp(−ν k² t)."""
        n = 32
        method = LBMethod(relaxation_rate=1.4)
        sim = LBMSimulation(method, (n, n))
        x = (np.arange(n) + 0.5) / n
        u0 = np.zeros((n, n, 2))
        amp = 1e-3
        u0[..., 1] = amp * np.sin(2 * np.pi * x)[:, None]
        sim.set_velocity(u0)
        steps = 200
        sim.step(steps)
        u = sim.velocity()[..., 1]
        amp_now = np.abs(np.fft.fft(u.mean(axis=1))[1]) * 2 / n
        nu = float(method.viscosity)
        k = 2 * np.pi / n
        expected = amp * np.exp(-nu * k**2 * steps)
        assert amp_now == pytest.approx(expected, rel=0.02)

    def test_c_backend_matches_numpy(self):
        from repro.backends.c_backend import c_compiler_available

        if not c_compiler_available():
            pytest.skip("no C compiler")
        rng = np.random.default_rng(1)
        u0 = 0.01 * rng.standard_normal((10, 8, 2))
        results = {}
        for backend in ("numpy", "c"):
            sim = LBMSimulation(LBMethod(relaxation_rate=1.6), (10, 8), backend=backend)
            sim.set_velocity(u0)
            sim.step(10)
            results[backend] = sim.pdf.copy()
        np.testing.assert_array_equal(results["c"], results["numpy"])

    def test_d3q19_runs(self):
        sim = LBMSimulation(LBMethod(lattice=D3Q19, relaxation_rate=1.2), (6, 6, 6))
        m0 = sim.total_mass()
        sim.step(5)
        assert sim.total_mass() == pytest.approx(m0, rel=1e-12)

    def test_wall_shape_validation(self):
        with pytest.raises(ValueError, match="2D shape|needs"):
            LBMSimulation(LBMethod(), (8, 8, 8))


class TestPhaseFieldOnlyFeatures:
    """Checkpoints and diagnostics read φ and µ: an LBM loop is told so by name."""

    @pytest.mark.parametrize("feature", ["save_checkpoint", "load_checkpoint",
                                         "enable_diagnostics"])
    def test_refused_naming_the_missing_state(self, feature, tmp_path):
        sim = LBMSimulation(LBMethod(lattice=D2Q9), (8, 8))
        args = () if feature == "enable_diagnostics" else (tmp_path / "cp",)
        with pytest.raises(ValueError, match=rf"{feature} needs the phase-field state "
                                             r"'phi' and 'mu'; this lbm loop holds"):
            getattr(sim, feature)(*args)
        assert not any(tmp_path.iterdir())  # nothing written on the way
