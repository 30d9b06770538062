"""CUDA source generation (structural) and in-situ analysis tests."""

import numpy as np
import pytest
import sympy as sp

from repro.analysis import (
    TimeSeriesWriter,
    extract_interface_cells,
    front_position,
    front_velocity,
    interface_fraction,
    interfacial_area,
    lamellar_spacing,
    load_snapshot,
    overgrown,
    phase_fractions,
    save_snapshot,
    solid_fraction_profile,
    tip_position,
    tip_radius,
    track_tips,
)
from repro.backends.cuda_backend import generate_cuda_source
from repro.discretization import FiniteDifferenceDiscretization, discretize_system
from repro.ir import KernelConfig, create_kernel
from repro.pfm import lamellar_front, planar_front
from repro.symbolic import EvolutionEquation, Field, PDESystem, div, grad, random_uniform


def _kernel(dim=3, rng=False, approx=False):
    f = Field("f", dim)
    f_dst = Field("f_dst", dim)
    rhs = div(grad(f.center()))
    if rng:
        rhs += random_uniform(-1, 1, stream=0)
    eq = EvolutionEquation(f.center(), rhs)
    ac = discretize_system(
        PDESystem([eq], name="cuda_t"), f_dst, FiniteDifferenceDiscretization(dim=dim)
    )
    cfg = KernelConfig(approximations=("division", "rsqrt") if approx else ())
    return create_kernel(ac, cfg)


class TestCudaBackend:
    def test_global_kernel_signature(self):
        src = generate_cuda_source(_kernel()).source
        assert 'extern "C" __global__ void kernel_cuda_t(' in src
        assert "double * __restrict__ f_f" in src

    def test_linear3d_mapping_uses_thread_indices(self):
        src = generate_cuda_source(_kernel(), mapping="linear3d").source
        assert "blockIdx.x * blockDim.x + threadIdx.x" in src
        assert "if (i0 >= n0 || i1 >= n1 || i2 >= n2) return;" in src

    def test_z_loop_mapping_has_serial_loop(self):
        src = generate_cuda_source(_kernel(), mapping="z_loop").source
        assert "for (int64_t i0 = 0;" in src

    def test_unknown_mapping_rejected(self):
        with pytest.raises(ValueError, match="mapping"):
            generate_cuda_source(_kernel(), mapping="warp9")

    def test_philox_device_function(self):
        src = generate_cuda_source(_kernel(rng=True)).source
        assert "__device__ __forceinline__ double _philox_uniform" in src
        assert "_philox_uniform(" in src.split("__global__")[1]

    def test_fast_intrinsics(self):
        src = generate_cuda_source(_kernel(approx=True)).source
        assert "__fdividef" in src

    def test_fence_insertion(self):
        k = _kernel()
        src = generate_cuda_source(k, fence_positions=(1,)).source
        assert "__threadfence_block();" in src

    def test_launch_bounds(self):
        cs = generate_cuda_source(_kernel(), block_dim=(64, 4, 1))
        grid, block = cs.launch_bounds((128, 64, 100))
        assert block == (64, 4, 1)
        assert grid[0] == -(-100 // 64)

    def test_source_deterministic(self):
        a = generate_cuda_source(_kernel()).source
        b = generate_cuda_source(_kernel()).source
        assert a == b

    def test_restricted_kernel_is_refused(self):
        """It printed ``kernel_cuda_t:interior(`` and swept the full block."""
        from repro.ir import split_interior_frontier

        interior, frontiers = split_interior_frontier(_kernel())
        for k in (interior, *frontiers):
            with pytest.raises(ValueError, match="does not lower restricted kernels"):
                generate_cuda_source(k)

    def test_reduction_kernel_is_refused(self):
        """It printed a kernel that computed the densities and stored nothing."""
        import sympy as sp

        from repro.symbolic import Assignment, AssignmentCollection

        total = Assignment(sp.Symbol("red_total", real=True), Field("f", 3).center())
        ac = AssignmentCollection([total], name="total", reduction_symbols=["red_total"])
        with pytest.raises(ValueError, match="does not lower reduction kernels"):
            generate_cuda_source(create_kernel(ac))


class TestMetrics:
    def test_phase_fractions(self):
        phi = planar_front((16, 8), 2, 0, 1, position=8.0, epsilon=2.0)
        fr = phase_fractions(phi)
        assert fr.sum() == pytest.approx(1.0)
        assert fr[0] == pytest.approx(0.5, abs=0.05)

    def test_interface_fraction(self):
        phi = planar_front((32, 8), 2, 0, 1, position=16.0, epsilon=2.0)
        assert 0.05 < interface_fraction(phi) < 0.5

    def test_interfacial_area_flat_front(self):
        """A flat front in a W×L box has area ≈ L (one interface)."""
        phi = planar_front((64, 10), 2, 0, 1, position=32.0, epsilon=3.0)
        area = interfacial_area(phi, 0)
        assert area == pytest.approx(10.0, rel=0.15)

    def test_front_position_matches_construction(self):
        phi = planar_front((40, 8), 2, 0, 1, position=13.0, epsilon=2.0)
        assert front_position(phi, [0]) == pytest.approx(13.0, abs=0.5)

    def test_front_velocity(self):
        v = front_velocity([1.0, 2.0, 4.0], dt_between_samples=0.5)
        np.testing.assert_allclose(v, [2.0, 4.0])

    def test_solid_profile_monotone(self):
        phi = planar_front((40, 8), 2, 0, 1, position=20.0, epsilon=3.0)
        prof = solid_fraction_profile(phi, [0])
        assert prof[0] == pytest.approx(1.0, abs=1e-6)
        assert prof[-1] == pytest.approx(0.0, abs=1e-6)
        assert np.all(np.diff(prof) <= 1e-12)


class TestLamellar:
    def test_spacing_recovered(self):
        """A constructed lamellar pattern must yield its stripe period."""
        phi = lamellar_front(
            (20, 64), 3, solid_phases=[0, 1], liquid_phase=2,
            position=15.0, lamella_width=8.0, epsilon=1.5, lamella_axis=1,
        )
        lam = lamellar_spacing(phi, phase=0, growth_axis=0, lamella_axis=0, position=4)
        assert lam == pytest.approx(16.0, rel=0.1)  # period = 2 x stripe width


class TestDendrite:
    def _dendrite_phi(self):
        shape = (40, 21)
        phi = np.zeros(shape + (2,))
        phi[..., 1] = 1.0
        x, y = np.indices(shape)
        # parabola z = 25 - y'^2 / (2*4): tip radius 4 at (25, 10)
        inside = x <= 25 - (y - 10.0) ** 2 / 8.0
        phi[inside, 0] = 1.0
        phi[inside, 1] = 0.0
        return phi

    def test_tip_position(self):
        phi = self._dendrite_phi()
        pos = tip_position(phi, 0, growth_axis=0)
        assert pos == pytest.approx(25.5, abs=1.0)

    def test_tip_radius(self):
        phi = self._dendrite_phi()
        r = tip_radius(phi, 0, growth_axis=0, fit_cells=5)
        assert r == pytest.approx(4.0, rel=0.4)

    def test_track_and_overgrowth(self):
        phi = self._dendrite_phi()
        states = track_tips(phi, [0, 1], growth_axis=0)
        assert states[0].position > 0
        hist = [states, states]
        # phase 1 is the liquid occupying everything -> not behind; use margin
        assert isinstance(overgrown(hist), set)

    def test_missing_phase_nan(self):
        phi = np.zeros((10, 10, 2))
        phi[..., 1] = 1.0
        assert np.isnan(tip_position(phi, 0))


class TestIO:
    def test_snapshot_roundtrip(self, tmp_path):
        phi = np.random.default_rng(0).random((6, 6, 2))
        mu = np.zeros((6, 6, 1))
        save_snapshot(tmp_path / "state.npz", phi, mu, time=1.5, time_step=300)
        data = load_snapshot(tmp_path / "state.npz")
        np.testing.assert_array_equal(data["phi"], phi)
        assert data["time"] == 1.5 and data["time_step"] == 300

    def test_timeseries(self, tmp_path):
        w = TimeSeriesWriter(tmp_path / "ts.csv", ["step", "front"])
        w.append(step=0, front=1.0)
        w.append(step=1, front=2.5)
        data = w.read()
        np.testing.assert_allclose(data["front"], [1.0, 2.5])

    def test_timeseries_missing_column(self, tmp_path):
        w = TimeSeriesWriter(tmp_path / "ts2.csv", ["a", "b"])
        with pytest.raises(KeyError):
            w.append(a=1)

    def test_interface_extraction_reduces_data(self):
        phi = planar_front((64, 64), 2, 0, 1, position=32.0, epsilon=2.0)
        cells = extract_interface_cells(phi, 0, 1)
        assert 0 < len(cells) < 64 * 64 // 4
        assert cells.shape[1] == 2
