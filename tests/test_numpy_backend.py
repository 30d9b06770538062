"""End-to-end tests of the NumPy backend: pipeline → executable kernel."""

import numpy as np
import pytest
import sympy as sp

from repro.backends import compile_numpy_kernel, create_arrays
from repro.discretization import FiniteDifferenceDiscretization, discretize_system
from repro.ir import KernelConfig, create_kernel
from repro.symbolic import (
    Assignment,
    AssignmentCollection,
    EvolutionEquation,
    Field,
    PDESystem,
    div,
    grad,
    random_uniform,
    x_,
)


def make_heat_kernels(dim=2, variant="full", params=None):
    f = Field("f", dim)
    f_dst = Field("f_dst", dim)
    eq = EvolutionEquation(f.center(), div(grad(f.center())))
    system = PDESystem([eq], name="heat")
    disc = FiniteDifferenceDiscretization(dim=dim)
    result = discretize_system(system, f_dst, disc, variant=variant)
    cfg = KernelConfig(parameter_values=params)
    if variant == "full":
        return [create_kernel(result, cfg)], None
    flux_k = create_kernel(result.flux_kernel, cfg)
    main_k = create_kernel(result.main_kernel, cfg)
    return [flux_k, main_k], result.flux_field


def reference_heat_step(f, dt, h):
    """Hand-written 5-point explicit Euler step on the interior."""
    out = f.copy()
    lap = (
        f[2:, 1:-1] + f[:-2, 1:-1] + f[1:-1, 2:] + f[1:-1, :-2] - 4 * f[1:-1, 1:-1]
    ) / h**2
    out[1:-1, 1:-1] = f[1:-1, 1:-1] + dt * lap
    return out


class TestHeatEquation:
    def test_full_kernel_matches_reference(self):
        kernels, _ = make_heat_kernels()
        (k,) = kernels
        comp = compile_numpy_kernel(k)
        rng = np.random.default_rng(0)
        n = 12
        arrays = create_arrays(k.fields, (n, n), k.ghost_layers)
        arrays["f"][...] = rng.random(arrays["f"].shape)
        dt_v, h = 1e-3, 0.1
        expected = reference_heat_step(arrays["f"], dt_v, h)
        comp(arrays, dt=dt_v, dx_0=h, dx_1=h)
        np.testing.assert_allclose(arrays["f_dst"][1:-1, 1:-1], expected[1:-1, 1:-1], rtol=1e-12)

    def test_constant_folding_gives_same_result(self):
        dt_v, h = 1e-3, 0.1
        kernels, _ = make_heat_kernels(params={"dt": dt_v, "dx_0": h, "dx_1": h})
        (k,) = kernels
        assert not {p.name for p in k.parameters} & {"dt", "dx_0", "dx_1"}
        comp = compile_numpy_kernel(k)
        rng = np.random.default_rng(1)
        arrays = create_arrays(k.fields, (10, 10), k.ghost_layers)
        arrays["f"][...] = rng.random(arrays["f"].shape)
        expected = reference_heat_step(arrays["f"], dt_v, h)
        comp(arrays)
        np.testing.assert_allclose(arrays["f_dst"][1:-1, 1:-1], expected[1:-1, 1:-1], rtol=1e-12)

    def test_split_matches_full(self):
        rng = np.random.default_rng(2)
        n = 9
        init = rng.random((n + 2, n + 2))
        results = {}
        for variant in ("full", "split"):
            kernels, flux_field = make_heat_kernels(variant=variant)
            arrays = create_arrays(
                set().union(*(k.fields for k in kernels)), (n, n), 1
            )
            arrays["f"][...] = init
            for k in kernels:
                compile_numpy_kernel(k)(arrays, dt=1e-3, dx_0=0.1, dx_1=0.1)
            results[variant] = arrays["f_dst"][1:-1, 1:-1].copy()
        np.testing.assert_allclose(results["split"], results["full"], rtol=1e-13)

    def test_3d_heat(self):
        kernels, _ = make_heat_kernels(dim=3)
        (k,) = kernels
        comp = compile_numpy_kernel(k)
        rng = np.random.default_rng(3)
        arrays = create_arrays(k.fields, (6, 6, 6), 1)
        arrays["f"][...] = rng.random(arrays["f"].shape)
        f = arrays["f"]
        h, dt_v = 0.2, 1e-4
        lap = (
            f[2:, 1:-1, 1:-1] + f[:-2, 1:-1, 1:-1]
            + f[1:-1, 2:, 1:-1] + f[1:-1, :-2, 1:-1]
            + f[1:-1, 1:-1, 2:] + f[1:-1, 1:-1, :-2]
            - 6 * f[1:-1, 1:-1, 1:-1]
        ) / h**2
        expected = f[1:-1, 1:-1, 1:-1] + dt_v * lap
        comp(arrays, dt=dt_v, dx_0=h, dx_1=h, dx_2=h)
        np.testing.assert_allclose(arrays["f_dst"][1:-1, 1:-1, 1:-1], expected, rtol=1e-12)


class TestErrorHandling:
    def test_missing_array_raises(self):
        kernels, _ = make_heat_kernels()
        comp = compile_numpy_kernel(kernels[0])
        with pytest.raises(KeyError, match="missing arrays"):
            comp({"f": np.zeros((5, 5))}, dt=1e-3, dx_0=0.1, dx_1=0.1)

    def test_missing_param_raises(self):
        kernels, _ = make_heat_kernels()
        comp = compile_numpy_kernel(kernels[0])
        arrays = create_arrays(kernels[0].fields, (5, 5), 1)
        with pytest.raises(KeyError, match="missing kernel parameter 'dx_0', 'dx_1'"):
            comp(arrays, dt=1e-3)

    def test_shape_mismatch_raises(self):
        kernels, _ = make_heat_kernels()
        comp = compile_numpy_kernel(kernels[0])
        arrays = create_arrays(kernels[0].fields, (5, 5), 1)
        arrays["f_dst"] = np.zeros((9, 9))
        with pytest.raises(ValueError, match="inconsistent spatial shapes"):
            comp(arrays, dt=1e-3, dx_0=0.1, dx_1=0.1)


class TestAnalyticCoordinates:
    def test_coordinate_dependent_source(self):
        """du/dt = x0 — coordinates must evaluate at cell centres."""
        f = Field("f", 2)
        f_dst = Field("f_dst", 2)
        eq = EvolutionEquation(f.center(), x_[0])
        disc = FiniteDifferenceDiscretization(dim=2)
        ac = discretize_system(PDESystem([eq], name="src"), f_dst, disc)
        k = create_kernel(ac)
        comp = compile_numpy_kernel(k)
        n = 8
        arrays = create_arrays(k.fields, (n, n), 1)
        h, dt_v = 0.5, 1.0
        comp(arrays, dt=dt_v, dx_0=h, dx_1=h, ghost_layers=1)
        expected_col = (np.arange(n) + 0.5) * h
        np.testing.assert_allclose(
            arrays["f_dst"][1:-1, 1:-1], np.broadcast_to(expected_col[:, None] * dt_v, (n, n))
        )

    def test_block_offset_shifts_coordinates(self):
        f = Field("f", 2)
        f_dst = Field("f_dst", 2)
        eq = EvolutionEquation(f.center(), x_[1])
        disc = FiniteDifferenceDiscretization(dim=2)
        ac = discretize_system(PDESystem([eq], name="src"), f_dst, disc)
        k = create_kernel(ac)
        comp = compile_numpy_kernel(k)
        n = 4
        arrays = create_arrays(k.fields, (n, n), 1)
        comp(arrays, dt=1.0, dx_0=1.0, dx_1=1.0, block_offset=(0, 10), ghost_layers=1)
        expected_row = np.arange(n) + 10 + 0.5
        np.testing.assert_allclose(arrays["f_dst"][1:-1, 1:-1], np.tile(expected_row, (n, 1)))


class TestRandomKernels:
    def _rng_kernel(self):
        f = Field("f", 2)
        f_dst = Field("f_dst", 2)
        amp = sp.Symbol("amplitude", positive=True)
        eq = EvolutionEquation(f.center(), amp * random_uniform(-1, 1, stream=0))
        disc = FiniteDifferenceDiscretization(dim=2)
        ac = discretize_system(PDESystem([eq], name="noise"), f_dst, disc)
        return create_kernel(ac)

    def test_deterministic_per_timestep(self):
        k = self._rng_kernel()
        comp = compile_numpy_kernel(k)
        arrays = create_arrays(k.fields, (6, 6), 1)
        comp(arrays, dt=1.0, amplitude=1.0, time_step=3, seed=7)
        first = arrays["f_dst"].copy()
        comp(arrays, dt=1.0, amplitude=1.0, time_step=3, seed=7)
        np.testing.assert_array_equal(arrays["f_dst"], first)
        comp(arrays, dt=1.0, amplitude=1.0, time_step=4, seed=7)
        assert not np.array_equal(arrays["f_dst"], first)

    def test_block_offset_matches_global_run(self):
        """Fluctuations must be identical whether computed in one or two blocks."""
        k = self._rng_kernel()
        comp = compile_numpy_kernel(k)
        full = create_arrays(k.fields, (8, 4), 1)
        comp(full, dt=1.0, amplitude=1.0, time_step=1, seed=9)
        left = create_arrays(k.fields, (4, 4), 1)
        right = create_arrays(k.fields, (4, 4), 1)
        comp(left, dt=1.0, amplitude=1.0, time_step=1, seed=9, block_offset=(0, 0))
        comp(right, dt=1.0, amplitude=1.0, time_step=1, seed=9, block_offset=(4, 0))
        np.testing.assert_array_equal(full["f_dst"][1:5, 1:-1], left["f_dst"][1:-1, 1:-1])
        np.testing.assert_array_equal(full["f_dst"][5:9, 1:-1], right["f_dst"][1:-1, 1:-1])

    def test_amplitude_bounds(self):
        k = self._rng_kernel()
        comp = compile_numpy_kernel(k)
        arrays = create_arrays(k.fields, (16, 16), 1)
        comp(arrays, dt=1.0, amplitude=0.5, time_step=0, seed=0)
        interior = arrays["f_dst"][1:-1, 1:-1]
        assert np.all(interior >= -0.5) and np.all(interior < 0.5)
        assert interior.std() > 0.05


class TestApproximations:
    def test_fastmath_close_but_not_exact(self):
        f = Field("f", 2)
        g = Field("g", 2)
        ac = AssignmentCollection(
            [Assignment(g.center(), 1 / sp.sqrt(f.center()) + 1 / f.center())],
            name="fm",
        )
        exact = compile_numpy_kernel(create_kernel(ac))
        approx = compile_numpy_kernel(
            create_kernel(ac, KernelConfig(approximations=("division", "sqrt", "rsqrt")))
        )
        rng = np.random.default_rng(5)
        a1 = create_arrays([f, g], (8, 8), 1)
        a1["f"][...] = rng.random(a1["f"].shape) + 0.5
        a2 = {k: v.copy() for k, v in a1.items()}
        exact(a1)
        approx(a2)
        i1, i2 = a1["g"][1:-1, 1:-1], a2["g"][1:-1, 1:-1]
        np.testing.assert_allclose(i2, i1, rtol=1e-5)
        assert not np.array_equal(i1, i2)
