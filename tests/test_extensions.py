"""Tests for the extension features: Dirichlet walls, VTK output,
benchmark mode and the performance report."""

import numpy as np
import pytest

from repro.parallel import DirichletValue, fill_ghosts


class TestDirichletBoundary:
    def test_midpoint_holds_value(self):
        arr = np.full((8, 6), 1.0)
        fill_ghosts(arr, 1, 2, mode=(DirichletValue(0.25), "periodic"))
        # wall value = (ghost + first interior) / 2
        np.testing.assert_allclose((arr[0, 1:-1] + arr[1, 1:-1]) / 2, 0.25)
        np.testing.assert_allclose((arr[-1, 1:-1] + arr[-2, 1:-1]) / 2, 0.25)

    def test_two_ghost_layers_mirror(self):
        arr = np.tile(np.arange(10.0)[:, None], (1, 8))
        fill_ghosts(arr, 2, 2, mode=(DirichletValue(1.0), "neumann"))
        np.testing.assert_allclose(arr[0, 2:-2], 2.0 - 3.0)
        np.testing.assert_allclose(arr[1, 2:-2], 2.0 - 2.0)
        np.testing.assert_allclose(arr[-1, 2:-2], 2.0 - 6.0)
        np.testing.assert_allclose(arr[-2, 2:-2], 2.0 - 7.0)

    def test_vector_valued_dirichlet(self):
        arr = np.zeros((6, 6, 3))
        arr[1:-1, 1:-1] = 0.5
        wall = np.array([1.0, 0.0, 0.0])
        fill_ghosts(arr, 1, 2, mode=(DirichletValue(wall), "periodic"))
        np.testing.assert_allclose(arr[0, 1:-1, 0], 2 * 1.0 - 0.5)
        np.testing.assert_allclose(arr[0, 1:-1, 1], -0.5)

    def test_dirichlet_heat_steady_state(self):
        """Heat equation with T=0 / T=1 walls converges to a linear profile."""
        from repro.backends import compile_numpy_kernel, create_arrays
        from repro.discretization import (
            FiniteDifferenceDiscretization,
            discretize_system,
        )
        from repro.ir import create_kernel
        from repro.symbolic import EvolutionEquation, Field, PDESystem, div, grad

        f = Field("f_dbc", 1)
        f_dst = Field("f_dbc_dst", 1)
        eq = EvolutionEquation(f.center(), div(grad(f.center())))
        ac = discretize_system(
            PDESystem([eq], name="dbc"), f_dst, FiniteDifferenceDiscretization(dim=1)
        )
        k = compile_numpy_kernel(create_kernel(ac))
        n = 16
        arrays = create_arrays([f, f_dst], (n,), 1)

        class TwoSided:
            pass

        for _ in range(3000):
            # left wall 0, right wall 1: use per-side values by filling twice
            fill_ghosts(arrays["f_dbc"], 1, 1, mode=(DirichletValue(0.0),))
            arrays["f_dbc"][-1] = 2 * 1.0 - arrays["f_dbc"][-2]
            k(arrays, dt=0.2, dx_0=1.0)
            arrays["f_dbc"], arrays["f_dbc_dst"] = arrays["f_dbc_dst"], arrays["f_dbc"]
        x = (np.arange(n) + 0.5) / n
        np.testing.assert_allclose(arrays["f_dbc"][1:-1], x, atol=1e-6)


class TestVTKOutput:
    def test_structured_points_file(self, tmp_path):
        from repro.analysis import write_vtk

        phi = np.zeros((4, 3, 2))
        phi[0, 0, 0] = 1.0
        p = write_vtk(tmp_path / "out.vtk", {"phi0": phi}, spacing=0.5)
        text = p.read_text()
        assert "DATASET STRUCTURED_POINTS" in text
        assert "DIMENSIONS 5 4 3" in text
        assert "CELL_DATA 24" in text
        assert "SCALARS phi0 double 1" in text
        # first value (x fastest) is our [0,0,0] entry
        data_lines = text.split("LOOKUP_TABLE default\n")[1].splitlines()
        assert float(data_lines[0]) == 1.0

    def test_vector_field_split(self, tmp_path):
        from repro.analysis import write_vtk

        u = np.random.default_rng(0).random((4, 4, 1, 2))
        p = write_vtk(tmp_path / "vec.vtk", {"u": u})
        text = p.read_text()
        assert "SCALARS u_0 double 1" in text and "SCALARS u_1 double 1" in text

    def test_2d_promoted(self, tmp_path):
        from repro.analysis import write_vtk

        p = write_vtk(tmp_path / "f.vtk", {"f": np.ones((3, 3))})
        assert "DIMENSIONS 4 4 2" in p.read_text()

    def test_shape_mismatch_rejected(self, tmp_path):
        from repro.analysis import write_vtk

        with pytest.raises(ValueError, match="shape"):
            write_vtk(
                tmp_path / "bad.vtk",
                {"a": np.ones((3, 3, 3)), "b": np.ones((4, 4, 4))},
            )


class TestBenchmarkMode:
    @pytest.fixture(scope="class")
    def heat_kernel(self):
        from repro.discretization import (
            FiniteDifferenceDiscretization,
            discretize_system,
        )
        from repro.ir import KernelConfig, create_kernel
        from repro.symbolic import EvolutionEquation, Field, PDESystem, div, grad

        f = Field("f_bm", 3)
        f_dst = Field("f_bm_dst", 3)
        eq = EvolutionEquation(f.center(), div(grad(f.center())))
        ac = discretize_system(
            PDESystem([eq], name="bm_heat"),
            f_dst,
            FiniteDifferenceDiscretization(dim=3),
        )
        return create_kernel(
            ac, KernelConfig(parameter_values={"dt": 0.1, "dx_0": 1, "dx_1": 1, "dx_2": 1})
        )

    def test_measurement_runs(self, heat_kernel):
        from repro.backends.c_backend import c_compiler_available
        from repro.perfmodel import measure_kernel

        if not c_compiler_available():
            pytest.skip("no C compiler")
        perf = measure_kernel(heat_kernel, (32, 32, 32), iterations=3, repeats=2)
        assert perf.mlups > 1.0, "heat stencil should exceed 1 MLUP/s"
        assert perf.seconds_per_sweep > 0
        assert perf.cycles_per_lup(2.3) > 0

    @pytest.fixture(scope="class", params=["restricted", "reduction"])
    def non_plain_kernel(self, request):
        """Kernels whose argument list is not the plain one: sub-range, output buffer."""
        from repro.diagnostics import DiagnosticsSuite
        from repro.ir import split_interior_frontier
        from repro.pfm import GrandPotentialModel, make_two_phase_binary

        model = GrandPotentialModel(make_two_phase_binary(dim=2))
        if request.param == "reduction":
            return DiagnosticsSuite.for_model(model).kernel
        (mu,) = model.create_kernels().mu_kernels
        return split_interior_frontier(mu)[0]

    def test_driver_calls_a_non_plain_kernel_by_its_signature(self, non_plain_kernel):
        """The runner calls it through its packed entry: a sub-range, an output block."""
        from repro.backends.c_backend import c_compiler_available
        from repro.perfmodel import measure_kernel

        if not c_compiler_available():
            pytest.skip("no C compiler")
        perf = measure_kernel(non_plain_kernel, (24, 20), iterations=3, repeats=2)
        assert perf.mlups > 0 and perf.cycles_per_lup(2.3) > 0

    def test_a_warm_cache_builds_nothing(self, heat_kernel, cold_cache):
        """It times the ``.so`` a solver calls: the harness was an executable of its own."""
        from repro.backends.c_backend import c_compiler_available, compile_c_fill
        from repro.perfmodel import measure_kernel
        from repro.profiling import compile_cached, disk_cache_stats

        if not c_compiler_available():
            pytest.skip("no C compiler")
        compile_cached(heat_kernel, "c")
        compile_c_fill()  # the runner, which a C solver builds beside its kernels
        builds = disk_cache_stats().builds
        assert measure_kernel(heat_kernel, (8, 8, 8), iterations=1, repeats=1).mlups > 0
        assert disk_cache_stats().builds == builds

    def test_a_lowered_reduction_writes_the_sums_a_call_returns(self):
        """The op of a reduction holds its output block; ``repro_run`` fills it."""
        import ctypes

        from repro.backends.c_backend import c_compiler_available, compile_c_fill, pack_ops
        from repro.backends.numpy_backend import create_arrays
        from repro.diagnostics import DiagnosticsSuite
        from repro.pfm import GrandPotentialModel, make_two_phase_binary
        from repro.profiling import compile_cached

        if not c_compiler_available():
            pytest.skip("no C compiler")
        model = GrandPotentialModel(make_two_phase_binary(dim=2))
        kernel = DiagnosticsSuite.for_model(model).kernel
        arrays = create_arrays(kernel.fields, (24, 20), max(kernel.min_ghost_layers, 1))
        rng = np.random.default_rng(7)
        for a in arrays.values():
            a[...] = rng.random(a.shape)
        params = {name: 0.5 for name in kernel.required_parameters}
        compiled = compile_cached(kernel, "c")
        op = compiled.lower(arrays, **params)
        compile_c_fill().run(
            1, pack_ops([[op]] * 2), 1, 0, (ctypes.c_int64 * 1)(), (ctypes.c_double * 1)(),
            0.0, (ctypes.c_double * 1)(), (ctypes.c_int64 * 2)(),
        )
        n = len(kernel.reductions)
        lowered = np.array(op[2][-n:])
        called = np.array(list(compiled(arrays, **params).values()))
        assert lowered.tobytes() == called.tobytes()


class TestPerformanceReport:
    def test_report_contents(self):
        from repro.discretization import (
            FiniteDifferenceDiscretization,
            discretize_system,
        )
        from repro.ir import KernelConfig, create_kernel
        from repro.perfmodel import performance_report
        from repro.symbolic import EvolutionEquation, Field, PDESystem, div, grad

        f = Field("f_rep", 3)
        f_dst = Field("f_rep_dst", 3)
        eq = EvolutionEquation(f.center(), div(grad(f.center())))
        ac = discretize_system(
            PDESystem([eq], name="rep"), f_dst, FiniteDifferenceDiscretization(dim=3)
        )
        k = create_kernel(
            ac, KernelConfig(parameter_values={"dt": 0.1, "dx_0": 1, "dx_1": 1, "dx_2": 1})
        )
        text = performance_report(k, gpu=True)
        for needle in (
            "operation counts",
            "layer conditions",
            "ECM model",
            "roofline",
            "recommended blocking",
            "GPU (Tesla P100",
        ):
            assert needle in text, f"missing section: {needle}"


class TestSolverSteering:
    @pytest.fixture(scope="class")
    def kernels(self):
        from repro.pfm import GrandPotentialModel, make_two_phase_binary

        return GrandPotentialModel(make_two_phase_binary(dim=2)).create_kernels()

    def test_callbacks_fire(self, kernels):
        from repro.pfm import SingleBlockSolver, planar_front

        s = SingleBlockSolver(kernels, (12, 8))
        s.set_state(planar_front((12, 8), 2, 0, 1, 4.0, 4.0), mu=0.0)
        seen = []
        s.add_callback(lambda sv: seen.append(sv.time_step), every=3)
        s.step(9)
        assert seen == [3, 6, 9]

    def test_callback_can_steer(self, kernels):
        """Computational steering: a callback may modify the live state."""
        from repro.pfm import SingleBlockSolver, planar_front

        s = SingleBlockSolver(kernels, (12, 8))
        s.set_state(planar_front((12, 8), 2, 0, 1, 4.0, 4.0), mu=0.0)

        def freeze(sv):
            sv.mu[...] = 0.0  # clamp the chemical potential

        s.add_callback(freeze, every=1)
        s.step(5)
        np.testing.assert_allclose(s.mu, 0.0)

    def test_invalid_interval(self, kernels):
        from repro.pfm import SingleBlockSolver

        s = SingleBlockSolver(kernels, (12, 8))
        with pytest.raises(ValueError):
            s.add_callback(lambda sv: None, every=0)

    def test_checkpoint_roundtrip(self, kernels, tmp_path):
        from repro.pfm import SingleBlockSolver, planar_front

        s1 = SingleBlockSolver(kernels, (12, 8))
        s1.set_state(planar_front((12, 8), 2, 0, 1, 4.0, 4.0), mu=0.0)
        s1.step(7)
        s1.save_checkpoint(tmp_path / "ckpt.npz")
        s1.step(5)

        s2 = SingleBlockSolver(kernels, (12, 8))
        s2.load_checkpoint(tmp_path / "ckpt.npz")
        assert s2.time_step == 7
        s2.step(5)
        np.testing.assert_array_equal(s2.phi, s1.phi)
        np.testing.assert_array_equal(s2.mu, s1.mu)
