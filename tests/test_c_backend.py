"""C backend tests: bitwise parity with the NumPy backend."""

import numpy as np
import pytest
import sympy as sp

from repro.backends import compile_numpy_kernel, create_arrays
from repro.backends.c_backend import (
    c_compiler_available,
    compile_c_kernel,
    generate_c_source,
)
from repro.discretization import FiniteDifferenceDiscretization, discretize_system
from repro.ir import KernelConfig, create_kernel
from repro.symbolic import (
    EvolutionEquation,
    Field,
    PDESystem,
    div,
    grad,
    random_uniform,
    x_,
)

pytestmark = pytest.mark.skipif(
    not c_compiler_available(), reason="no C compiler available"
)


def _heat_kernel(dim, variant="full"):
    f = Field("f", dim)
    f_dst = Field("f_dst", dim)
    eq = EvolutionEquation(f.center(), div(grad(f.center())))
    system = PDESystem([eq], name=f"heat{dim}{variant}")
    disc = FiniteDifferenceDiscretization(dim=dim)
    res = discretize_system(system, f_dst, disc, variant=variant)
    if variant == "full":
        return [create_kernel(res)]
    return [create_kernel(res.flux_kernel), create_kernel(res.main_kernel)]


def _run_both(kernels, shape, gl=1, seed=0, **params):
    rng = np.random.default_rng(seed)
    fields = sorted(set().union(*(k.fields for k in kernels)), key=lambda f: f.name)
    a_np = create_arrays(fields, shape, gl)
    for name in a_np:
        a_np[name][...] = rng.random(a_np[name].shape)
    a_c = {n: v.copy() for n, v in a_np.items()}
    for k in kernels:
        compile_numpy_kernel(k)(a_np, ghost_layers=gl, **params)
        compile_c_kernel(k)(a_c, ghost_layers=gl, **params)
    return a_np, a_c


class TestParity:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_heat_bitwise(self, dim):
        kernels = _heat_kernel(dim)
        shape = (12, 7, 6)[:dim]
        spacings = {f"dx_{d}": 0.1 * (d + 1) for d in range(dim)}
        a_np, a_c = _run_both(kernels, shape, dt=1e-3, **spacings)
        np.testing.assert_array_equal(a_np["f_dst"], a_c["f_dst"])

    def test_split_kernels_bitwise(self):
        kernels = _heat_kernel(2, variant="split")
        a_np, a_c = _run_both(kernels, (10, 8), dt=1e-3, dx_0=0.1, dx_1=0.2)
        np.testing.assert_array_equal(a_np["f_dst"], a_c["f_dst"])

    def test_analytic_coordinates_bitwise(self):
        f = Field("f", 2)
        f_dst = Field("f_dst", 2)
        eq = EvolutionEquation(f.center(), x_[0] ** 2 * div(grad(f.center())))
        disc = FiniteDifferenceDiscretization(dim=2)
        ac = discretize_system(PDESystem([eq], name="coord_heat"), f_dst, disc)
        k = create_kernel(ac)
        a_np, a_c = _run_both([k], (9, 9), dt=1e-3, dx_0=0.3, dx_1=0.3)
        np.testing.assert_allclose(
            a_np["f_dst"][1:-1, 1:-1], a_c["f_dst"][1:-1, 1:-1], rtol=1e-14
        )

    def test_philox_bitwise(self):
        f = Field("f", 2)
        f_dst = Field("f_dst", 2)
        eq = EvolutionEquation(f.center(), random_uniform(-1, 1, stream=0))
        disc = FiniteDifferenceDiscretization(dim=2)
        ac = discretize_system(PDESystem([eq], name="rngk"), f_dst, disc)
        k = create_kernel(ac)
        a_np, a_c = _run_both(
            [k], (8, 8), dt=1.0, dx_0=1.0, dx_1=1.0, time_step=5, seed=11
        )
        np.testing.assert_array_equal(a_np["f_dst"], a_c["f_dst"])

    def test_fastmath_parity(self):
        f = Field("f", 2)
        g = Field("g", 2)
        from repro.symbolic import Assignment, AssignmentCollection

        ac = AssignmentCollection(
            [Assignment(g.center(), 1 / sp.sqrt(f.center() + 2) + 3 / (f.center() + 1))],
            name="fmc",
        )
        k = create_kernel(
            ac, KernelConfig(approximations=("division", "sqrt", "rsqrt"))
        )
        a_np, a_c = _run_both([k], (8, 8))
        np.testing.assert_allclose(
            a_np["g"][1:-1, 1:-1], a_c["g"][1:-1, 1:-1], rtol=1e-6
        )


class TestBinaryModelParity:
    def test_full_time_step(self):
        """One full Algorithm-1 step of the binary model: C == NumPy."""
        from repro.pfm import GrandPotentialModel, make_two_phase_binary, planar_front

        model = GrandPotentialModel(make_two_phase_binary(dim=2))
        ks = model.create_kernels()
        fields = ks.fields
        gl = max(ks.ghost_layers, 1)
        shape = (14, 10)
        phi0 = planar_front(shape, 2, 0, 1, position=5.0, epsilon=4.0)

        results = {}
        for backend, compiler in (
            ("numpy", compile_numpy_kernel),
            ("c", compile_c_kernel),
        ):
            arrays = create_arrays(fields, shape, gl)
            arrays["phi"][gl:-gl, gl:-gl] = phi0
            from repro.parallel.boundary import fill_ghosts

            fill_ghosts(arrays["phi"], gl, 2)
            fill_ghosts(arrays["mu"], gl, 2)
            for k in ks.all_kernels:
                compiler(k)(arrays, ghost_layers=gl, t=0.0)
                if k.name == "phi_project":
                    fill_ghosts(arrays["phi_dst"], gl, 2)
            results[backend] = (arrays["phi_dst"].copy(), arrays["mu_dst"].copy())

        np.testing.assert_allclose(results["c"][0], results["numpy"][0], atol=1e-14)
        np.testing.assert_allclose(results["c"][1], results["numpy"][1], atol=1e-14)


class TestSourceStructure:
    def test_openmp_pragma_present(self):
        (k,) = _heat_kernel(3)
        src = generate_c_source(k)
        assert "#pragma omp parallel for" in src

    def test_restrict_pointers(self):
        (k,) = _heat_kernel(2)
        src = generate_c_source(k)
        assert "double * restrict f_f" in src

    def test_hoisted_temperature_subexpressions(self):
        """Coordinate-only subexpressions must be outside the inner loop."""
        f = Field("f", 2)
        f_dst = Field("f_dst", 2)
        T = 1 + sp.Float(0.25) * x_[0] + sp.sin(x_[0])
        eq = EvolutionEquation(f.center(), T**3 * div(grad(f.center())))
        disc = FiniteDifferenceDiscretization(dim=2)
        ac = discretize_system(PDESystem([eq], name="hoist"), f_dst, disc)
        k = create_kernel(ac)
        assert k.hoisted, "expected hoistable temperature subexpressions"
        src = generate_c_source(k)
        # the x_0 definition must appear before the innermost loop opens
        x_def = src.index("const double x_0")
        inner_loop = src.index("for (int64_t i1")
        assert x_def < inner_loop


class TestArgumentValidation:
    """The native loop nest trusts its extents: bad arrays must raise, not segfault."""

    @pytest.fixture(scope="class")
    def binary_mu(self):
        from repro.pfm import GrandPotentialModel, make_two_phase_binary

        ks = GrandPotentialModel(make_two_phase_binary(dim=2)).create_kernels()
        (mu_kernel,) = ks.mu_kernels
        return ks, compile_c_kernel(mu_kernel)

    @pytest.mark.parametrize(
        "bad_shape",
        [
            (6, 6, 1),     # smaller spatial extent than the first field: exit 139 before
            (10, 10),      # index axis missing
            (10, 10, 2),   # wrong number of components
        ],
    )
    def test_misshaped_field_raises(self, binary_mu, bad_shape):
        ks, mu = binary_mu
        arrays = create_arrays(ks.fields, (8, 8), 1)
        arrays["mu_dst"] = np.zeros(bad_shape)
        with pytest.raises(ValueError, match="mu_dst"):
            mu(arrays, ghost_layers=1, t=0.0)

    def test_well_shaped_arrays_still_run(self, binary_mu):
        ks, mu = binary_mu
        arrays = create_arrays(ks.fields, (8, 8), 1, fill=0.5)
        mu(arrays, ghost_layers=1, t=0.0)
        assert np.isfinite(arrays["mu_dst"]).all()
