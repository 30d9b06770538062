"""C backend tests: bitwise parity with the NumPy backend."""

import ctypes
import os
import re
import shutil
import subprocess

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import compile_numpy_kernel, create_arrays
from repro.backends.c_backend import (
    _BASE_FLAGS,
    c_compiler_available,
    compile_c_kernel,
    generate_c_source,
)
from repro.discretization import FiniteDifferenceDiscretization, discretize_system
from repro.ir import KernelConfig, create_kernel
from repro.observability import get_recorder
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


def _copies(arrays):
    """Copies in the kernels' layout (a plain ``a.copy()`` is C-ordered in the logical shape)."""
    return {name: a.copy(order="K") for name, a in arrays.items()}


def _run_both(kernels, shape, gl=1, seed=0, **params):
    rng = np.random.default_rng(seed)
    fields = sorted(set().union(*(k.fields for k in kernels)), key=lambda f: f.name)
    a_np = create_arrays(fields, shape, gl)
    for name in a_np:
        a_np[name][...] = rng.random(a_np[name].shape)
    a_c = _copies(a_np)
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

    def test_small_integer_powers_are_products_in_both_backends(self):
        """``x**3`` is ``x*x*x`` in C and in NumPy: ``pow`` rounds once, the chain twice."""
        from repro.backends.numpy_backend import generate_numpy_source

        f, g = Field("f", 2), Field("g", 2)
        c = f.center()
        ac = AssignmentCollection(
            [Assignment(g.center(), c**3 + (c + 2) ** -2 + 5 * c**8)], name="pows"
        )
        k = create_kernel(ac)
        assert "pow(" not in generate_c_source(k)
        assert "**" not in generate_numpy_source(k)
        a_np, a_c = _run_both([k], (9, 13))
        assert np.array_equal(a_np["g"].view(np.uint64), a_c["g"].view(np.uint64))


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

    def test_simd_on_the_innermost_loop(self):
        (k,) = _heat_kernel(3)
        lines = [line.strip() for line in generate_c_source(k).splitlines()]
        at = lines.index("#pragma omp simd")
        assert lines[at + 1].startswith("for (int64_t i2")
        assert lines.count("#pragma omp simd") == 1
        (k1,) = _heat_kernel(1)
        assert "#pragma omp parallel for simd schedule(static)" in generate_c_source(k1)

    def test_reduction_kernels_carry_no_simd(self):
        """``simd reduction`` would reorder the sums the diagnostics report."""
        from repro.diagnostics import DiagnosticsSuite
        from repro.pfm import GrandPotentialModel, make_two_phase_binary

        model = GrandPotentialModel(make_two_phase_binary(dim=2))
        src = generate_c_source(DiagnosticsSuite.for_model(model, backend="c").kernel)
        assert "reduction(+:" in src and "simd" not in src

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


def _replace(name, make):
    """A call defect: the entry *name* replaced by ``make(good array)``."""
    return lambda arrays: arrays.__setitem__(name, make(arrays[name]))


def _shrink_all(arrays):
    # C-ordered as well: the size is named first, a layout complaint would mislead
    arrays.update({name: np.zeros((2, 2) + a.shape[2:]) for name, a in arrays.items()})


def _untouched(arrays):
    pass


#: defect -> (what it does to a good array set, call arguments it changes,
#: exception type, what the message must name).  A good call is the binary
#: 2-D mu kernel (fields mu, mu_dst, phi, phi_dst) on 10 x 10 arrays at gl=1
_CALL_DEFECTS = {
    "missing_array": (lambda arrays: arrays.pop("phi_dst"), {}, KeyError, "phi_dst"),
    "list_instead_of_array": (
        _replace("phi", np.ndarray.tolist), {}, TypeError, "array phi must be a numpy.ndarray",
    ),
    "too_few_axes": (
        _replace("mu", lambda a: np.zeros(10)), {}, ValueError, "array mu has shape (10,)",
    ),
    "index_axis_missing": (
        _replace("phi", lambda a: np.zeros((10, 10))), {}, ValueError,
        "array phi has shape (10, 10),",
    ),
    "extent_differs_between_fields": (
        _replace("mu_dst", lambda a: np.zeros((6, 6, 1))), {}, ValueError,
        "array mu_dst has shape (6, 6, 1), expected the extents (10, 10) of array mu",
    ),
    "wrong_component_count": (
        _replace("phi_dst", lambda a: np.zeros((10, 10, 3))), {}, ValueError,
        "array phi_dst has shape (10, 10, 3)",
    ),
    "int64": (
        _replace("phi", lambda a: a.astype(np.int64)), {}, ValueError,
        "array phi must be float64, got int64",
    ),
    "float32": (
        _replace("mu_dst", lambda a: a.astype(np.float32)), {}, ValueError,
        "array mu_dst must be float64, got float32",
    ),
    "axis_shorter_than_its_ghost_layers": (
        _shrink_all, {}, ValueError,
        "array mu with spatial extents (2, 2) too small for 1 ghost layers",
    ),
    "ghost_width_below_the_stencil_reach": (
        _untouched, {"ghost_layers": 0}, ValueError,
        "kernel mu needs at least 1 ghost layers, got 0",
    ),
    "short_block_offset": (_untouched, {"block_offset": (0,)}, ValueError, "block_offset (0,)"),
    "short_origin": (_untouched, {"origin": (0.5,)}, ValueError, "origin (0.5,)"),
}


class TestArgumentValidation:
    """One call check, ``Kernel.check_arrays``: a bad call raises the same error on
    both backends — and raises, the native loop nest trusts its extents."""

    @pytest.mark.parametrize("defect", list(_CALL_DEFECTS))
    def test_a_call_defect_is_the_same_error_on_both_backends(self, binary2d, defect):
        from repro.profiling import compile_cached

        spoil, call, error, names = _CALL_DEFECTS[defect]
        (mu,) = binary2d.mu_kernels
        raised = {}
        for backend in ("numpy", "c"):
            compiled = compile_cached(mu, backend)
            arrays = create_arrays(binary2d.fields, (8, 8), 1, fill=0.5)
            compiled(arrays, ghost_layers=1, t=0.0)     # a bound set is checked anew
            spoil(arrays)
            with pytest.raises(error) as info:
                compiled(arrays, **{"ghost_layers": 1, "t": 0.0, **call})
            raised[backend] = (type(info.value), str(info.value))
        assert raised["numpy"] == raised["c"]
        assert names in raised["c"][1]

    def test_a_restricted_kernel_refuses_a_block_its_interior_does_not_fit(self, binary2d):
        from repro.ir import split_interior_frontier
        from repro.profiling import compile_cached

        interior, _ = split_interior_frontier(binary2d.mu_kernels[0])
        raised = []
        for backend in ("numpy", "c"):
            arrays = create_arrays(binary2d.fields, (1, 1), 1, fill=0.5)
            with pytest.raises(ValueError, match="block too small to hold this margin") as info:
                compile_cached(interior, backend)(arrays, ghost_layers=1, t=0.0)
            raised.append(str(info.value))
        assert raised[0] == raised[1]

    @pytest.mark.parametrize(
        "relayout",
        [
            lambda a: np.ascontiguousarray(a),
            lambda a: np.asfortranarray(a),
            lambda a: np.repeat(a, 2, axis=1)[:, ::2],
        ],
        ids=["c_ordered_logical_shape", "fortran_order", "sliced_view"],
    )
    def test_another_layout_is_the_c_backends_own_refusal(self, binary2d, relayout):
        """NumPy indexes logically and takes any strides, bitwise-equal; C computes addresses."""
        (phi,) = binary2d.phi_kernels
        rng = np.random.default_rng(3)
        good = create_arrays(binary2d.fields, (8, 8), 1)
        for a in good.values():
            a[...] = rng.random(a.shape)
        other = {name: relayout(a) for name, a in good.items()}
        assert other["phi"].strides != good["phi"].strides
        with pytest.raises(ValueError, match="array (mu|phi) has byte strides"):
            compile_c_kernel(phi)(other, ghost_layers=1, t=0.0)
        reference = compile_numpy_kernel(phi)
        reference(good, ghost_layers=1, t=0.0)
        reference(other, ghost_layers=1, t=0.0)
        assert np.array_equal(
            good["phi_dst"].view(np.uint64), other["phi_dst"].view(np.uint64)
        )

    def test_a_nan_input_is_not_a_call_error(self, binary2d):
        """What a field holds is the health monitor's business (PR 14): same bits out."""
        out = {}
        for backend, compiler in (("numpy", compile_numpy_kernel), ("c", compile_c_kernel)):
            arrays = create_arrays(binary2d.fields, (8, 8), 1, fill=0.5)
            arrays["phi"][4, 4, 0] = np.nan
            for kernel in binary2d.phi_kernels:
                compiler(kernel)(arrays, ghost_layers=1, t=0.0)
            out[backend] = arrays["phi_dst"]
        poisoned = np.isnan(out["c"])
        assert poisoned.any() and not poisoned.all()
        # the same cells are NaN (its sign and payload are the FPU's choice),
        # every other cell has the same bits
        assert np.array_equal(np.isnan(out["numpy"]), poisoned)
        assert np.array_equal(
            out["numpy"][~poisoned].view(np.uint64), out["c"][~poisoned].view(np.uint64)
        )

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


    @pytest.mark.parametrize("backend", ["numpy", "c"])
    def test_ghost_width_below_the_stencil_raises(self, binary_mu, backend):
        """``interior = n - 2*gl``: with too few ghost layers the ``i±1`` loads leave the buffer."""
        from repro.profiling import compile_cached

        ks, _ = binary_mu
        (phi,) = ks.phi_kernels
        assert phi.ghost_layers == 1
        compiled = compile_cached(phi, backend)
        arrays = create_arrays(ks.fields, (8, 8), 1, fill=0.5)
        with pytest.raises(ValueError, match="needs at least 1 ghost layers, got 0"):
            compiled(arrays, ghost_layers=0, t=0.0)
        small = create_arrays(ks.fields, (2, 2), 1, fill=0.5)
        with pytest.raises(ValueError, match="too small for 2 ghost layers"):
            compiled(small, ghost_layers=2, t=0.0)
        compiled(arrays, ghost_layers=1, t=0.0)

    def test_too_few_axes_raises(self):
        """A 1-D array under a 2-D kernel would shorten the argument list."""
        f, g = Field("f", 2), Field("g", 2)
        ac = AssignmentCollection([Assignment(g.center(), 2 * f.center())], name="twice")
        twice = compile_c_kernel(create_kernel(ac))
        with pytest.raises(ValueError, match="array f has shape"):
            twice({"f": np.zeros(10), "g": np.zeros(10)}, ghost_layers=1)


def _scalar_kernel():
    """``g = f + t + x_0 + U(0, 1)``: reads every scalar a call can change."""
    f, g = Field("f", 2), Field("g", 2)
    t = sp.Symbol("t", real=True)
    rhs = f.center() + t + x_[0] + random_uniform(0, 1, stream=0)
    return create_kernel(AssignmentCollection([Assignment(g.center(), rhs)], name="scalars"))


def _on_fresh_copies(compiled, arrays, **call):
    """The call on arrays no binding has seen: validated and marshalled anew."""
    fresh = _copies(arrays)
    compiled(fresh, **call)
    return fresh


class TestBinding:
    """An array set is validated once; the binding never outlives or aliases it.

    A repeat call on the same live arrays passes a pre-marshalled argument
    prefix.  Everything that must *not* be served from it is here.
    """

    @pytest.fixture(scope="class")
    def binary_mu(self, binary2d):
        (mu_kernel,) = binary2d.mu_kernels
        return binary2d, compile_c_kernel(mu_kernel)

    @pytest.mark.parametrize(
        "name, replacement",
        [
            ("mu_dst", lambda good: np.zeros((6, 6, 1))),
            ("mu_dst", lambda good: np.zeros((10, 10))),
            ("mu_dst", lambda good: np.zeros((10, 10, 2))),
            ("mu_dst", lambda good: np.zeros((10, 20, 1))[:, ::2]),
            ("mu_dst", lambda good: good.astype(np.float32)),
            # right shape, right size, wrong layout: in bounds, so only the
            # stride comparison stands between these and a wrong answer
            ("phi_dst", lambda good: np.zeros(good.shape)),
            ("mu_dst", lambda good: np.asfortranarray(good)),
            ("phi_dst", lambda good: np.moveaxis(np.zeros((10, 2, 10)), 1, -1)),
        ],
        ids=["smaller", "no_index_axis", "two_components", "strided", "float32",
             "aos_two_components", "fortran_order", "moved_axis_view"],
    )
    def test_replaced_entry_is_validated(self, binary_mu, name, replacement):
        ks, mu = binary_mu
        arrays = create_arrays(ks.fields, (8, 8), 1, fill=0.5)
        mu(arrays, ghost_layers=1, t=0.0)
        mu(arrays, ghost_layers=1, t=0.0)
        arrays[name] = replacement(arrays[name])
        with pytest.raises(ValueError, match=f"array {name} "):
            mu(arrays, ghost_layers=1, t=0.0)

    def test_array_reshaped_in_place_is_validated(self, binary_mu):
        ks, mu = binary_mu
        arrays = create_arrays(ks.fields, (8, 8), 1, fill=0.5)
        mu(arrays, ghost_layers=1, t=0.0)
        arrays["mu_dst"].shape = (5, 20, 1)  # same object, same id
        with pytest.raises(ValueError, match="mu_dst"):
            mu(arrays, ghost_layers=1, t=0.0)

    @pytest.mark.parametrize("shapes", [[(8, 8)], [(8, 8), (5, 11), (12, 3)]],
                             ids=["same_shape", "changing_shape"])
    def test_reallocated_arrays_are_bound_anew(self, binary_mu, shapes):
        """A dead array's recycled ``id`` must not serve its binding to the newcomer."""
        ks, mu = binary_mu
        reference = compile_numpy_kernel(mu.kernel)
        seen, reused = set(), 0
        for round_ in range(60):
            shape = shapes[round_ % len(shapes)]
            rng = np.random.default_rng(round_)
            arrays = create_arrays(ks.fields, shape, 1)
            for a in arrays.values():
                a[...] = rng.random(a.shape)
            ids = {id(a) for a in arrays.values()}
            reused += bool(ids & seen)
            seen |= ids
            expected = {n: a.copy() for n, a in arrays.items()}
            reference(expected, ghost_layers=1, t=0.0)
            mu(arrays, ghost_layers=1, t=0.0)
            np.testing.assert_array_equal(arrays["mu_dst"], expected["mu_dst"])
            del arrays, a
        assert reused, "the allocator never recycled an id: the hazard was not exercised"
        assert not mu._bindings  # every binding died with its arrays

    def test_swapped_entries_are_honoured(self, binary2d):
        """What ``TimeLoop.step`` does to one persistent dict, six steps long."""
        from repro.parallel.boundary import fill_ghosts
        from repro.pfm import planar_front
        from repro.profiling import compile_cached

        ks = binary2d
        kernels = [compile_cached(k, "c") for k in ks.all_kernels]
        shape, gl = (14, 10), 1

        def run(call):
            arrays = create_arrays(ks.fields, shape, gl)
            arrays["phi"][gl:-gl, gl:-gl] = planar_front(shape, 2, 0, 1, position=5.0, epsilon=4.0)
            for name in ("phi", "mu"):
                fill_ghosts(arrays[name], gl, 2)
            for step in range(6):
                for compiled in kernels:
                    call(compiled, arrays, ghost_layers=gl, t=0.0, time_step=step, seed=3)
                    for name in ("phi_dst", "mu_dst"):
                        fill_ghosts(arrays[name], gl, 2)
                for a, b in ks.swaps:
                    arrays[a], arrays[b] = arrays[b], arrays[a]
            return arrays

        def unbound(compiled, arrays, **call):
            for name, a in _on_fresh_copies(compiled, arrays, **call).items():
                arrays[name][...] = a

        bound = run(lambda compiled, arrays, **call: compiled(arrays, **call))
        fresh = run(unbound)
        for name in ("phi", "mu"):
            np.testing.assert_array_equal(bound[name], fresh[name])

    def test_changed_scalars_are_honoured(self):
        """Offset, origin, ghost width, ``t``, ``time_step``, ``seed``: none is served stale."""
        compiled = compile_c_kernel(_scalar_kernel())
        rng = np.random.default_rng(0)
        arrays = create_arrays(compiled.kernel.fields, (6, 6), 2)
        arrays["f"][...] = rng.random(arrays["f"].shape)
        base = dict(ghost_layers=2, dx_0=0.5, t=0.0, time_step=0, seed=0)
        results = []
        for change in (
            {}, {}, {"t": 1.5}, {"block_offset": (3, 0)}, {"origin": (2.0, 0.0)},
            {"ghost_layers": 1}, {"time_step": 4}, {"seed": 9}, {"dx_0": 0.25}, {},
        ):
            call = {**base, **change}
            arrays["g"][...] = 0.0
            expected = _on_fresh_copies(compiled, arrays, **call)
            compiled(arrays, **call)
            np.testing.assert_array_equal(arrays["g"], expected["g"])
            results.append(arrays["g"].copy())
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], results[-1])
        for changed in results[2:-1]:
            assert not np.array_equal(changed, results[0])

    def test_missing_parameter_raises_on_a_bound_set(self):
        compiled = compile_c_kernel(_scalar_kernel())
        arrays = create_arrays(compiled.kernel.fields, (6, 6), 1)
        compiled(arrays, t=0.0, dx_0=1.0)
        with pytest.raises(KeyError, match="missing kernel parameter 't'"):
            compiled(arrays, dx_0=1.0)

    def test_reductions_return_independent_results(self, binary2d):
        from repro.diagnostics import DiagnosticsSuite

        suite = DiagnosticsSuite.for_model(binary2d.model, backend="c")
        compiled = compile_c_kernel(suite.kernel)
        arrays = create_arrays(suite.kernel.fields, (8, 8), 1, fill=0.25)
        first = compiled(arrays, ghost_layers=1, t=0.0)
        kept = dict(first)
        arrays["phi"][...] = 0.5
        second = compiled(arrays, ghost_layers=1, t=0.0)
        assert first == kept and first is not second
        assert second != first
        assert second == compiled(arrays, ghost_layers=1, t=0.0)

    def test_bindings_hold_no_strong_references(self, binary2d):
        """``compile_cached`` outlives every solver; a dead solver's fields must not."""
        import gc
        import weakref

        from repro.pfm import SingleBlockSolver, planar_front
        from repro.profiling import compile_cached

        (phi_kernel,) = binary2d.phi_kernels
        compiled = compile_cached(phi_kernel, "c")
        before = set(compiled._bindings)
        solver = SingleBlockSolver(binary2d, (8, 8), backend="c")
        solver.set_state(planar_front((8, 8), 2, 0, 1, position=4.0, epsilon=4.0))
        solver.step(3)
        bound = set(compiled._bindings) - before
        assert len(bound) == 2  # the two swap states of the block
        fields = [weakref.ref(a) for a in solver.arrays.values()]
        # the recorder's crash-forensics hook is the one other holder
        get_recorder().set_state_provider(None)
        del solver
        gc.collect()
        assert all(ref() is None for ref in fields)
        assert compile_cached(phi_kernel, "c") is compiled
        assert not bound & set(compiled._bindings)

    def test_two_threads_share_one_kernel_set(self, binary2d):
        """ctypes drops the GIL in the native call: no call state may be shared."""
        import sys
        import threading

        from repro.pfm import SingleBlockSolver, planar_front

        def ledger(position, barrier=None):
            solver = SingleBlockSolver(binary2d, (16, 12), backend="c", seed=int(position))
            solver.set_state(planar_front((16, 12), 2, 0, 1, position=position, epsilon=4.0))
            stream = solver.enable_fingerprints(every=1, metrics=False)
            if barrier is not None:
                barrier.wait(timeout=60)
            solver.step(40)
            return [record["digest"] for record in stream.records]

        sequential = [ledger(5.0), ledger(9.0)]
        assert sequential[0] != sequential[1]
        threaded = [None, None]
        barrier = threading.Barrier(2)

        def work(i, position):
            threaded[i] = ledger(position, barrier)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=work, args=(i, position))
                for i, position in enumerate((5.0, 9.0))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert threaded == sequential


class TestLayoutSafety:
    """One layout rule (``Field.strides``): what allocates by it, what a kernel refuses.

    An array in another layout has the shape and the byte size of the right
    one, so a kernel reading it stays in bounds: the failure the bind-time
    stride comparison prevents is a wrong answer, not a crash.
    """

    @given(
        dim=st.integers(1, 3),
        index_shape=st.sampled_from([(), (1,), (4,), (3, 2)]),
        ghost_layers=st.integers(1, 2),
        interior=st.tuples(*[st.integers(1, 5)] * 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_create_arrays_follows_the_rule(self, dim, index_shape, ghost_layers, interior):
        f = Field("f", dim, index_shape=index_shape)
        a = create_arrays([f], interior[:dim], ghost_layers, fill=1.5)["f"]
        spatial = tuple(n + 2 * ghost_layers for n in interior[:dim])
        assert a.shape == spatial + index_shape and a.dtype == np.float64
        assert a.strides == tuple(8 * s for s in f.strides(spatial))
        assert a.strides[dim - 1] == 8                      # unit stride innermost
        # one block per component, the blocks back to back: nothing is padded
        storage = a.base
        assert storage.flags["C_CONTIGUOUS"] and storage.base is None
        assert storage.shape == index_shape + spatial and storage.size == a.size
        assert (a == 1.5).all()

    def test_wrong_layout_is_refused_on_a_first_call_of_every_kernel(self, binary2d):
        """No kernel of a step takes an AoS array, bound before or not."""
        for kernel in binary2d.all_kernels:
            compiled = compile_c_kernel(kernel)
            arrays = create_arrays(binary2d.fields, (8, 8), 1, fill=0.5)
            victim = next(f.name for f in kernel.fields if f.index_shape == (2,))
            arrays[victim] = np.full(arrays[victim].shape, 0.5)
            with pytest.raises(ValueError) as error:
                compiled(arrays, ghost_layers=1, t=0.0)
            message = str(error.value)
            assert f"array {victim} has byte strides (160, 16, 8)" in message
            assert "(80, 8, 800)" in message and "create_arrays" in message

    def test_one_component_field_is_the_same_bytes_in_both_layouts(self, binary2d):
        """``mu`` of the binary model: ``np.zeros(spatial + (1,))`` stays accepted."""
        (mu_kernel,) = binary2d.mu_kernels
        mu = compile_c_kernel(mu_kernel)
        rng = np.random.default_rng(5)
        arrays = create_arrays(binary2d.fields, (8, 13), 1)
        for a in arrays.values():
            a[...] = rng.random(a.shape)
        plain = dict(arrays)
        for name in ("mu", "mu_dst"):
            plain[name] = np.zeros((10, 15, 1))
            plain[name][...] = arrays[name]
            assert plain[name].strides != arrays[name].strides
        mu(arrays, ghost_layers=1, t=0.0)
        mu(plain, ghost_layers=1, t=0.0)
        assert np.array_equal(
            plain["mu_dst"].view(np.uint64), arrays["mu_dst"].view(np.uint64)
        )
        assert np.ptp(arrays["mu_dst"][1:-1, 1:-1]) > 0

    @pytest.mark.parametrize(
        "model, shape, steps",
        [("binary2d", (30, 37), 25), ("p1", (20, 18, 21), 40)],
        ids=["binary2d", "p1"],
    )
    def test_ledgers_are_equal_across_layouts(self, request, model, shape, steps):
        """C on the kernels' layout == NumPy on plain C-ordered logical arrays.

        The NumPy kernels index logically and take any strides; equal ledgers
        over a run show the storage order changes addresses, not arithmetic.
        """
        from repro.pfm import SingleBlockSolver, planar_front

        ks = request.getfixturevalue(model)
        n = ks.model.params.n_phases
        rng = np.random.default_rng(0)
        phi0 = planar_front(shape, n, 0, 1, position=shape[0] / 2.3, epsilon=4.0)
        phi0 = phi0 + 0.05 * rng.random(phi0.shape)
        phi0 /= phi0.sum(axis=-1, keepdims=True)

        ledgers = {}
        for backend in ("c", "numpy"):
            solver = SingleBlockSolver(ks, shape, backend=backend, boundary="neumann", seed=3)
            if backend == "numpy":
                for name, a in solver.arrays.items():
                    solver.arrays[name] = np.ascontiguousarray(a)
                    assert solver.arrays[name].strides != a.strides or a.shape[-1] == 1
            solver.set_state(phi0, mu=0.0)
            stream = solver.enable_fingerprints(every=1, metrics=False)
            solver.step(steps)
            ledgers[backend] = [record["fields"] for record in stream.records]
        assert len(ledgers["c"]) == steps + 1
        assert ledgers["c"] == ledgers["numpy"]
        assert ledgers["c"][0] != ledgers["c"][-1]


@pytest.fixture(scope="module")
def binary2d():
    from repro.pfm import GrandPotentialModel, make_two_phase_binary

    return GrandPotentialModel(make_two_phase_binary(dim=2)).create_kernels()


@pytest.fixture(scope="module")
def binary3d():
    from repro.pfm import GrandPotentialModel, make_two_phase_binary

    return GrandPotentialModel(make_two_phase_binary(dim=3)).create_kernels()


@pytest.fixture(scope="module")
def p1():
    from repro.pfm import GrandPotentialModel, make_p1

    return GrandPotentialModel(make_p1(dim=3)).create_kernels()


def _undefined_symbols(kernel) -> str:
    """``nm -D --undefined-only`` of the cached ``.so`` of a compiled kernel."""
    from repro.profiling import kernel_fingerprint
    from repro.profiling.diskcache import KernelDiskCache, cache_key

    so_path = KernelDiskCache().lookup(
        cache_key(kernel_fingerprint(kernel), flags=_BASE_FLAGS, backend="c")
    )
    assert so_path is not None, kernel.name
    return subprocess.run(
        ["nm", "-D", "--undefined-only", str(so_path)],
        check=True, capture_output=True, text=True,
    ).stdout


class TestMinMaxLowering:
    """``Min``/``Max`` are inline C with NumPy's NaN rule, not libm calls."""

    #: one (phi_0, phi_1) cell per case of the Gibbs-simplex projection
    FINITE_CELLS = [
        (0.25, 0.5),        # inside the simplex faces: only renormalized
        (0.0, 1.0),         # exactly on the bounds
        (1.0, 0.0),
        (-0.25, 1.5),       # below 0 and above 1
        (3.0, 2.0),         # both clipped to 1
        (5e-324, 0.5),      # a denormal survives the clip
        (5e-324, 0.0),      # ... and a denormal sum hits the 1e-300 guard
        (0.0, 0.0),         # all clipped: 0 / 1e-300
        (-1.0, -2.0),
        (np.inf, 0.5),      # ±inf are clipped like any other value
        (-np.inf, 0.5),
        (np.inf, -np.inf),
    ]
    NAN_CELLS = [(np.nan, 0.5), (0.5, np.nan), (np.nan, np.nan), (np.nan, np.inf)]

    def _project(self, ks, cells):
        gl = max(ks.ghost_layers, 1)
        out = {}
        for backend, compiler in (
            ("numpy", compile_numpy_kernel),
            ("c", compile_c_kernel),
        ):
            # 17 cells per row: the vectorized body and the scalar tail both run
            arrays = create_arrays(ks.fields, (len(cells), 17), gl, fill=0.5)
            arrays["phi_dst"][gl:-gl, gl:-gl] = np.asarray(cells)[:, None, :]
            with np.errstate(invalid="ignore"):
                compiler(ks.projection_kernel)(arrays, ghost_layers=gl, t=0.0)
            out[backend] = arrays["phi_dst"][gl:-gl, gl:-gl].copy()
        return out["numpy"], out["c"]

    def test_finite_cells_bitwise_equal(self, binary2d):
        ref, got = self._project(binary2d, self.FINITE_CELLS)
        assert np.isfinite(ref).all()
        assert np.array_equal(ref.view(np.uint64), got.view(np.uint64))
        assert np.array_equal(ref[7], np.zeros((17, 2)))   # the guarded cell

    def test_nan_propagates_like_numpy(self, binary2d):
        """libm's fmax(0, NaN) is 0: the parent projected (NaN, 0.5) to (0, 1)."""
        ref, got = self._project(binary2d, self.NAN_CELLS)
        assert np.isnan(ref).all()
        assert np.isnan(got).all()

    def test_negative_zero_compares_equal(self, binary2d):
        # max(0, -0.0) may be either zero: the helper returns its second
        # operand on a tie (the vmaxpd rule), NumPy's choice depends on the
        # SIMD path it was built with — equal under ==, not bit for bit
        ref, got = self._project(binary2d, [(-0.0, 0.5), (-0.0, -0.0)])
        assert np.array_equal(ref, got)

    def test_nary_arguments_fold_left(self):
        """More than two arguments nest to the left; NaN wins at any position."""
        f, g = Field("f", 1, index_shape=(3,)), Field("g", 1, index_shape=(2,))
        args = [f.center(i) for i in range(3)]
        ac = AssignmentCollection(
            [
                Assignment(g.center(0), sp.Max(*args)),
                Assignment(g.center(1), sp.Min(*args)),
            ],
            name="minmax3",
        )
        k = create_kernel(ac)
        src = generate_c_source(k)
        assert "_max(_max(" in src and "_min(_min(" in src
        cells = [(1.0, 3.0, 2.0), (3.0, 1.0, 2.0), (2.0, 1.0, 3.0)]
        cells += [tuple(np.roll((np.nan, 1.0, 2.0), s)) for s in range(3)]
        a_np = create_arrays(k.fields, (len(cells),), 1)
        a_np["f"][1:-1] = cells
        a_c = _copies(a_np)
        with np.errstate(invalid="ignore"):
            compile_numpy_kernel(k)(a_np, ghost_layers=1)
        compile_c_kernel(k)(a_c, ghost_layers=1)
        assert np.array_equal(a_np["g"][1:4], [(3.0, 1.0)] * 3)
        assert np.array_equal(a_c["g"][1:4], a_np["g"][1:4])
        assert np.isnan(a_np["g"][4:7]).all() and np.isnan(a_c["g"][4:7]).all()

    def test_nan_watchdog_fires_on_phi(self, binary2d):
        """A NaN in φ survives the C step, so the health monitor can see it."""
        from repro.observability import HealthMonitor
        from repro.pfm import SingleBlockSolver, planar_front

        monitor = HealthMonitor(policy="record", interval=1)
        solver = SingleBlockSolver(binary2d, (12, 8), backend="c", health=monitor)
        phi0 = planar_front((12, 8), 2, 0, 1, position=6.0, epsilon=4.0)
        phi0[3, 4, 0] = np.nan
        solver.set_state(phi0, mu=0.0)
        with np.errstate(invalid="ignore"):
            solver.step(1)
        assert ("nan", "phi") in {(e.check, e.field) for e in monitor.events}


@pytest.mark.skipif(shutil.which("nm") is None, reason="nm (binutils) not installed")
class TestNoLibmMinMax:
    """Instruction level: no kernel may call into libm for a minimum or maximum.

    gcc (without ``-ffinite-math-only``) compiles ``fmax``/``fmin`` to a PLT
    call per cell, which also keeps the loop from being vectorized.
    """

    @pytest.fixture(scope="class", params=["binary2d", "binary3d", "p1", "diagnostics"])
    def kernels(self, request):
        from repro.diagnostics import DiagnosticsSuite
        from repro.pfm import GrandPotentialModel, make_two_phase_binary

        if request.param == "diagnostics":
            model = GrandPotentialModel(make_two_phase_binary(dim=2))
            return [DiagnosticsSuite.for_model(model, backend="c").kernel]
        return request.getfixturevalue(request.param).all_kernels

    def test_no_fmin_fmax_in_source_or_symbols(self, kernels):
        for kernel in kernels:
            source = compile_c_kernel(kernel).source
            assert "fmin" not in source and "fmax" not in source, kernel.name
            undefined = _undefined_symbols(kernel)
            assert "fmin" not in undefined and "fmax" not in undefined, (
                kernel.name, undefined
            )


class TestVectorized:
    """Compiler level: gcc reports the innermost loop of every kernel vectorized.

    Every access of the innermost loop is unit-stride (one contiguous block
    per component), so no kernel is exempt.  The P1 loops still need both
    halves of the backend's recipe: without ``-fno-math-errno`` gcc stops at
    "control flow in loop" (the errno branch of ``sqrt``), without ``#pragma
    omp simd`` it finds no vector type for the φ and µ loop bodies.
    """

    @pytest.fixture(
        scope="class",
        params=[(m, v) for m in ("binary2d", "binary3d", "p1") for v in ("full", "split")],
        ids="-".join,
    )
    def kernel_set(self, request):
        model, variant = request.param
        ks = request.getfixturevalue(model)
        if variant == "split":
            ks = ks.model.create_kernels(variant_phi="split", variant_mu="split")
        return model, ks

    @staticmethod
    def _vectorized_lines(source, tmp_path) -> set[int]:
        """Source lines gcc names in a "loop vectorized" report, backend flags."""
        c_path = tmp_path / "k.c"
        c_path.write_text(source)
        cc = os.environ.get("CC", "cc")
        proc = subprocess.run(
            [cc, *_BASE_FLAGS, "-fopenmp", "-fopt-info-vec-optimized",
             "-o", str(tmp_path / "k.so"), str(c_path)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            # only a compiler without the report option or OpenMP excuses the gate
            assert "fopt-info" in proc.stderr or "fopenmp" in proc.stderr, proc.stderr
            pytest.skip(f"{cc} takes no -fopenmp -fopt-info-vec-optimized")
        return {
            int(m.group(1))
            for m in re.finditer(r":(\d+):\d+: optimized: loop vectorized", proc.stderr)
        }

    def test_innermost_loops_are_vectorized(self, kernel_set, tmp_path):
        model, ks = kernel_set
        for kernel in ks.all_kernels:
            source = generate_c_source(kernel)
            lines = [line.strip() for line in source.splitlines()]
            simd = [i for i, line in enumerate(lines) if line == "#pragma omp simd"]
            assert len(simd) == source.count("/* region"), kernel.name
            reported = self._vectorized_lines(source, tmp_path)
            for at in simd:
                # the innermost body holds no brace: the loop ends at the next
                # "}"; gcc names a line of the loop (1-based), not the pragma
                end = lines.index("}", at)
                assert reported & set(range(at + 2, end + 2)), (
                    model, kernel.name, at + 1, sorted(reported)
                )

    @pytest.mark.skipif(shutil.which("nm") is None, reason="nm (binutils) not installed")
    def test_p1_mu_does_not_import_sqrt(self, p1):
        """The errno path was the only reason ``sqrt`` was a libm call."""
        (mu,) = p1.mu_kernels
        assert "sqrt(" in compile_c_kernel(mu).source
        assert "sqrt" not in _undefined_symbols(mu)


class TestSerialFallback:
    def test_compiler_without_openmp_still_gets_the_simd_loop(self, tmp_path, monkeypatch):
        """``-fopenmp`` refused: the retry carries ``-fopenmp-simd``, no libgomp."""
        log = tmp_path / "args.log"
        wrapper = tmp_path / "cc-noomp"
        wrapper.write_text(
            "#!/bin/sh\n"
            f'echo "$@" >> {log}\n'
            'for a in "$@"; do\n'
            '  [ "$a" = -fopenmp ] && { echo "no OpenMP here" >&2; exit 1; }\n'
            "done\n"
            f'exec {shutil.which(os.environ.get("CC", "cc"))} "$@"\n'
        )
        wrapper.chmod(0o755)
        monkeypatch.setenv("CC", str(wrapper))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

        (k,) = _heat_kernel(2)
        a_np, a_c = _run_both([k], (9, 13), dt=1e-3, dx_0=0.1, dx_1=0.2)
        np.testing.assert_array_equal(a_np["f_dst"], a_c["f_dst"])
        refused, built = [a.split() for a in log.read_text().splitlines() if " -o " in a]
        assert "-fopenmp" in refused
        assert "-fopenmp-simd" in built and "-fopenmp" not in built
        if shutil.which("nm"):
            assert "GOMP" not in _undefined_symbols(k)


class TestP1Parity:
    """P1 (4 phases, 3 components) in 3-D, the kernel set that needs the pragma."""

    #: inner extent 13: a vector body and a remainder on any vector width
    SHAPE = (12, 10, 13)
    STEPS = 5

    @staticmethod
    def _phi0(shape):
        from repro.pfm import planar_front

        rng = np.random.default_rng(0)
        phi = planar_front(shape, 4, 0, 1, position=5.3, epsilon=4.0)
        phi = phi + 0.05 * rng.random(phi.shape)     # all four phases present
        return phi / phi.sum(axis=-1, keepdims=True)

    @pytest.fixture(scope="class")
    def c_single(self, p1):
        from repro.pfm import SingleBlockSolver

        solver = SingleBlockSolver(p1, self.SHAPE, backend="c", boundary="neumann", seed=3)
        solver.set_state(self._phi0(self.SHAPE), mu=0.0)
        solver.step(self.STEPS)
        return solver.phi.copy(), solver.mu.copy()

    def test_c_equals_numpy_bitwise(self, p1, c_single):
        from repro.pfm import SingleBlockSolver

        solver = SingleBlockSolver(p1, self.SHAPE, backend="numpy", boundary="neumann", seed=3)
        solver.set_state(self._phi0(self.SHAPE), mu=0.0)
        solver.step(self.STEPS)
        for got, ref in zip(c_single, (solver.phi, solver.mu)):
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_overlapped_forest_equals_single_block(self, p1, c_single):
        """Restricted kernels: interior plus one-cell-thin frontier slabs."""
        from repro.parallel import BlockForest, DistributedSolver

        phi0 = self._phi0(self.SHAPE)

        def init(offset, block_shape):
            return phi0[tuple(slice(o, o + s) for o, s in zip(offset, block_shape))], 0.0

        forest = BlockForest(self.SHAPE, (6, 10, 13), periodic=False)
        solver = DistributedSolver(
            p1, forest, backend="c", wall_mode="neumann", seed=3, overlap=True
        )
        solver.set_state_from(init)
        solver.step(self.STEPS)
        for got, ref in zip((solver.gather("phi"), solver.gather("mu")), c_single):
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


class TestKernelABI:
    """One declaration: prototype, ctypes binding and call check follow ``Kernel.signature``."""

    #: how the C spelling of an argument's type has to reach ctypes
    CTYPES = {
        "double * restrict": ctypes.c_void_p,
        "const int64_t": ctypes.c_int64,
        "const double": ctypes.c_double,
    }

    @pytest.fixture(scope="class")
    def families(self, binary2d, p1):
        """name -> (kernel, whether CUDA lowers it), every kind of kernel the repo builds."""
        from repro.diagnostics import DiagnosticsSuite
        from repro.ir import split_interior_frontier
        from repro.lbm import LBMethod, create_lbm_update

        split = binary2d.model.create_kernels(variant_phi="split", variant_mu="split")
        (mu,) = binary2d.mu_kernels
        interior, frontiers = split_interior_frontier(mu)
        lbm, _, _ = create_lbm_update(LBMethod(relaxation_rate=1.5))
        out = {f"binary2d/{k.name}": (k, True) for k in binary2d.all_kernels}
        out |= {f"p1/{k.name}": (k, True) for k in p1.all_kernels}
        out |= {
            f"split/{k.name}": (k, True) for k in split.phi_kernels + split.mu_kernels
        }
        out |= {k.name: (k, False) for k in (interior, *frontiers)}
        out["diagnostics"] = (DiagnosticsSuite.for_model(binary2d.model).kernel, False)
        out["lbm"] = (create_kernel(lbm), True)
        assert len(out) == 3 + 3 + 4 + 5 + 1 + 1
        return out

    @staticmethod
    def _prototype(source, head):
        """``(function name, [declaration, ...])`` parsed out of an emitted source."""
        m = re.search(re.escape(head) + r" (\w+)\(\n(.*?)\)\n\{", source, re.S)
        return m.group(1), [line.strip() for line in m.group(2).split(",\n")]

    def test_c_prototype_and_argtypes_are_the_signature(self, families):
        for label, (kernel, _) in families.items():
            compiled = compile_c_kernel(kernel)
            name, declared = self._prototype(compiled.source, "void")
            assert name == kernel.c_name and name.isidentifier(), label
            assert declared == [a.declaration() for a in kernel.signature], label
            argtypes = compiled._func.argtypes
            assert len(argtypes) == len(kernel.signature), label
            for decl, ctype in zip(declared, argtypes):
                c_type, _, arg_name = decl.rpartition(" ")
                assert ctype is self.CTYPES[c_type], (label, arg_name)

    def test_signature_shape_follows_the_kind_of_kernel(self, families):
        roles = {label: [a.role for a in k.signature] for label, (k, _) in families.items()}
        assert "sub_lo" in roles["mu:interior"] and "sub_hi" in roles["mu:frontier_a0lo"]
        assert roles["diagnostics"][-1] == "reduce_out"
        for label in ("binary2d/mu", "p1/phi", "split/mu_flux", "lbm"):
            assert not {"sub_lo", "sub_hi", "reduce_out"} & set(roles[label]), label
            assert roles[label][-2:] == ["time_step", "seed"], label

    def test_cuda_prototype_names_the_same_arguments(self, families):
        from repro.backends.cuda_backend import MAPPINGS, generate_cuda_source

        for label, (kernel, lowered) in families.items():
            if not lowered:
                continue
            for mapping in MAPPINGS:
                if mapping == "z_loop" and len(kernel.regions) > 1:
                    continue
                source = generate_cuda_source(kernel, mapping).source
                name, declared = self._prototype(source, 'extern "C" __global__ void')
                assert name == kernel.c_name, label
                assert [d.rpartition(" ")[2] for d in declared] == [
                    a.name for a in kernel.signature
                ], (label, mapping)

    @pytest.mark.parametrize("backend", ["numpy", "c"])
    def test_unfolded_spacing_of_a_coordinate_is_required(self, backend):
        """``f_dst = f + x_0``: C computed with ``h = 1.0`` where NumPy raised."""
        from repro.profiling import compile_cached

        f, f_dst = Field("f", 1), Field("f_dst", 1)
        ac = AssignmentCollection(
            [Assignment(f_dst.center(), f.center() + x_[0])], name="coordinate"
        )
        kernel = create_kernel(ac)
        assert kernel.required_parameters == ("dx_0",)
        compiled = compile_cached(kernel, backend)
        arrays = create_arrays(kernel.fields, (4,), ghost_layers=0)
        with pytest.raises(KeyError, match="missing kernel parameter 'dx_0'"):
            compiled(arrays)
        compiled(arrays, dx_0=0.5)
        np.testing.assert_array_equal(arrays["f_dst"], [0.25, 0.75, 1.25, 1.75])
