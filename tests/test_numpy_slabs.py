"""Slab evaluation of the NumPy backend: the number of slabs changes no bit.

A NumPy kernel call runs its generated function once per slab of rows of
the outermost axis (``numpy_backend._SLAB_CELLS`` cells each).  These tests
force the slab size down by monkeypatching that constant and compare every
kernel family with one slab covering the whole block, bit for bit; the
C-parity half compares the slab-evaluated NumPy result with the C backend,
which sweeps the block in one loop nest.  A kernel that reads a field it
writes at a non-zero offset would make all three disagree, so
``create_kernel`` refuses it.
"""

import tracemalloc

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backends import compile_numpy_kernel, create_arrays, numpy_backend
from repro.backends.c_backend import c_compiler_available
from repro.diagnostics import DiagnosticsSuite
from repro.discretization import FiniteDifferenceDiscretization, discretize_system
from repro.ir import create_kernel, split_interior_frontier
from repro.pfm import (
    GrandPotentialModel,
    SingleBlockSolver,
    make_p1,
    make_two_phase_binary,
    planar_front,
)
from repro.profiling import compile_cached
from repro.symbolic import (
    Assignment,
    AssignmentCollection,
    EvolutionEquation,
    Field,
    PDESystem,
    div,
    grad,
    random_uniform,
)

#: one slab covers any block of these tests
WHOLE = 10**9


def _bits(arrays):
    return [np.ascontiguousarray(a).view(np.uint64).copy() for a in arrays]


def _assert_same_bits(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert np.array_equal(g, r)


def _with_slab(cells, run):
    """``run()`` with the slab size forced to *cells*."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numpy_backend, "_SLAB_CELLS", cells)
        return run()


def _state(shape, n_phases, n_mu, seed=0):
    rng = np.random.default_rng(seed)
    phi = planar_front(shape, n_phases, 0, 1, position=shape[0] / 2 + 0.3, epsilon=3.0)
    phi = phi + 0.05 * rng.random(phi.shape)          # every phase present
    phi /= phi.sum(axis=-1, keepdims=True)
    mu = 0.1 * rng.standard_normal(shape + (n_mu,))
    return phi, mu


def _solver_run(kernel_set, shape, backend="numpy", steps=2):
    params = kernel_set.model.params
    phi, mu = _state(shape, params.n_phases, params.n_mu)

    def run():
        solver = SingleBlockSolver(
            kernel_set, shape, backend=backend, boundary="neumann", seed=3
        )
        solver.set_state(phi, mu=mu)
        solver.step(steps)
        return _bits([solver.phi, solver.mu])

    return run


def _kernels_run(kernels, shape, gl, backend="numpy", seed=0, **params):
    """Run *kernels* in order on one random array set; the arrays' bits."""
    fields = sorted(set().union(*(k.fields for k in kernels)), key=lambda f: f.name)
    rng = np.random.default_rng(seed)
    base = create_arrays(fields, shape, gl)
    for a in base.values():
        a[...] = rng.random(a.shape)

    def run():
        arrays = {name: a.copy(order="K") for name, a in base.items()}
        for k in kernels:
            compile_cached(k, backend)(arrays, ghost_layers=gl, **params)
        return _bits(arrays[name] for name in sorted(arrays))

    return run


def _rows_times(row_cells, rows, spare):
    """A slab size of *rows* whole rows plus *spare* cells short of one more."""
    return rows * row_cells + spare % row_cells


@pytest.fixture(scope="module")
def binary2d():
    return GrandPotentialModel(make_two_phase_binary(dim=2)).create_kernels()


@pytest.fixture(scope="module")
def binary2d_split():
    model = GrandPotentialModel(make_two_phase_binary(dim=2))
    return model.create_kernels(variant_phi="split", variant_mu="split")


@pytest.fixture(scope="module")
def binary3d():
    return GrandPotentialModel(make_two_phase_binary(dim=3)).create_kernels()


@pytest.fixture(scope="module")
def binary3d_split():
    model = GrandPotentialModel(make_two_phase_binary(dim=3))
    return model.create_kernels(variant_phi="split", variant_mu="split")


@pytest.fixture(scope="module")
def p1():
    return GrandPotentialModel(make_p1(dim=3)).create_kernels()


@pytest.fixture(scope="module")
def diagnostics(binary2d):
    return DiagnosticsSuite.for_model(binary2d.model)


def _noise_kernel():
    f, f_dst = Field("f", 2), Field("f_dst", 2)
    amp = sp.Symbol("amplitude", positive=True)
    eq = EvolutionEquation(f.center(), amp * random_uniform(-1, 1, stream=0))
    disc = FiniteDifferenceDiscretization(dim=2)
    return create_kernel(discretize_system(PDESystem([eq], name="noise"), f_dst, disc))


def _heat1d_kernel():
    f, f_dst = Field("f", 1), Field("f_dst", 1)
    eq = EvolutionEquation(f.center(), div(grad(f.center())))
    disc = FiniteDifferenceDiscretization(dim=1)
    return create_kernel(discretize_system(PDESystem([eq], name="heat1d"), f_dst, disc))


#: slab rows drawn from the whole axis; the axes below are prime or odd, so
#: most draws leave a ragged last slab
ROWS = st.integers(1, 13)
SPARE = st.integers(0, 10**6)


class TestSlabInvariance:
    """Every kernel family: forced slab sizes give the bits of one slab."""

    def test_slabs_tile_the_rows_once_in_order(self, monkeypatch):
        monkeypatch.setattr(numpy_backend, "_SLAB_CELLS", 7 * 12 + 5)
        slabs = list(numpy_backend._slabs(3, 40, (99, 4, 3)))
        assert slabs == [(3, 10), (10, 17), (17, 24), (24, 31), (31, 38), (38, 40)]
        monkeypatch.setattr(numpy_backend, "_SLAB_CELLS", 1)   # never below one row
        assert list(numpy_backend._slabs(0, 3, (3, 50))) == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize("variant", ["full", "split"])
    @given(rows=ROWS, spare=SPARE)
    @example(rows=4, spare=0).via("ragged last slab")
    @example(rows=1, spare=0).via("one row per slab")
    @settings(max_examples=6, deadline=None)
    def test_binary_2d(self, binary2d, binary2d_split, variant, rows, spare):
        kernel_set = binary2d if variant == "full" else binary2d_split
        shape = (13, 11)
        run = _solver_run(kernel_set, shape)
        ref = _with_slab(WHOLE, run)
        _assert_same_bits(_with_slab(_rows_times(shape[1], rows, spare), run), ref)

    @pytest.mark.parametrize("variant", ["full", "split"])
    @given(rows=st.integers(1, 7), spare=SPARE)
    @example(rows=2, spare=0).via("ragged last slab")
    @settings(max_examples=4, deadline=None)
    def test_binary_3d(self, binary3d, binary3d_split, variant, rows, spare):
        kernel_set = binary3d if variant == "full" else binary3d_split
        shape = (7, 5, 6)
        run = _solver_run(kernel_set, shape)
        ref = _with_slab(WHOLE, run)
        _assert_same_bits(_with_slab(_rows_times(5 * 6, rows, spare), run), ref)

    @given(rows=st.integers(1, 7), spare=SPARE)
    @example(rows=2, spare=0).via("ragged last slab")
    @settings(max_examples=3, deadline=None)
    def test_p1_3d_with_a_temperature_gradient(self, p1, rows, spare):
        assert p1.mu_kernels[0].coordinate_axes           # the µ kernel reads x
        shape = (7, 4, 5)
        run = _solver_run(p1, shape, steps=1)
        ref = _with_slab(WHOLE, run)
        _assert_same_bits(_with_slab(_rows_times(4 * 5, rows, spare), run), ref)

    @given(rows=ROWS, spare=SPARE)
    @example(rows=3, spare=0).via("ragged last slab")
    @settings(max_examples=6, deadline=None)
    def test_overlapped_mu_interior_and_frontiers(self, binary3d, rows, spare):
        """``mu:interior`` then every ``mu:frontier_*``, as the overlapped schedule runs them."""
        (mu,) = binary3d.mu_kernels
        interior, frontiers = split_interior_frontier(mu)
        shape = (13, 5, 6)
        run = _kernels_run(
            [interior, *frontiers], shape, gl=1, t=0.0, time_step=0, seed=1
        )
        ref = _with_slab(WHOLE, run)
        _assert_same_bits(_with_slab(_rows_times(5 * 6, rows, spare), run), ref)
        # the restricted sweeps together are the full sweep
        _assert_same_bits(
            ref, _kernels_run([mu], shape, gl=1, t=0.0, time_step=0, seed=1)()
        )

    @given(rows=ROWS, spare=SPARE, time_step=st.integers(0, 3))
    @example(rows=5, spare=0, time_step=1).via("ragged last slab")
    @settings(max_examples=8, deadline=None)
    def test_philox_fluctuations(self, rows, spare, time_step):
        shape = (13, 6)
        run = _kernels_run(
            [_noise_kernel()], shape, gl=1,
            dt=1.0, amplitude=1.0, time_step=time_step, seed=9, block_offset=(40, 2),
        )
        ref = _with_slab(WHOLE, run)
        _assert_same_bits(_with_slab(_rows_times(6, rows, spare), run), ref)

    @given(rows=st.integers(1, 29), gl=st.integers(1, 2))
    @example(rows=4, gl=1).via("ragged last slab")
    @settings(max_examples=8, deadline=None)
    def test_heat_1d(self, rows, gl):
        run = _kernels_run([_heat1d_kernel()], (29,), gl=gl, dt=1e-3, dx_0=0.1)
        ref = _with_slab(WHOLE, run)
        _assert_same_bits(_with_slab(rows, run), ref)

    @pytest.mark.parametrize("tile_shape", [None, (5, 4)])
    @given(rows=ROWS, spare=SPARE)
    @example(rows=4, spare=0).via("ragged last slab")
    @settings(max_examples=6, deadline=None)
    def test_diagnostics_reduction(self, diagnostics, tile_shape, rows, spare):
        suite = diagnostics
        shape = (13, 11)
        phi, mu = _state(shape, 2, 1)
        arrays = create_arrays(suite.kernel.fields, shape, 1)
        arrays["phi"][1:-1, 1:-1] = phi
        arrays["mu"][1:-1, 1:-1] = mu

        def run():
            return suite.evaluate(
                arrays, ghost_layers=1, tile_shape=tile_shape,
                t=0.0, time_step=0, seed=0,
            )

        ref = _with_slab(WHOLE, run)
        got = _with_slab(_rows_times(shape[1], rows, spare), run)
        assert list(got) == list(ref)
        assert [np.float64(v).view(np.uint64) for v in got.values()] == [
            np.float64(v).view(np.uint64) for v in ref.values()
        ]

    def test_a_constant_density_fills_every_slab(self, monkeypatch):
        """A reduction output that folds to a constant is a scalar per slab."""
        f = Field("f", 2)
        one, mass = sp.Symbol("red_one"), sp.Symbol("red_mass")
        ac = AssignmentCollection(
            [Assignment(one, sp.Integer(1)), Assignment(mass, f.center())],
            name="count", reduction_symbols=["red_one", "red_mass"],
        )
        compiled = compile_numpy_kernel(create_kernel(ac))
        arrays = create_arrays([f], (9, 4), 0, fill=0.25)
        monkeypatch.setattr(numpy_backend, "_SLAB_CELLS", 8)
        assert compiled(arrays, ghost_layers=0) == {"red_one": 36.0, "red_mass": 9.0}

    # -- C parity: the slab-evaluated NumPy result is the C loop nest's --------

    @pytest.mark.parametrize("family", ["binary2d", "binary2d_split", "binary3d_split", "p1"])
    @given(rows=st.integers(1, 6), spare=SPARE)
    @example(rows=2, spare=0).via("ragged last slab")
    @settings(max_examples=2, deadline=None)
    def test_slabs_equal_the_c_backend(self, request, family, rows, spare):
        if not c_compiler_available():
            pytest.skip("no C compiler")
        kernel_set = request.getfixturevalue(family)
        shape = (7, 5, 6)[: kernel_set.model.params.dim]
        row_cells = int(np.prod(shape[1:]))
        c_bits = _solver_run(kernel_set, shape, backend="c", steps=1)()
        numpy_bits = _with_slab(
            _rows_times(row_cells, rows, spare),
            _solver_run(kernel_set, shape, steps=1),
        )
        _assert_same_bits(numpy_bits, c_bits)


class TestNeighbourReadOfAWrittenField:
    """``create_kernel`` refuses a kernel that reads a field it writes at an offset."""

    @staticmethod
    def _in_place(offset):
        f, g = Field("f", 2), Field("g", 2)
        rhs = 0.5 * (f[offset] + f.center()) + g.center()
        return AssignmentCollection([Assignment(f.center(), rhs)], name="in_place")

    @pytest.mark.parametrize("backend", ["numpy", "c"])
    @pytest.mark.parametrize("offset", [(1, 0), (0, -1)])
    def test_refused_for_either_backend(self, backend, offset):
        if backend == "c" and not c_compiler_available():
            pytest.skip("no C compiler")
        with pytest.raises(
            ValueError,
            match=rf"kernel in_place reads field f at offset \({offset[0]}, {offset[1]}\) "
            "while writing it",
        ):
            compile_cached(create_kernel(self._in_place(offset)), backend)

    @pytest.mark.parametrize("backend", ["numpy", "c"])
    def test_a_read_of_the_own_cell_is_accepted(self, backend):
        """Offset zero involves only the cell itself: same bits, slabs or not, C or NumPy."""
        if backend == "c" and not c_compiler_available():
            pytest.skip("no C compiler")
        kernel = create_kernel(self._in_place((0, 0)))
        ref = _with_slab(WHOLE, _kernels_run([kernel], (9, 5), gl=1))
        got = _with_slab(10, _kernels_run([kernel], (9, 5), gl=1, backend=backend))
        _assert_same_bits(got, ref)


class TestSlabMemory:
    """The peak of a NumPy sweep is one slab's temporaries, not the block's.

    ``tracemalloc`` counts NumPy's data allocations, so the bound cannot
    flip with host speed.  Measured on the whole-block evaluation this
    replaced: 58.0 MiB for the step (bound 11.25 MiB) and 24.1 MiB for the
    diagnostics evaluation (bound 17.5 MiB); with slabs, 7.3 and 14.0 MiB.
    """

    N = 512

    @staticmethod
    def _peak(run):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    @staticmethod
    def _slab_share(kernels, row_cells):
        """Bytes of one slab times the statements of the longest kernel.

        Each line of a generated function binds at most one new slab-sized
        array (a field read is a view); the expression of a line holds a
        few intermediates, counted by the same number of spare lines.
        """
        rows = max(1, numpy_backend._SLAB_CELLS // row_cells)
        lines = max(compile_numpy_kernel(k).source.count("\n") for k in kernels)
        return lines * rows * row_cells * 8

    def test_one_binary_step(self, binary2d):
        n = self.N
        solver = SingleBlockSolver(binary2d, (n, n), backend="numpy")
        phi, _ = _state((n, n), 2, 1)
        solver.set_state(phi, mu=0.0)
        solver.step(1)                                    # compile outside the trace
        bound = self._slab_share(binary2d.all_kernels, n)
        assert self._peak(lambda: solver.step(1)) <= bound

    def test_one_diagnostics_evaluation(self, diagnostics):
        n = self.N
        suite = diagnostics
        arrays = create_arrays(suite.kernel.fields, (n, n), 1)
        phi, _ = _state((n, n), 2, 1)
        arrays["phi"][1:-1, 1:-1] = phi

        def run():
            suite.evaluate(arrays, ghost_layers=1, t=0.0, time_step=0, seed=0)

        run()
        values = len(suite.kernel.reductions) * n * n * 8
        bound = self._slab_share([suite.kernel], n) + values
        assert self._peak(run) <= bound
