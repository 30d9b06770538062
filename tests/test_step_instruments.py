"""What a time step pays for its instruments, and that it pays nothing else.

The schedule is lowered once, and so are its instruments: every scheduled
kernel call and every boundary fill owns one reusable
``SolverProfiler.measure`` block made when the solver is built, and a fill
replays a slice plan made once per array shape — as NumPy slice copies, or
under the C backend as one native call bound once per array.  A step reads
clocks and counters, updates records and records events — it builds no
instrument, no plan and no fill binding.  Both fills must fill exactly
what the per-axis algorithm they replaced filled.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.pfm.solver as pfm_solver
from repro.backends.c_backend import CompiledCFill, c_compiler_available, compile_c_fill
from repro.lbm import LBMethod, LBMSimulation
from repro.observability import capture_postmortem
from repro.observability.recorder import FlightRecorder, set_recorder
from repro.parallel import BlockForest, DirichletValue, DistributedSolver, fill_ghosts
from repro.parallel.boundary import _fill_plan
from repro.pfm import GrandPotentialModel, SingleBlockSolver, make_two_phase_binary, planar_front
from repro.profiling import SolverProfiler, compile_cached
from repro.symbolic import Field

needs_cc = pytest.mark.skipif(not c_compiler_available(), reason="no C compiler available")

SHAPE = (8, 8)


@pytest.fixture(scope="module")
def kernel_set():
    return GrandPotentialModel(make_two_phase_binary(dim=2)).create_kernels()


def _phi0(kernel_set):
    params = kernel_set.model.params
    return planar_front(SHAPE, params.n_phases, 0, 1, position=4.0, epsilon=params.epsilon)


def _single(kernel_set, backend="numpy"):
    solver = SingleBlockSolver(kernel_set, SHAPE, backend=backend)
    solver.set_state(_phi0(kernel_set), mu=0.0)
    return solver


def _forest(kernel_set):
    solver = DistributedSolver(kernel_set, BlockForest(SHAPE, (4, 4), periodic=True))
    phi0 = _phi0(kernel_set)
    solver.set_state_from(
        lambda offset, shape: (phi0[tuple(slice(o, o + s) for o, s in zip(offset, shape))], 0.0)
    )
    return solver


def _lbm(_kernel_set, backend="numpy"):
    return LBMSimulation(
        LBMethod(relaxation_rate=1.6), (10, 8), walls=[(1, -1), (1, 1)], backend=backend
    )


def _expected_records(kernel_set, steps, cells):
    """``{name: (calls, cells)}`` of *steps* steps of the binary schedule."""
    expected = {}
    for op, arg in kernel_set.schedule:
        if op == "sweep":
            expected.update({k.name: (steps, steps * cells) for k in arg})
        else:
            expected[f"fill:{arg}"] = (steps, 0)
    return expected


def _records(profiler):
    return {name: (rec.calls, rec.cells) for name, rec in profiler.records.items()}


class TestStepBuildsNoInstrument:
    @pytest.mark.parametrize(
        "make",
        [
            _single,
            pytest.param(lambda ks: _single(ks, backend="c"), marks=needs_cc),
            _forest,
            _lbm,
            pytest.param(lambda ks: _lbm(ks, backend="c"), marks=needs_cc),
        ],
        ids=["single-numpy", "single-c", "forest-2x2", "lbm", "lbm-c"],
    )
    def test_a_step_makes_no_measurement_and_no_fill_plan(self, kernel_set, make, monkeypatch):
        solver = make(kernel_set)
        native = solver._native_fill
        assert (native is not None) == (solver.fills_ghosts and solver.backend == "c")
        measured, bound = [], []
        real = SolverProfiler.measure
        monkeypatch.setattr(
            SolverProfiler, "measure",
            lambda self, *args, **kw: measured.append(args) or real(self, *args, **kw),
        )
        real_bind = CompiledCFill._bind
        monkeypatch.setattr(
            CompiledCFill, "_bind",
            lambda self, key, arr: bound.append(key) or real_bind(self, key, arr),
        )
        # a fill plan is made once per array shape, and a native fill bound
        # once per array, on first use: both states of every swapped pair
        # are filled by the end of the first step (set_state fills one of
        # them), the LBM's by the end of its second (it has no set_state)
        solver.step(1)
        plans = _fill_plan.cache_info().misses
        if isinstance(solver, LBMSimulation):
            solver.step(1)
        del bound[:]
        solver.step(5)
        assert measured == []
        assert _fill_plan.cache_info().misses == plans
        assert bound == []
        assert solver.profiler.records  # and the step was measured

    def test_reset_starts_every_record_over(self, kernel_set):
        solver = _single(kernel_set)
        solver.step(3)
        assert _records(solver.profiler) == {
            **_expected_records(kernel_set, 3, 64), "fill:phi": (1, 0), "fill:mu": (1, 0),
        }
        solver.profiler.reset()
        solver.step(2)
        assert _records(solver.profiler) == _expected_records(kernel_set, 2, 64)

    def test_two_solvers_of_one_kernel_set_keep_their_own_records(self, kernel_set):
        first, second = _single(kernel_set), _single(kernel_set)
        first.step(3)
        second.step(1)
        phi = kernel_set.phi_kernels[0].name
        assert first.profiler.records[phi].calls == 3
        assert second.profiler.records[phi].calls == 1
        assert first.profiler.records[phi] is not second.profiler.records[phi]

    def test_a_kernel_that_raises_is_the_postmortems_last_kernel(self, kernel_set, monkeypatch):
        (mu,) = kernel_set.mu_kernels

        def compile_raising(kernel, backend):
            compiled = compile_cached(kernel, backend)
            if kernel is not mu:
                return compiled

            def raises(*args, **kwargs):
                raise FloatingPointError("injected fault in the mu sweep")

            return raises

        monkeypatch.setattr(pfm_solver, "compile_cached", compile_raising)
        recorder = FlightRecorder(capacity=None)
        previous = set_recorder(recorder)
        try:
            solver = _single(kernel_set)
            with pytest.raises(FloatingPointError) as excinfo:
                solver.step(1)
        finally:
            set_recorder(previous)
        bundle = capture_postmortem(excinfo.value, recorder=recorder)
        assert bundle["last_kernel"]["name"] == mu.name
        assert [(e.kind, e.name) for e in recorder.events[-2:]] == [
            ("kernel", mu.name), ("op", mu.name),
        ]
        assert solver.profiler.records[mu.name].calls == 1


# -- the fill plan against the per-axis algorithm it replaced ------------------


def _oracle_fill(arr, gl, dim, mode):
    """The per-axis ghost fill as it was before plans (the reference)."""

    def axis_slice(axis, sl):
        index = [slice(None)] * arr.ndim
        index[axis] = sl
        return tuple(index)

    modes = (mode,) * dim if isinstance(mode, str) else tuple(mode)
    for axis in range(dim):
        n = arr.shape[axis]
        m = modes[axis]
        if isinstance(m, DirichletValue):
            value = np.asarray(m.value)
            for layer in range(gl):
                lo_g = axis_slice(axis, slice(layer, layer + 1))
                lo_i = axis_slice(axis, slice(2 * gl - 1 - layer, 2 * gl - layer))
                arr[lo_g] = 2.0 * value - arr[lo_i]
                hi_g = axis_slice(axis, slice(n - 1 - layer, n - layer))
                hi_i = axis_slice(axis, slice(n - 2 * gl + layer, n - 2 * gl + layer + 1))
                arr[hi_g] = 2.0 * value - arr[hi_i]
        elif m == "periodic":
            arr[axis_slice(axis, slice(0, gl))] = arr[axis_slice(axis, slice(n - 2 * gl, n - gl))]
            arr[axis_slice(axis, slice(n - gl, n))] = arr[axis_slice(axis, slice(gl, 2 * gl))]
        else:
            lo_src = arr[axis_slice(axis, slice(gl, 2 * gl))]
            hi_src = arr[axis_slice(axis, slice(n - 2 * gl, n - gl))]
            arr[axis_slice(axis, slice(0, gl))] = np.flip(lo_src, axis=axis)
            arr[axis_slice(axis, slice(n - gl, n))] = np.flip(hi_src, axis=axis)


@st.composite
def _fill_cases(draw):
    dim = draw(st.integers(1, 3))
    gl = draw(st.integers(1, 2))
    index_shape = draw(st.sampled_from([(), (2,), (3, 2)]))
    spatial = tuple(draw(st.integers(3 * gl, 3 * gl + 4)) for _ in range(dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    per_axis = st.sampled_from(["periodic", "neumann"])
    dirichlet = st.builds(
        lambda vector: DirichletValue(rng.standard_normal(index_shape) if vector else 0.25),
        st.booleans(),
    )
    mode = draw(st.one_of(
        per_axis,
        st.tuples(*[per_axis] * dim),
        st.tuples(*[st.one_of(per_axis, dirichlet)] * dim),
    ))
    return rng.standard_normal(spatial + index_shape), gl, dim, mode


def _modes(mode, dim):
    return (mode,) * dim if isinstance(mode, str) else tuple(mode)


def _laid_out(arr, dim, layout):
    """A copy of *arr*: C-ordered (``plain``) or structure-of-arrays (``allocate``)."""
    if layout == "plain":
        return arr.copy()
    out = Field("f", dim, arr.shape[dim:]).allocate(arr.shape[:dim])
    out[...] = arr
    return out


class TestFillPlan:
    @staticmethod
    def _fills_like_the_oracle(case, fill):
        arr, gl, dim, mode = case
        expected = arr.copy()
        _oracle_fill(expected, gl, dim, mode)
        for layout in ("plain", "allocate"):
            filled = _laid_out(arr, dim, layout)
            for _ in range(2):  # the first call plans (and binds), the second replays
                filled[...] = arr
                fill(filled, gl, dim, mode)
                assert filled.tobytes() == expected.tobytes()

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(case=_fill_cases())
    def test_fills_the_same_bits_as_the_per_axis_algorithm(self, case):
        self._fills_like_the_oracle(case, fill_ghosts)

    @needs_cc
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(case=_fill_cases())
    def test_the_native_fill_fills_the_same_bits(self, case):
        native = compile_c_fill()

        def fill(arr, gl, dim, mode):
            assert native(arr, gl, dim, _modes(mode, dim))  # filled, not declined

        self._fills_like_the_oracle(case, fill)

    def test_alternating_shapes_each_get_their_own_plan(self):
        rng = np.random.default_rng(7)
        arrays = [rng.standard_normal((13, 11, 2)), rng.standard_normal((11, 13, 2))]
        misses = _fill_plan.cache_info().misses
        for _ in range(3):
            for arr in arrays:
                filled, expected = arr.copy(), arr.copy()
                fill_ghosts(filled, 2, 2, ("neumann", "periodic"))
                _oracle_fill(expected, 2, 2, ("neumann", "periodic"))
                assert filled.tobytes() == expected.tobytes()
        assert _fill_plan.cache_info().misses == misses + 2

    def test_a_too_short_axis_raises_on_every_call(self):
        arr = np.zeros((5, 8))
        for _ in range(3):
            with pytest.raises(ValueError, match=r"axis 0 too small \(5\) for ghost width 2"):
                fill_ghosts(arr, 2, 2, "periodic")


@needs_cc
class TestNativeFill:
    """The C fill's bindings: one per live array, never served to another."""

    def test_a_replaced_array_is_bound_again(self, kernel_set, monkeypatch):
        bound = []
        real_bind = CompiledCFill._bind
        monkeypatch.setattr(
            CompiledCFill, "_bind",
            lambda self, key, arr: bound.append(key[0]) or real_bind(self, key, arr),
        )
        solvers = {backend: _single(kernel_set, backend) for backend in ("numpy", "c")}
        rng = np.random.default_rng(5)
        kept = []
        for round_ in range(12):
            for backend, solver in solvers.items():
                solver.step(1)
                old = solver.arrays["mu"]
                solver.arrays["mu"] = new = old.copy(order="K")
                # the replaced array stays alive every other round (its
                # address cannot be reused) and dies otherwise (it can)
                if round_ % 2:
                    kept.append(old)
                    old[...] = rng.standard_normal(old.shape)
                    before = old.copy()
                expected = new.copy()
                _oracle_fill(expected, solver.ghost_layers, solver.dim, solver.boundary)
                del bound[:]
                solver.sync("mu")
                assert new.tobytes() == expected.tobytes()
                if round_ % 2:
                    assert old.tobytes() == before.tobytes()  # no fill reached it
                if backend == "c":
                    assert bound == [id(new)]
                del old, new
        for name in ("phi", "mu"):
            assert solvers["c"].arrays[name].tobytes() == solvers["numpy"].arrays[name].tobytes()

    def test_an_array_reshaped_in_place_is_bound_again(self):
        native = compile_c_fill()
        arr = np.random.default_rng(3).standard_normal((10, 8, 2))
        assert native(arr, 1, 2, ("periodic", "neumann"))
        arr.shape = (8, 10, 2)  # same object, same id, another plan
        expected = arr.copy()
        _oracle_fill(expected, 1, 2, ("periodic", "neumann"))
        assert native(arr, 1, 2, ("periodic", "neumann"))
        assert arr.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "arr, mode",
        [
            (np.arange(80, dtype=np.float32).reshape(8, 10), "periodic"),
            (np.arange(80.0).reshape(8, 10), (DirichletValue(np.float32(0.1)), "neumann")),
            # one value per boundary cell, not per component
            (np.arange(160.0).reshape(8, 10, 2), (DirichletValue(np.ones((10, 1))), "periodic")),
        ],
        ids=["float32_array", "float32_value", "per_cell_value"],
    )
    def test_what_it_cannot_address_numpy_fills(self, arr, mode):
        native = compile_c_fill()
        expected = arr.copy()
        _oracle_fill(expected, 1, 2, mode)
        assert not native(arr.copy(), 1, 2, _modes(mode, 2))
        for _ in range(2):
            filled = arr.copy()
            fill_ghosts(filled, 1, 2, mode, native=native)
            assert filled.tobytes() == expected.tobytes()
