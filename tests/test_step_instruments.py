"""What a time step pays for its instruments, and that it pays nothing else.

The schedule is lowered once, and so are its instruments: every scheduled
kernel call and every boundary fill owns one reusable
``SolverProfiler.measure`` block made when the solver is built, and a fill
replays a slice plan made once per array shape.  A step reads clocks and
counters, updates records and records events — it builds no instrument and
no plan.  The plan must fill exactly what the per-axis algorithm it
replaced filled.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.pfm.solver as pfm_solver
from repro.backends.c_backend import c_compiler_available
from repro.lbm import LBMethod, LBMSimulation
from repro.observability import capture_postmortem
from repro.observability.recorder import FlightRecorder, set_recorder
from repro.parallel import BlockForest, DirichletValue, DistributedSolver, fill_ghosts
from repro.parallel.boundary import _fill_plan
from repro.pfm import GrandPotentialModel, SingleBlockSolver, make_two_phase_binary, planar_front
from repro.profiling import SolverProfiler, compile_cached

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


def _lbm(_kernel_set):
    return LBMSimulation(LBMethod(relaxation_rate=1.6), (10, 8), walls=[(1, -1), (1, 1)])


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
        ],
        ids=["single-numpy", "single-c", "forest-2x2", "lbm"],
    )
    def test_a_step_makes_no_measurement_and_no_fill_plan(self, kernel_set, make, monkeypatch):
        solver = make(kernel_set)
        measured = []
        real = SolverProfiler.measure
        monkeypatch.setattr(
            SolverProfiler, "measure",
            lambda self, *args, **kw: measured.append(args) or real(self, *args, **kw),
        )
        solver.step(1)  # a fill plan is made once per array shape, on first use
        plans = _fill_plan.cache_info().misses
        solver.step(5)
        assert measured == []
        assert _fill_plan.cache_info().misses == plans
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


class TestFillPlan:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(case=_fill_cases())
    def test_fills_the_same_bits_as_the_per_axis_algorithm(self, case):
        arr, gl, dim, mode = case
        expected = arr.copy()
        _oracle_fill(expected, gl, dim, mode)
        for _ in range(2):  # the first call makes the plan, the second replays it
            filled = arr.copy()
            fill_ghosts(filled, gl, dim, mode)
            assert filled.tobytes() == expected.tobytes()

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
