"""What a time step pays for its instruments, and that it pays nothing else.

The schedule is lowered once, and so are its instruments: every scheduled
kernel call and every boundary fill owns one reusable
``SolverProfiler.measure`` block made when the solver is built, and a fill
replays a slice plan made once per array shape — as NumPy slice copies, or
under the C backend as one native call bound once per array.  A step reads
clocks and counters, updates records and records events — it builds no
instrument, no plan and no fill binding.  Both fills must fill exactly
what the per-axis algorithm they replaced filled.  A one-block C solver
runs its steps as native batches, which must equal the per-op path bit
for bit and account the same records.
"""

import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.pfm.solver as pfm_solver
from repro.backends.c_backend import CompiledCFill, c_compiler_available, compile_c_fill
from repro.lbm import LBMethod, LBMSimulation
from repro.observability import HealthMonitor, capture_postmortem
from repro.observability.hwcounters import CounterHarness, CounterSample, set_counter_harness
from repro.observability.recorder import FlightRecorder, load_journal, set_recorder
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


# -- the native batch ----------------------------------------------------------


def _per_op(monkeypatch, module, make):
    """*make()* with every kernel behind a plain Python callable: the per-op path."""
    real = module.compile_cached

    def compile_wrapped(kernel, backend):
        compiled = real(kernel, backend)
        return lambda *args, **kwargs: compiled(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(module, "compile_cached", compile_wrapped)
        return make()


@pytest.fixture(scope="module")
def binary3d():
    return GrandPotentialModel(make_two_phase_binary(dim=3)).create_kernels()


@pytest.fixture(scope="module")
def philox2d():
    """Binary 2-D with fluctuations: the kernels read ``time_step`` and ``seed``."""
    params = make_two_phase_binary(dim=2)
    params.fluctuation_amplitude = 0.02
    return GrandPotentialModel(params).create_kernels()


def _boundary(name):
    # a fresh DirichletValue per solver: a callback steers each one's own
    return {
        "periodic": "periodic",
        "neumann": "neumann",
        "dirichlet": (DirichletValue(np.array([0.25])), "periodic"),
    }[name]


def _nudge(solver):
    """Steering between batches: one interior cell, and a Dirichlet value."""
    if isinstance(solver, LBMSimulation):
        solver.pdf[(1,) * solver.dim] *= 1.001
        return
    solver.mu[(1,) * solver.dim] += 1e-3
    if isinstance(solver.boundary, tuple):
        solver.boundary[0].value += 0.01


@needs_cc
class TestNativeBatch:
    """``step(n)`` of a one-block C solver as one ``repro_run`` call per batch."""

    @staticmethod
    def _pfm(kernels, shape, boundary, seed=0):
        params = kernels.model.params

        def make():
            solver = SingleBlockSolver(
                kernels, shape, boundary=_boundary(boundary), backend="c", seed=seed
            )
            phi = planar_front(shape, params.n_phases, 0, 1, position=shape[0] / 2 + 0.3,
                               epsilon=params.epsilon)
            rng = np.random.default_rng(1)
            phi = phi + 0.05 * rng.random(phi.shape)
            solver.set_state(phi / phi.sum(axis=-1, keepdims=True), mu=0.0)
            return solver

        return make

    @staticmethod
    def _lbm():
        sim = LBMSimulation(LBMethod(relaxation_rate=1.6), (10, 8), backend="c")
        sim.pdf[...] *= 1 + 0.01 * np.random.default_rng(2).random(sim.pdf.shape)
        return sim

    def _pair(self, monkeypatch, case, kernels):
        if case == "lbm-periodic":
            import repro.lbm.simulation as module

            make = self._lbm
        else:
            module = pfm_solver
            model, boundary = case.split("-")
            make = self._pfm(
                kernels[model], (8, 6, 5) if model == "binary3d" else SHAPE, boundary, seed=7
            )
        return make(), _per_op(monkeypatch, module, make)

    @staticmethod
    def _assert_same(native, reference):
        assert native._batch is not None and reference._batch is None
        assert native.arrays.keys() == reference.arrays.keys()
        for name in native.arrays:
            assert native.arrays[name].tobytes() == reference.arrays[name].tobytes(), name
        assert (native.time, native.time_step) == (reference.time, reference.time_step)

    @pytest.mark.parametrize(
        "case",
        ["binary2d-periodic", "binary2d-neumann", "binary2d-dirichlet",
         "binary3d-periodic", "philox2d-periodic", "lbm-periodic"],
    )
    @pytest.mark.parametrize("n, every", [(7, None), (10, 3)], ids=["odd", "callback"])
    def test_a_batch_equals_the_per_op_path(
        self, kernel_set, binary3d, philox2d, monkeypatch, case, n, every
    ):
        kernels = {"binary2d": kernel_set, "binary3d": binary3d, "philox2d": philox2d}
        solvers = self._pair(monkeypatch, case, kernels)
        seen = {}
        for solver in solvers:
            log = seen[id(solver)] = []
            if every:
                solver.add_callback(
                    lambda s, log=log: log.append((s.time_step, s.time)) or _nudge(s), every
                )
            solver.step(n)
            lowered = solver._batch
            solver.step(2)  # and on, from the other parity, without lowering again
            assert solver._batch is lowered
        native, reference = solvers
        self._assert_same(native, reference)
        assert seen[id(native)] == seen[id(reference)]
        assert len(seen[id(native)]) == (12 // every if every else 0)

    @pytest.mark.slow
    def test_p1_with_t_in_its_signature(self, monkeypatch):
        from repro.pfm import make_p1

        p1 = GrandPotentialModel(make_p1(dim=3)).create_kernels()
        assert any(
            a.key == "t" for k in p1.all_kernels for a in k.signature if a.role == "parameter"
        )
        make = self._pfm(p1, (6, 5, 7), "neumann", seed=3)
        native, reference = make(), _per_op(monkeypatch, pfm_solver, make)
        for solver in (native, reference):
            solver.step(5)
        self._assert_same(native, reference)

    def test_records_and_events_per_batch(self, kernel_set):
        recorder = FlightRecorder(capacity=None)
        previous = set_recorder(recorder)
        try:
            solver = _single(kernel_set, backend="c")
            solver.profiler.reset()
            recorder.reset()
            solver.step(5)
        finally:
            set_recorder(previous)
        assert _records(solver.profiler) == _expected_records(kernel_set, 5, 64)
        batch = solver._batch
        ops = [(e.name, e.data["calls"], e.data.get("cells", 0)) for e in recorder.events
               if e.kind == "op"]
        assert ops == [(name, 5, cells) for name, (_, cells) in
                       _expected_records(kernel_set, 5, 64).items()]
        assert [(e.kind, e.name) for e in recorder.events] == [
            ("lowering", "single"), ("step_begin", "0"),
            *[("op", name) for name in batch.names], ("step_end", "0"),
        ]
        begin, end = recorder.events[1], recorder.events[-1]
        assert begin.data["steps"] == end.data["steps"] == 5
        assert end.data["seconds"] >= sum(e.data["seconds"] for e in recorder.events
                                          if e.kind == "op")

    def test_a_direct_call_does_not_change_the_batch(self, philox2d, monkeypatch):
        """The ops hold copies: a call on the solver's arrays with another seed."""
        make = self._pfm(philox2d, SHAPE, "periodic", seed=7)
        native, reference = make(), _per_op(monkeypatch, pfm_solver, make)
        phi = philox2d.phi_kernels[0]
        for solver in (native, reference):
            solver.step(3)
            # the array set of the loop's own calls: the binding it lowered
            compile_cached(phi, "c")(solver.arrays, ghost_layers=solver.ghost_layers,
                                     block_offset=(0, 0), t=0.0, time_step=99, seed=0)
            solver.step(3)
        self._assert_same(native, reference)

    def test_a_replaced_array_is_lowered_again(self, kernel_set, monkeypatch):
        make = self._pfm(kernel_set, SHAPE, "periodic")
        native, reference = make(), _per_op(monkeypatch, pfm_solver, make)
        kept = []
        for solver in (native, reference):
            solver.step(3)
            old = solver.arrays["mu"]
            solver.arrays["mu"] = old.copy(order="K")
            old[...] = 7.0
            kept.append((old, old.copy()))
        first = native._batch
        for solver in (native, reference):
            solver.step(4)
        assert native._batch is not first
        for old, before in kept:
            assert old.tobytes() == before.tobytes()  # no step reached it
        self._assert_same(native, reference)

    def test_a_wrapped_kernel_or_a_harness_takes_the_per_op_path(
        self, kernel_set, monkeypatch
    ):
        wrapped = _per_op(monkeypatch, pfm_solver, lambda: _single(kernel_set, backend="c"))
        wrapped.step(3)
        assert wrapped._batch is None

        class CountingHarness(CounterHarness):
            samples = 0

            def sample(self):
                self.samples += 1
                return CounterSample(cycles=float(self.samples))

        solver = _single(kernel_set, backend="c")
        solver.step(1)
        assert solver._batch is not None
        harness = CountingHarness()
        set_counter_harness(harness)
        try:
            solver.step(2)
        finally:
            set_counter_harness(None)
        assert harness.samples == 2 * 10  # every op of both steps, two each
        calls = solver.profiler.records[kernel_set.phi_kernels[0].name].calls
        assert calls == 3

    @pytest.mark.parametrize("backend", ["numpy", "c"])
    def test_negative_n_raises_and_zero_is_a_no_op(self, kernel_set, backend):
        solver = _single(kernel_set, backend=backend)
        recorder = FlightRecorder(capacity=None)
        previous = set_recorder(recorder)
        try:
            with pytest.raises(ValueError, match="n_steps must be >= 0, got -1"):
                solver.step(-1)
            solver.step(0)
        finally:
            set_recorder(previous)
        assert recorder.events == []
        assert (solver.time_step, solver.time) == (0, 0.0)

    def test_health_runs_on_its_interval_and_ends_the_batches(self, kernel_set):
        steps = {}
        for backend in ("numpy", "c"):
            recorder = FlightRecorder(capacity=None)
            previous = set_recorder(recorder)
            try:
                # bounds every state breaks: one event per check
                health = HealthMonitor(policy="record", interval=10, bounds={"phi": (0.5, 0.5)})
                solver = SingleBlockSolver(kernel_set, SHAPE, backend=backend, health=health)
                solver.set_state(_phi0(kernel_set), mu=0.0)
                solver.step(50)
            finally:
                set_recorder(previous)
            steps[backend] = [e.time_step for e in health.events]
            batches = [e.data.get("steps") for e in recorder.events if e.kind == "step_begin"]
            assert health.n_checks == 5
            if backend == "c":
                assert batches == [10] * 5
            else:
                assert batches == [None] * 50
        assert steps["c"] == steps["numpy"] == [10, 20, 30, 40, 50]

    @pytest.mark.parametrize("backend", ["numpy", "c"])
    def test_a_health_interval_below_one_is_refused_at_attach(self, kernel_set, backend):
        # the monitor validates its interval only when constructed
        health = HealthMonitor(policy="record", interval=10)
        health.interval = 0
        with pytest.raises(ValueError, match="interval must be >= 1, got 0"):
            SingleBlockSolver(kernel_set, SHAPE, backend=backend, health=health)

    def test_a_native_crash_names_its_op_and_step(self, kernel_set, tmp_path):
        child = textwrap.dedent("""
            import ctypes, resource, sys
            from repro.observability import RunDir
            from repro.pfm import (
                GrandPotentialModel, SingleBlockSolver, make_two_phase_binary, planar_front,
            )

            resource.setrlimit(resource.RLIMIT_CORE, (0, 0))  # abort leaves no core file
            ks = GrandPotentialModel(make_two_phase_binary(dim=2)).create_kernels()
            with RunDir(sys.argv[1]) as rundir:
                solver = SingleBlockSolver(ks, (8, 8), backend="c", rundir=rundir)
                solver.set_state(planar_front((8, 8), 2, 0, 1, position=4.0, epsilon=4.0))
                solver.step(3)
                batch = solver._batch
                (mu,) = ks.mu_kernels
                abort = ctypes.cast(ctypes.CDLL(None).abort, ctypes.c_void_p).value
                for half in (0, 1):
                    batch.ops[5 * (half * batch.nops + batch.names.index(mu.name))] = abort
                solver.step(4)
        """)
        rundir = tmp_path / "run"
        done = subprocess.run(
            [sys.executable, "-c", child, str(rundir)], capture_output=True, text=True,
            timeout=300,
        )
        assert done.returncode == -signal.SIGABRT, done.stderr
        bundle = capture_postmortem(recorder=load_journal(rundir / "journal.jsonl"))
        (mu,) = kernel_set.mu_kernels
        assert bundle["last_kernel"]["name"] == mu.name
        assert bundle["last_kernel"]["data"]["time_step"] == 3
        assert bundle["last_kernel"]["data"]["steps"] == 4
