"""End-to-end observability: tracing, metrics export, health monitoring.

Covers :mod:`repro.observability` — recorder spans, their Chrome-trace
rendering and span-nesting determinism across pipeline rebuilds, the Prometheus text-format
round-trip, the NaN/drift/bounds health watchdog on live solver runs —
plus the profiler-merge and distributed-gather regressions fixed in the
same change.
"""

import json

import numpy as np
import pytest

from repro.observability import (
    FlightRecorder,
    HealthError,
    HealthMonitor,
    MetricsRegistry,
    chrome_trace,
    find_sample,
    get_registry,
    model_accuracy_rows,
    parse_prometheus,
    reset_metrics,
    set_recorder,
)
from repro.parallel import BlockForest
from repro.parallel.timeloop import DistributedSolver
from repro.pfm import (
    GrandPotentialModel,
    SingleBlockSolver,
    make_two_phase_binary,
    planar_front,
)
from repro.profiling import SolverProfiler, clear_kernel_cache, compile_cached


@pytest.fixture(autouse=True)
def _clean_observability_state():
    """Keep the process-wide registry out of other test modules."""
    yield
    reset_metrics()


@pytest.fixture(scope="module")
def kernel_set():
    return GrandPotentialModel(make_two_phase_binary(dim=2)).create_kernels()


def _front(shape, params):
    return planar_front(
        shape, params.n_phases, 0, 1, position=shape[0] / 2, epsilon=params.epsilon
    )


# -- tracing -------------------------------------------------------------------


def _span_tree(events) -> list[tuple]:
    """Timing-free ``(name, category, parent_name)`` triples of the spans."""
    stack, out = [], []
    for e in events:
        if e.kind == "span_begin":
            out.append((e.name, e.data["category"], stack[-1] if stack else None))
            stack.append(e.name)
        elif e.kind == "span_end":
            stack.pop()
    return out


@pytest.fixture
def keep_all():
    """A process-wide recorder that keeps every event (what a trace wants)."""
    recorder = FlightRecorder(capacity=None)
    previous = set_recorder(recorder)
    yield recorder
    set_recorder(previous)


class TestTracer:
    """Spans and their Chrome rendering — the recorder is the tracer."""

    def test_disabled_tracer_records_nothing(self):
        recorder = FlightRecorder(enabled=False)
        with recorder.span("outer", category="runtime") as result:
            result["ops"] = 7  # call sites write unconditionally
        assert recorder.events == [] and recorder.open_spans() == []

    def test_nesting_and_args(self):
        recorder = FlightRecorder()
        with recorder.span("outer", category="pipeline", n=3):
            with recorder.span("inner", category="ir") as result:
                result["ops"] = 7
                assert [s["name"] for s in recorder.open_spans()] == ["outer", "inner"]
        tree = _span_tree(recorder.events)
        assert ("outer", "pipeline", None) in tree
        assert ("inner", "ir", "outer") in tree
        inner, outer = [e for e in recorder.events if e.kind == "span_end"]
        assert inner.data["ops"] == 7 and outer.data["n"] == 3
        assert 0 <= inner.data["seconds"] <= outer.data["seconds"]
        spans = {e["name"]: e for e in chrome_trace([recorder])["traceEvents"] if e["ph"] == "X"}
        assert spans["inner"]["args"] == {"ops": 7} and spans["inner"]["cat"] == "ir"
        assert spans["outer"]["args"] == {"n": 3}

    def test_pipeline_span_tree_deterministic(self, keep_all):
        """Rebuilding the same model yields the identical span hierarchy."""
        trees = []
        for _ in range(2):
            clear_kernel_cache()  # identical compile spans on both rounds
            keep_all.reset()
            ks = GrandPotentialModel(make_two_phase_binary(dim=2)).create_kernels()
            compile_cached(ks.projection_kernel, "numpy")
            trees.append(_span_tree(keep_all.events))
        assert trees[0] == trees[1]
        cats = {cat for _, cat, _ in trees[0]}
        assert {
            "functional", "pde", "discretization",
            "simplification", "ir", "backend",
        } <= cats

    def test_chrome_export_is_valid_json(self, tmp_path, kernel_set, keep_all):
        solver = SingleBlockSolver(kernel_set, (8, 8), boundary="periodic")
        solver.set_state(_front((8, 8), kernel_set.model.params))
        solver.step(2)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(chrome_trace([keep_all])))

        doc = json.loads(path.read_text())
        all_events = doc["traceEvents"]
        assert all_events
        # metadata events name the tracks (Perfetto shows bare tids without)
        meta = [ev for ev in all_events if ev["ph"] == "M"]
        assert "process_name" in {ev["name"] for ev in meta}
        assert "thread_name" in {ev["name"] for ev in meta}
        events = [ev for ev in all_events if ev["ph"] != "M"]
        assert events
        for ev in events:
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(ev)
            assert ev["ph"] == "X"
            assert ev["ts"] >= 0 and ev["dur"] >= 0
        assert "runtime" in {ev["cat"] for ev in events}
        steps = [ev for ev in events if ev["name"] == "step"]
        assert len(steps) == 2
        # kernel sweeps nest inside the step window
        sweeps = [ev for ev in events if ev["cat"] == "runtime" and ev != steps[0]]
        assert any(
            steps[0]["ts"] <= ev["ts"] <= steps[0]["ts"] + steps[0]["dur"]
            for ev in sweeps
        )

    def test_profiler_feeds_trace_once(self, kernel_set, keep_all):
        """Runtime spans come from the profiler — same counts, no doubles."""
        solver = SingleBlockSolver(kernel_set, (8, 8), boundary="periodic")
        solver.set_state(_front((8, 8), kernel_set.model.params))
        solver.step(3)
        phi_name = kernel_set.phi_kernels[0].name
        spans = [e for e in chrome_trace([keep_all])["traceEvents"] if e["ph"] == "X"]
        n_spans = sum(1 for e in spans if e["name"] == phi_name)
        assert n_spans == solver.profiler.records[phi_name].calls == 3

    @pytest.mark.parametrize("capacity", [1024, None])
    def test_one_step_is_ten_events(self, kernel_set, capacity):
        """Each interval is stored once, whether or not a trace is kept."""
        recorder = FlightRecorder(capacity=capacity)
        previous = set_recorder(recorder)
        try:
            solver = SingleBlockSolver(kernel_set, (8, 8))
            solver.set_state(_front((8, 8), kernel_set.model.params), mu=0.0)
            recorder.reset()
            solver.step(1)
        finally:
            set_recorder(previous)
        # a kernel is named BEFORE its dispatch (a crash is attributed to
        # it) and its interval follows immediately; a sync is its fill
        expected = [("step_begin", "0")]
        for op, arg in kernel_set.schedule:
            if op == "sweep":
                for kernel in arg:
                    expected += [("kernel", kernel.name), ("op", kernel.name)]
            else:
                expected.append(("op", f"fill:{arg}"))
        expected.append(("step_end", "0"))
        assert [(e.kind, e.name) for e in recorder.events] == expected
        assert len(expected) == 10
        assert all(e.data["seconds"] > 0 for e in recorder.events if e.kind == "op")


class TestTracedPassCounts:
    """Per-pass node counts cost 10 % of the P1 set-up: only for a full timeline."""

    def _optimize(self, monkeypatch, recorder):
        from repro.simplification import passes
        from repro.symbolic import Assignment, AssignmentCollection, fields

        calls = []
        real = passes.total_nodes
        monkeypatch.setattr(
            passes, "total_nodes", lambda ac: calls.append(1) or real(ac)
        )
        src, dst = fields("f_src, f_dst: double[2D]")
        c = src.center()
        ac = AssignmentCollection([Assignment(dst.center(), c * c + c)], name="t")
        previous = set_recorder(recorder)
        try:
            passes.optimize(ac)
        finally:
            set_recorder(previous)
        return calls, [
            e for e in recorder.events
            if e.kind == "span_end" and e.name.startswith("pass:")
        ]

    def test_default_recorder_never_counts(self, monkeypatch):
        calls, ends = self._optimize(monkeypatch, FlightRecorder())
        assert calls == [] and ends
        assert all("ops_before" not in e.data for e in ends)

    def test_keep_everything_recorder_counts(self, monkeypatch):
        calls, ends = self._optimize(monkeypatch, FlightRecorder(capacity=None))
        assert len(calls) == 2 * len(ends) and ends
        for e in ends:
            assert e.data["ops_before"] > 0 and e.data["ops_after"] > 0


# -- metrics -------------------------------------------------------------------


class TestMetrics:
    def test_prometheus_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("repro_widgets_total", "widgets built", kind="φ").inc(3)
        reg.gauge("repro_queue_depth", "queued items").set(7.5)
        h = reg.histogram("repro_latency_seconds", "latency", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)

        parsed = parse_prometheus(reg.to_prometheus())
        assert parsed["repro_widgets_total"]["type"] == "counter"
        assert find_sample(parsed, "repro_widgets_total", kind="φ") == 3
        assert find_sample(parsed, "repro_queue_depth") == 7.5
        assert parsed["repro_latency_seconds"]["type"] == "histogram"
        assert find_sample(
            parsed, "repro_latency_seconds", "repro_latency_seconds_count"
        ) == 3
        assert find_sample(
            parsed, "repro_latency_seconds", "repro_latency_seconds_bucket", le="+Inf"
        ) == 3
        assert find_sample(
            parsed, "repro_latency_seconds", "repro_latency_seconds_bucket", le="1"
        ) == 2  # cumulative buckets

    def test_prometheus_values_round_trip_exactly(self):
        """``:g`` kept six digits: a 9-digit counter and a gauge came back rounded."""
        reg = MetricsRegistry()
        reg.counter("repro_cache_bytes_total", "bytes").inc(123456789)
        reg.gauge("repro_overhead_seconds", "overhead").set(3.42449638992548e-05)
        h = reg.histogram("repro_latency_seconds", "latency", buckets=(2.5e6,))
        h.observe(1234567.125)

        text = reg.to_prometheus()
        assert "repro_cache_bytes_total 123456789\n" in text   # integers as integers
        parsed = parse_prometheus(text)
        assert find_sample(parsed, "repro_cache_bytes_total") == 123456789
        assert find_sample(parsed, "repro_overhead_seconds") == 3.42449638992548e-05
        assert find_sample(
            parsed, "repro_latency_seconds", "repro_latency_seconds_sum"
        ) == 1234567.125
        assert find_sample(
            parsed, "repro_latency_seconds", "repro_latency_seconds_bucket", le="2500000"
        ) == 1

    def test_json_export(self):
        reg = MetricsRegistry()
        reg.counter("repro_things_total", "things", solver="single").inc()
        doc = reg.to_json()
        sample = doc["repro_things_total"]["samples"][0]
        assert sample["labels"] == {"solver": "single"}
        assert sample["value"] == 1

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("repro_x_total")

    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="increase"):
            reg.counter("repro_x_total").inc(-1)

    def test_solver_exports_kernel_metrics(self, kernel_set):
        reset_metrics()
        solver = SingleBlockSolver(kernel_set, (8, 8), boundary="periodic")
        solver.set_state(_front((8, 8), kernel_set.model.params))
        solver.step(2)
        solver.export_metrics()

        parsed = parse_prometheus(get_registry().to_prometheus())
        phi_name = kernel_set.phi_kernels[0].name
        assert find_sample(
            parsed, "repro_op_calls_total", op=phi_name, solver="single"
        ) == 2
        assert find_sample(
            parsed, "repro_kernel_mlups", kernel=phi_name, solver="single"
        ) > 0
        assert find_sample(
            parsed, "repro_step_seconds", "repro_step_seconds_count", solver="single"
        ) == 2


# -- health monitoring ---------------------------------------------------------


class TestHealthMonitor:
    def test_nan_raise_policy(self):
        mon = HealthMonitor(policy="raise", interval=1)
        arr = np.ones((4, 4, 2))
        arr[1, 2, 0] = np.nan
        with pytest.raises(HealthError) as exc:
            mon.check({"phi": arr}, time_step=7)
        (event,) = exc.value.events
        assert event.check == "nan" and event.field == "phi"
        assert event.time_step == 7
        assert not mon.healthy

    def test_record_policy_collects_events(self):
        mon = HealthMonitor(policy="record", interval=1, bounds={"mu": (-1.0, 1.0)})
        mon.check({"mu": np.full((3, 3), 5.0)}, time_step=1)
        mon.check({"mu": np.zeros((3, 3))}, time_step=2)
        assert [e.check for e in mon.events] == ["bounds"]
        assert mon.n_checks == 2
        assert "bounds" in mon.summary()

    def test_phase_sum_drift(self):
        mon = HealthMonitor(policy="record", phase_sum_tol=1e-6)
        phi = np.full((4, 4, 2), 0.51)  # sums to 1.02
        events = mon.check({"phi": phi}, phase_sum_of="phi")
        assert [e.check for e in events] == ["phase_sum"]
        assert events[0].value == pytest.approx(0.02)

    def test_cadence(self):
        mon = HealthMonitor(interval=50)
        assert mon.due(50) and mon.due(100)
        assert not mon.due(49) and not mon.due(51)

    def test_solver_detects_injected_nan_within_one_interval(self, kernel_set):
        mon = HealthMonitor(policy="raise", interval=2)
        solver = SingleBlockSolver(
            kernel_set, (8, 8), boundary="periodic", health=mon
        )
        solver.set_state(_front((8, 8), kernel_set.model.params))
        solver.step(2)  # healthy run passes the first check
        assert mon.healthy
        solver.phi[3, 3, 0] = np.nan
        with pytest.raises(HealthError):
            solver.step(2)
        assert any(e.check == "nan" for e in mon.events)

    def test_destabilized_run_detected(self):
        """A dt far above the stability limit trips the watchdog."""
        params = make_two_phase_binary(dim=2)
        params.dt = 1e4 * params.dt
        kernel_set = GrandPotentialModel(params).create_kernels()
        mon = HealthMonitor(policy="record", interval=1, bounds={"mu": (-1e3, 1e3)})
        solver = SingleBlockSolver(
            kernel_set, (8, 8), boundary="periodic", health=mon
        )
        solver.set_state(_front((8, 8), params))
        solver.step(10)
        assert not mon.healthy

    def test_distributed_health_reports_block(self, kernel_set):
        mon = HealthMonitor(policy="record", interval=1)
        forest = BlockForest((8, 8), (4, 4), periodic=True)
        solver = DistributedSolver(kernel_set, forest, comm=None, health=mon)
        solver.set_state_from(lambda off, shp: (np.full(shp + (2,), 0.5), 0.0))
        solver.blocks[(0, 1)].arrays["phi"][2, 2, 0] = np.nan
        solver.step(1)
        nan_events = [e for e in mon.events if e.check == "nan"]
        assert nan_events and "block (0, 1)" in nan_events[0].where


# -- predicted vs measured -----------------------------------------------------


class TestModelAccuracy:
    def test_report_joins_prediction_and_measurement(self, kernel_set):
        solver = SingleBlockSolver(kernel_set, (8, 8), boundary="periodic")
        solver.set_state(_front((8, 8), kernel_set.model.params))
        solver.step(2)

        rows = model_accuracy_rows(
            kernel_set.all_kernels, solver.profiler, block_shape=(8, 8)
        )
        assert {r["kernel"] for r in rows} == {
            k.name for k in kernel_set.all_kernels
        }
        for r in rows:
            assert r["predicted_mlups"] > 0
            assert r["measured_mlups"] > 0
            assert r["ratio"] == pytest.approx(
                r["measured_mlups"] / r["predicted_mlups"]
            )

        report = solver.profile_report()
        assert "predicted MLUP/s" in report and "measured MLUP/s" in report

    def test_unmeasured_kernels_skipped(self, kernel_set):
        rows = model_accuracy_rows(
            kernel_set.all_kernels, SolverProfiler(), block_shape=(8, 8)
        )
        assert rows == []


# -- satellite regressions -----------------------------------------------------


class TestProfilerMerge:
    def test_merge_accumulates_fieldwise(self):
        a, b = SolverProfiler(), SolverProfiler()
        a.record("k", 1.0, cells=10, nbytes=100)
        b.record("k", 2.0, cells=20, nbytes=200)
        b.record("other", 0.5)
        a.merge(b)
        rec = a.records["k"]
        assert rec.calls == 2
        assert rec.seconds == pytest.approx(3.0)
        assert rec.cells == 30 and rec.bytes == 300
        assert a.records["other"].calls == 1

    def test_merge_self_is_noop(self):
        p = SolverProfiler()
        p.record("k", 1.0, cells=10)
        p.merge(p)
        assert p.records["k"].calls == 1
        assert p.records["k"].seconds == pytest.approx(1.0)
        assert p.records["k"].cells == 10


class TestGatherShapes:
    def test_gather_uses_piece_shapes(self, kernel_set):
        """Edge blocks narrower than block_shape assemble without error."""
        forest = BlockForest((8, 8), (4, 4), periodic=True)
        solver = DistributedSolver(kernel_set, forest, comm=None)
        solver.set_state_from(lambda off, shp: (np.full(shp + (2,), 0.5), 0.0))
        # shrink the right-edge blocks to a (4, 3) interior, as an adaptive
        # forest with a non-divisible domain would produce
        gl = solver.ghost_layers
        for coords in [(0, 1), (1, 1)]:
            block = solver.blocks[coords]
            for name, arr in block.arrays.items():
                block.arrays[name] = arr[:, : 3 + 2 * gl].copy()
        out = solver.gather("phi")
        assert out.shape == (8, 8, 2)
        np.testing.assert_array_equal(out[:, :7], 0.5)
        np.testing.assert_array_equal(out[:, 7:], 0.0)  # uncovered strip

    def test_distributed_metrics_match_single(self, kernel_set):
        """Same physics ⇒ same cell counts in both solvers' profiles."""
        params = kernel_set.model.params
        shape = (8, 8)
        phi0 = _front(shape, params)

        single = SingleBlockSolver(kernel_set, shape, boundary="periodic", seed=0)
        single.set_state(phi0, mu=0.0)
        single.step(4)

        forest = BlockForest(shape, (4, 4), periodic=True)
        dist = DistributedSolver(kernel_set, forest, comm=None, seed=0)
        dist.set_state_from(
            lambda off, shp: (
                phi0[tuple(slice(o, o + s) for o, s in zip(off, shp))],
                0.0,
            )
        )
        dist.step(4)

        for k in kernel_set.all_kernels:
            s, d = single.profiler.records[k.name], dist.profiler.records[k.name]
            assert s.cells == d.cells  # every cell swept exactly once per step
        np.testing.assert_array_equal(dist.gather("phi"), single.phi)


class TestLogging:
    def test_configure_logging_routes_the_package_log_and_replaces_its_handler(self):
        """What ``quickstart.py --log-level LEVEL`` switches on."""
        import io
        import logging

        from repro.observability import configure_logging, get_logger, kv

        root = logging.getLogger("repro")
        level, handlers = root.level, list(root.handlers)
        first, second = io.StringIO(), io.StringIO()
        try:
            assert configure_logging("debug", stream=first, fmt="%(name)s %(message)s") is root
            assert root.level == logging.DEBUG
            get_logger("pfm.solver").debug(kv("step", n=3, dt=0.5, label="a b"))
            assert first.getvalue() == 'repro.pfm.solver step n=3 dt=0.5 label="a b"\n'
            # reconfiguring replaces the handler: one stream, the new level
            configure_logging(logging.WARNING, stream=second, fmt="%(message)s")
            get_logger("repro.pfm").info("hidden")
            get_logger("repro.pfm").warning("shown")
            assert second.getvalue() == "shown\n"
            assert first.getvalue().count("\n") == 1
            assert len(root.handlers) == len(handlers) + 1
        finally:
            root.handlers[:] = handlers
            root.setLevel(level)
