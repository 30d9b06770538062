"""End-to-end observability: tracing, kernel records, health monitoring.

Covers :mod:`repro.observability` — recorder spans, their Chrome-trace
rendering and span-nesting determinism across pipeline rebuilds, the
per-kernel records a solver exports, the NaN/drift/bounds health watchdog
on live solver runs — plus the profiler-merge and distributed-gather
regressions fixed in the same change.
"""

import json
import os
import threading

import numpy as np
import pytest

from repro.observability import (
    FlightRecorder,
    HealthError,
    HealthMonitor,
    chrome_trace,
    model_accuracy_rows,
    set_recorder,
)
from repro.parallel import BlockForest
from repro.parallel.timeloop import DistributedSolver
from repro.perfmodel.ledger import PerfLedger
from repro.pfm import (
    GrandPotentialModel,
    SingleBlockSolver,
    make_two_phase_binary,
    planar_front,
)
from repro.profiling import SolverProfiler, clear_kernel_cache, compile_cached


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


def _assert_tracks_nest(doc):
    """Chrome/Perfetto's rule: the complete events of one thread nest."""
    tracks = {}
    for e in doc["traceEvents"]:
        if e["ph"] == "X":
            tracks.setdefault((e["pid"], e["tid"]), []).append(e)
    for track in tracks.values():
        ends = []
        for e in sorted(track, key=lambda e: (e["ts"], -e["dur"])):
            while ends and ends[-1] <= e["ts"]:
                ends.pop()
            # timestamps and durations are rounded to 1 ns
            assert not ends or e["ts"] + e["dur"] <= ends[-1] + 0.002, e
            ends.append(e["ts"] + e["dur"])


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

    def test_pipeline_span_tree_deterministic(self, keep_all, cold_cache, monkeypatch):
        """Rebuilding the same model yields the identical span hierarchy."""
        # no binaries built with the set: the compile spans of a pool's
        # workers interleave in any order on one recorder
        monkeypatch.setattr("repro.pfm.model.c_compiler_available", lambda: False)
        trees = []
        for _ in range(2):
            # identical compile spans on both rounds, and both derive the set
            clear_kernel_cache(disk=True)
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

    def test_overlapping_spans_of_one_layer_get_their_own_track(self):
        """Spans that overlap without nesting never share a Chrome thread."""
        recorder = FlightRecorder(capacity=None)
        a_open, b_open, a_closed = (threading.Event() for _ in range(3))

        def a():
            with recorder.span("compile:a", category="backend"):
                with recorder.span("codegen:c:a", category="backend"):
                    a_open.set()
                    b_open.wait()
            a_closed.set()

        def b():
            a_open.wait()
            with recorder.span("compile:b", category="backend"):
                b_open.set()
                a_closed.wait()

        threads = [threading.Thread(target=f) for f in (a, b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        doc = chrome_trace([recorder])
        tids = {e["name"]: e["tid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert tids["compile:a"] == tids["codegen:c:a"] != tids["compile:b"]
        names = {e["tid"]: e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"
                 and e["name"] == "thread_name"}
        assert (names[tids["compile:a"]], names[tids["compile:b"]]) == ("backend", "backend #2")
        _assert_tracks_nest(doc)

    def test_concurrent_lowering_renders_nested_tracks(self, kernel_set, keep_all, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        clear_kernel_cache()  # every compile span does the work
        DistributedSolver(kernel_set, BlockForest((8, 8), (4, 4)), overlap=True)
        doc = chrome_trace([keep_all])
        assert sum(e["name"].startswith("compile:") for e in doc["traceEvents"]) == 7
        _assert_tracks_nest(doc)

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


# -- kernel records ------------------------------------------------------------


class TestMetrics:
    def test_solver_exports_kernel_metrics(self, kernel_set, keep_all, tmp_path):
        solver = SingleBlockSolver(kernel_set, (8, 8), boundary="periodic")
        solver.set_state(_front((8, 8), kernel_set.model.params))
        solver.step(2)
        path = solver.export_perf(tmp_path / "perf.jsonl")

        phi_name = kernel_set.phi_kernels[0].name
        assert solver.profiler.records[phi_name].calls == 2
        records = {r["kernel"]["name"]: r for r in PerfLedger(path).load(strict=True)}
        assert records[phi_name]["measured"]["mlups"] > 0
        assert records[phi_name]["options"]["backend"] == "numpy"
        steps = [e for e in keep_all.events if e.kind == "step_end"]
        assert len(steps) == 2 and all(e.data["seconds"] > 0 for e in steps)


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
