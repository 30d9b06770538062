"""Flight recorder, crash post-mortems, RunDir bundles and the HTML report.

The forensics contract under test: an always-on bounded event ring whose
self-measured overhead is exported as a gauge, a post-mortem bundle that
survives the worker -> parent pickle hop when a process-backed rank dies
(naming the rank, the step and the last dispatched kernel), a per-run
artifact directory whose ``manifest.json`` tracks status and inventory,
and a report renderer that turns all of it into one self-contained HTML
file.
"""

import importlib.util
import json
import pickle
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.backends.c_backend import c_compiler_available
from repro.observability import (
    HealthMonitor,
    RunDir,
    capture_postmortem,
    field_stats,
    get_recorder,
    get_rundir,
    install_excepthook,
    load_manifest,
    rank_recorder,
    set_rundir,
    write_postmortem,
)
from repro.observability.metrics import (
    MetricsRegistry,
    find_sample,
    parse_prometheus,
)
from repro.observability.recorder import (
    OVERHEAD_GAUGE,
    FlightRecorder,
    chrome_trace,
    set_recorder,
)
from repro.observability.rundir import MANIFEST_SCHEMA
from repro.parallel import launch_ranks
from repro.parallel.mpi_sim import RankError, run_ranks
from repro.parallel.proc_comm import process_backend_available, run_ranks_processes

needs_processes = pytest.mark.skipif(
    not process_backend_available(),
    reason="needs the fork start method and multiprocessing.shared_memory",
)


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        rec = FlightRecorder(capacity=8)
        for i in range(100):
            rec.record("op", f"e{i}")
        assert len(rec) == 8
        # the ring keeps the NEWEST events — that is the whole point
        assert [e.name for e in rec.events] == [f"e{i}" for i in range(92, 100)]
        assert rec.events[-1].seq == 100  # seq keeps counting past evictions

    def test_step_spans_and_position(self):
        rec = FlightRecorder()
        rec.step_begin(7, rank=3)
        assert rec.position == {"time_step": 7, "rank": 3}
        assert rec.open_spans()[0]["kind"] == "step_begin"
        rec.record("kernel", "stencil", time_step=7)
        rec.step_end(7, seconds=0.25)
        assert rec.open_spans() == []
        end = rec.events[-1]
        assert end.kind == "step_end" and end.data["seconds"] == 0.25
        assert rec.last_of("kernel").name == "stencil"

    def test_disabled_recorder_records_nothing(self):
        rec = FlightRecorder(enabled=False)
        assert rec.record("op", "x") is None
        assert rec.step_begin(1) is None
        assert len(rec) == 0 and rec.overhead_seconds == 0.0

    def test_overhead_is_measured_and_published(self):
        rec = FlightRecorder()
        for i in range(50):
            rec.record("op", "x", i=i)
        assert rec.overhead_seconds > 0.0
        reg = MetricsRegistry()
        value = rec.publish_overhead(registry=reg)
        assert value == rec.overhead_seconds
        parsed = parse_prometheus(reg.to_prometheus())
        assert find_sample(parsed, OVERHEAD_GAUGE) == pytest.approx(value)

    def test_overhead_gauge_carries_rank_label(self):
        rec = FlightRecorder(rank=3)
        rec.record("op", "x")
        reg = MetricsRegistry()
        rec.publish_overhead(registry=reg)
        parsed = parse_prometheus(reg.to_prometheus())
        assert find_sample(parsed, OVERHEAD_GAUGE, rank=3) is not None

    def test_journal_is_valid_jsonl(self, tmp_path):
        rec = FlightRecorder()
        path = tmp_path / "journal.jsonl"
        rec.open_journal(path)
        rec.step_begin(1)
        rec.record("kernel", "phi_sweep", time_step=1, block=(0, 1))
        rec.step_end(1, seconds=0.5)
        rec.close_journal()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["kind"] for e in lines] == ["step_begin", "kernel", "step_end"]
        assert lines[1]["data"]["block"] == [0, 1]
        assert lines[0]["seq"] == 1

    def test_journal_line_buffered_before_close(self, tmp_path):
        # a crashing process never calls close_journal; every already
        # recorded event must still be on disk
        rec = FlightRecorder()
        rec.open_journal(tmp_path / "j.jsonl")
        rec.record("op", "about_to_die")
        text = (tmp_path / "j.jsonl").read_text()
        assert "about_to_die" in text

    def test_pickle_roundtrip_drops_process_state(self, tmp_path):
        rec = FlightRecorder(capacity=16, rank=2)
        rec.open_journal(tmp_path / "j.jsonl")
        rec.set_state_provider(lambda: {})
        rec.step_begin(5)
        rec.record("kernel", "stencil")
        clone = pickle.loads(pickle.dumps(rec))
        assert clone.rank == 2 and clone.capacity == 16
        assert [e.name for e in clone.events] == [e.name for e in rec.events]
        assert clone.position == {"time_step": 5}
        assert clone.journal_path is None and clone.state_provider is None
        clone.record("op", "post-restore")  # lock/journal rebuilt: still usable

    def test_rank_recorder_is_thread_local(self):
        outer = get_recorder()
        seen = {}

        def worker(rank):
            with rank_recorder(rank) as rec:
                rec.record("op", f"rank{rank}")
                seen[rank] = get_recorder()

        threads = [threading.Thread(target=worker, args=(r,)) for r in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen[0] is not seen[1]
        assert seen[0].rank == 0 and seen[1].rank == 1
        assert [e.name for e in seen[1].events] == ["rank1"]
        assert get_recorder() is outer  # the installing threads are gone


class TestPostmortem:
    def test_field_stats_flags_nonfinite(self):
        phi = np.array([0.0, 0.5, np.nan, np.inf, 1.0])
        stats = field_stats({"phi": phi})["phi"]
        assert stats["nan_count"] == 1 and stats["inf_count"] == 1
        assert stats["finite_count"] == 3
        assert stats["min"] == 0.0 and stats["max"] == 1.0

    def test_field_stats_survives_broken_provider_entry(self):
        class Exploding:
            def __array__(self, *a, **k):
                raise RuntimeError("backend array is gone")

        stats = field_stats({"bad": Exploding(), "ok": np.ones(2)})
        assert "error" in stats["bad"]
        # one broken entry must not take down the stats of the others
        assert stats["ok"]["finite_count"] == 2

    def test_capture_names_step_and_last_kernel(self):
        rec = FlightRecorder()
        rec.step_begin(42)
        rec.record("kernel", "mu_sweep", time_step=42)
        rec.set_state_provider(lambda: {"phi": np.array([1.0, np.nan])})
        try:
            raise RuntimeError("synthetic fault")
        except RuntimeError as exc:
            bundle = capture_postmortem(exc, recorder=rec, rank=3)
        assert bundle["schema"].startswith("repro-postmortem/")
        assert bundle["rank"] == 3
        assert bundle["position"]["time_step"] == 42
        assert bundle["last_kernel"]["name"] == "mu_sweep"
        assert bundle["exception"]["type"] == "RuntimeError"
        assert "synthetic fault" in bundle["exception"]["message"]
        assert "RuntimeError" in bundle["exception"]["traceback"]
        assert bundle["fields"]["phi"]["nan_count"] == 1
        assert bundle["open_spans"][0]["data"]["time_step"] == 42
        # the whole bundle must survive both serialization paths
        json.dumps(bundle)
        pickle.dumps(bundle)

    def test_write_postmortem(self, tmp_path):
        bundle = capture_postmortem(recorder=FlightRecorder())
        path = write_postmortem(bundle, tmp_path / "postmortem.json")
        assert json.loads(Path(path).read_text())["schema"] == bundle["schema"]

    def test_excepthook_writes_bundle_and_chains(self, tmp_path):
        rec = FlightRecorder()
        rec.step_begin(9)
        target = tmp_path / "postmortem.json"
        seen = []
        old = sys.excepthook
        sys.excepthook = lambda *a: seen.append(a)
        try:
            hook = install_excepthook(target, recorder=rec, rank=0)
            try:
                raise ValueError("boom")
            except ValueError:
                hook(*sys.exc_info())
        finally:
            sys.excepthook = old
        doc = json.loads(target.read_text())
        assert doc["position"]["time_step"] == 9
        assert doc["exception"]["type"] == "ValueError"
        assert len(seen) == 1  # the previous hook still ran


class TestRunDir:
    def test_manifest_and_inventory(self, tmp_path):
        rundir = RunDir(tmp_path / "run", config={"steps": 3})
        rundir.trace_path.write_text("{}")
        rundir.note(backend="numpy", ranks=4)
        manifest = rundir.write_manifest(status="ok")
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["config"] == {"steps": 3}
        assert manifest["backend"] == "numpy" and manifest["ranks"] == 4
        assert manifest["artifacts"] == {"trace": "trace.json"}
        assert manifest["host"]["hostname"]
        assert load_manifest(rundir.path)["status"] == "ok"

    def test_rank_journals_in_inventory(self, tmp_path):
        rundir = RunDir(tmp_path / "run")
        assert rundir.journal_path().name == "journal.jsonl"
        assert rundir.journal_path(3).name == "journal.rank3.jsonl"
        rundir.journal_path(0).write_text("")
        rundir.journal_path(1).write_text("")
        inv = rundir.artifacts()
        assert inv["rank_journals"] == ["journal.rank0.jsonl", "journal.rank1.jsonl"]

    def test_load_manifest_rejects_wrong_schema(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"schema": "other/9"}')
        with pytest.raises(ValueError, match="schema"):
            load_manifest(tmp_path)

    def test_context_manager_ok_path(self, tmp_path):
        with RunDir(tmp_path / "run") as rundir:
            assert get_rundir() is rundir
            assert load_manifest(rundir.path)["status"] == "running"
        assert get_rundir() is None
        assert load_manifest(tmp_path / "run")["status"] == "ok"

    def test_context_manager_crash_writes_postmortem(self, tmp_path):
        rec = get_recorder()
        with pytest.raises(RuntimeError):
            with RunDir(tmp_path / "run") as rundir:
                rec.step_begin(13)
                raise RuntimeError("mid-run fault")
        manifest = load_manifest(tmp_path / "run")
        assert manifest["status"] == "crashed"
        assert "mid-run fault" in manifest["error"]
        doc = json.loads(rundir.postmortem_path.read_text())
        assert doc["position"]["time_step"] == 13
        assert doc["exception"]["type"] == "RuntimeError"
        rec.step_end(13)

    def test_attach_health_mirrors_events(self, tmp_path):
        """Health events are journal lines: the journal is the health log."""
        rundir = RunDir(tmp_path / "run")
        recorder = FlightRecorder()
        recorder.open_journal(rundir.journal_path())
        previous = set_recorder(recorder)
        try:
            monitor = HealthMonitor(policy="warn", interval=1)
            monitor.check({"phi": np.array([0.5, np.nan])}, time_step=4, where="rank 1")
        finally:
            set_recorder(previous)
            recorder.close_journal()
        (event,) = [e for e in rundir.journals()[0].events if e.kind == "health"]
        # the six HealthEvent fields: check as the name, the rest as data
        assert event.name == "nan" and event.data == {
            "field": "phi", "time_step": 4, "message": "1 non-finite values",
            "value": 1.0, "where": "rank 1",
        }
        assert "health" not in rundir.artifacts()  # no second copy on disk

    def test_exit_closes_the_journal_it_holds(self, kernel_set, tmp_path):
        """A finished run must stop receiving other runs' events."""
        from repro.pfm import SingleBlockSolver, planar_front

        def run(steps, **kwargs):
            solver = SingleBlockSolver(kernel_set, (8, 8), **kwargs)
            p = solver.params
            front = planar_front((8, 8), p.n_phases, 0, 1, position=4.0, epsilon=p.epsilon)
            solver.set_state(front, mu=0.0)
            solver.step(steps)

        with RunDir(tmp_path / "a") as rundir:
            run(2, rundir=rundir)
            assert get_recorder().journal_path == str(rundir.journal_path())
        assert get_recorder().journal_path is None
        size = rundir.journal_path().stat().st_size
        assert size > 0 and load_manifest(rundir.path)["status"] == "ok"
        run(5)  # a later run in the same process, without a RunDir
        assert rundir.journal_path().stat().st_size == size

    def test_exit_leaves_a_foreign_journal_open(self, tmp_path):
        recorder = get_recorder()
        recorder.open_journal(tmp_path / "elsewhere.jsonl")
        with RunDir(tmp_path / "run"):
            pass
        assert recorder.journal_path == str(tmp_path / "elsewhere.jsonl")


@pytest.fixture(scope="module")
def kernel_set():
    from repro.pfm import GrandPotentialModel, make_two_phase_binary

    return GrandPotentialModel(make_two_phase_binary(dim=2)).create_kernels()


class TestSolverRunDirIntegration:
    def test_solver_journals_steps_and_checkpoints(self, kernel_set, tmp_path):
        from repro.pfm import SingleBlockSolver, planar_front

        with RunDir(tmp_path / "run") as rundir:
            solver = SingleBlockSolver(kernel_set, (8, 8), rundir=rundir)
            phi = planar_front(
                (8, 8), solver.params.n_phases, 0, 1, position=4.0,
                epsilon=solver.params.epsilon,
            )
            solver.set_state(phi, mu=0.0)
            solver.step(3)
            ckpt = solver.save_checkpoint()
            assert Path(ckpt).parent == rundir.checkpoint_dir
        manifest = load_manifest(tmp_path / "run")
        assert manifest["solver"] == "single"
        assert manifest["status"] == "ok"
        assert "checkpoints" in manifest["artifacts"]
        events = [json.loads(line) for line in
                  rundir.journal_path().read_text().splitlines()]
        kinds = [e["kind"] for e in events]
        assert kinds.count("step_begin") == 3 and kinds.count("step_end") == 3
        assert any(e["kind"] == "kernel" for e in events)
        assert any(e["kind"] == "checkpoint" for e in events)
        ends = [e for e in events if e["kind"] == "step_end"]
        assert all(e["data"]["seconds"] >= 0 for e in ends)

    @pytest.mark.skipif(not c_compiler_available(), reason="no C compiler available")
    def test_journal_holds_the_solvers_own_compile_spans(self, kernel_set, tmp_path):
        """The journal opens before the schedule is lowered, not after."""
        from repro.pfm import SingleBlockSolver
        from repro.profiling import clear_kernel_cache

        clear_kernel_cache()  # in-process tier only: every kernel is loaded anew
        with RunDir(tmp_path / "run") as rundir:
            SingleBlockSolver(kernel_set, (8, 8), backend="c", rundir=rundir)
        (journal,) = rundir.journals()
        codegen = [
            e.name for e in journal.events
            if e.kind == "span_end" and e.name.startswith("codegen:c:")
        ]
        assert sorted(codegen) == sorted(
            f"codegen:c:{k.name}" for k in kernel_set.all_kernels
        )

    def test_journal_renders_the_same_trace_as_the_live_recorder(
        self, kernel_set, tmp_path
    ):
        """trace.json is a view of the events, wherever they are read from."""
        from repro.diagnostics import DiagnosticsSuite
        from repro.pfm import SingleBlockSolver, planar_front

        recorder = FlightRecorder(capacity=None)
        previous = set_recorder(recorder)
        try:
            with RunDir(tmp_path / "run") as rundir:
                recorder.open_journal(rundir.journal_path())
                solver = SingleBlockSolver(kernel_set, (8, 8), boundary="periodic")
                params = solver.params
                solver.set_state(
                    planar_front((8, 8), params.n_phases, 0, 1, position=4.0,
                                 epsilon=params.epsilon),
                    mu=0.0,
                )
                solver.enable_diagnostics(DiagnosticsSuite.for_model(solver.model))
                solver.enable_fingerprints()
                solver.step(3)
        finally:
            set_recorder(previous)
        live = chrome_trace([recorder])
        assert chrome_trace(rundir.journals()) == live
        phases = [e["ph"] for e in live["traceEvents"]]
        assert phases.count("C") == 4  # diagnostics: once at enable + 3 steps
        names = {e["name"] for e in live["traceEvents"] if e["ph"] == "X"}
        assert {"step", "fingerprint", "phi", "mu", "compile:phi"} <= names


def _crashing_prog(comm):
    """SPMD program where rank 2 dies mid-step 4; the rest return clean."""
    rec = get_recorder()
    for ts in (1, 2, 3):
        rec.step_begin(ts)
        rec.record("kernel", "stencil", time_step=ts)
        rec.step_end(ts)
    if comm.rank == 2:
        rec.step_begin(4)
        rec.record("kernel", "stencil", time_step=4)
        raise RuntimeError("injected fault on rank 2")
    return comm.rank


class TestCrashForensics:
    @needs_processes
    def test_process_crash_produces_postmortem(self, tmp_path):
        rundir = RunDir(tmp_path / "run")
        with pytest.raises(RankError, match="rank 2") as excinfo:
            run_ranks_processes(4, _crashing_prog, rundir=rundir)
        postmortems = excinfo.value.postmortems
        assert set(postmortems) == {2}
        bundle = postmortems[2]
        assert bundle["rank"] == 2
        assert bundle["position"]["time_step"] == 4
        assert bundle["last_kernel"]["name"] == "stencil"
        assert "injected fault" in bundle["exception"]["message"]
        doc = json.loads(rundir.postmortem_path.read_text())
        assert doc["schema"].startswith("repro-postmortem/")
        assert doc["ranks"]["2"]["position"]["time_step"] == 4

    @needs_processes
    def test_process_crash_uses_ambient_rundir(self, tmp_path):
        # launch_ranks without an explicit rundir falls back to get_rundir()
        with pytest.raises(RankError):
            with RunDir(tmp_path / "run") as rundir:
                launch_ranks(4, _crashing_prog, backend="process")
        assert load_manifest(rundir.path)["status"] == "crashed"
        # the context manager must NOT clobber the per-rank document the
        # rank runtime already wrote with a parent-side single bundle
        doc = json.loads(rundir.postmortem_path.read_text())
        assert doc["ranks"]["2"]["last_kernel"]["name"] == "stencil"

    @needs_processes
    def test_rank_error_keeps_channel_diagnostics(self, tmp_path):
        # the deadlock-forensics message (source, dest, tag) must survive
        # the addition of the post-mortem machinery
        def prog(comm):
            if comm.rank == 0:
                return comm.recv(1, tag=7)  # rank 1 never sends
            return None

        rundir = RunDir(tmp_path / "run")
        with pytest.raises(RankError) as excinfo:
            run_ranks_processes(2, prog, recv_timeout=0.5, rundir=rundir)
        message = str(excinfo.value)
        assert "source=1" in message and "tag=7" in message
        bundle = excinfo.value.postmortems[0]
        assert "tag=7" in bundle["exception"]["message"]

    def test_sim_backend_crash_produces_postmortem(self, tmp_path):
        rundir = RunDir(tmp_path / "run")

        def prog(comm):
            with rank_recorder(comm.rank):
                return _crashing_prog(comm)

        with pytest.raises(RankError) as excinfo:
            run_ranks(4, prog, rundir=rundir)
        bundle = excinfo.value.postmortems[2]
        assert bundle["rank"] == 2 and bundle["position"]["time_step"] == 4
        assert json.loads(rundir.postmortem_path.read_text())["ranks"]["2"]


def _load_run_report():
    path = Path(__file__).resolve().parents[1] / "tools" / "run_report.py"
    spec = importlib.util.spec_from_file_location("run_report", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRunReport:
    def _make_rundir(self, tmp_path):
        rundir = RunDir(tmp_path / "run", config={"steps": 2})
        rec = FlightRecorder()
        rec.open_journal(rundir.journal_path())
        for ts in (1, 2):
            rec.step_begin(ts)
            rec.record("kernel", "stencil", time_step=ts)
            rec.step_end(ts, seconds=0.01 * ts)
        rec.close_journal()
        rundir.diagnostics_path.write_text(
            "time_step,time,free_energy,phase_fraction\n"
            "0,0.0,10.0,0.5\n1,0.05,9.5,0.49\n2,0.10,9.1,0.48\n"
        )
        reg = MetricsRegistry()
        reg.gauge("repro_kernel_predicted_mlups", "p", kernel="stencil").set(100.0)
        reg.gauge("repro_kernel_measured_mlups", "m", kernel="stencil").set(80.0)
        reg.gauge("repro_model_accuracy_ratio", "r", kernel="stencil").set(0.8)
        reg.gauge(OVERHEAD_GAUGE, "overhead").set(0.001)
        rundir.metrics_path.write_text(reg.to_prometheus())
        return rundir

    def test_report_renders_all_sections(self, tmp_path):
        rundir = self._make_rundir(tmp_path)
        rundir.write_manifest(status="ok")
        run_report = _load_run_report()
        assert run_report.main([str(rundir.path)]) == 0
        html = rundir.report_path.read_text()
        assert "Run summary" in html and ">ok<" in html
        assert "step wall time" in html and "<svg" in html
        assert "free_energy" in html
        assert "stencil" in html and "predicted MLUP/s" in html
        assert "flight-recorder overhead" in html
        assert "no post-mortems" in html
        assert "journal.jsonl" in html  # artifact inventory
        assert "no failed health checks" in html

    def test_health_section_renders_from_the_journal(self, tmp_path):
        rundir = RunDir(tmp_path / "run")
        recorder = FlightRecorder(rank=1)
        recorder.open_journal(rundir.journal_path(1))
        previous = set_recorder(recorder)
        try:
            HealthMonitor(policy="record").check(
                {"phi": np.array([0.5, np.nan])}, time_step=4, where="rank 1"
            )
        finally:
            set_recorder(previous)
            recorder.close_journal()
        rundir.write_manifest(status="ok")
        assert not (rundir.path / "health.jsonl").exists()
        run_report = _load_run_report()
        assert run_report.main([str(rundir.path)]) == 0
        html = rundir.report_path.read_text()
        assert "Health events" in html and "1 non-finite values" in html
        assert "<td class=\"l\">nan</td>" in html and "rank 1" in html

    def test_report_renders_crash_section(self, tmp_path):
        rundir = self._make_rundir(tmp_path)
        try:
            raise RuntimeError("kaboom at step 2")
        except RuntimeError as exc:
            rec = FlightRecorder()
            rec.step_begin(2)
            rec.record("kernel", "stencil", time_step=2)
            bundle = capture_postmortem(exc, recorder=rec, rank=1)
        write_postmortem(
            {"schema": bundle["schema"], "ranks": {"1": bundle}},
            rundir.postmortem_path,
        )
        rundir.write_manifest(status="crashed", error="RuntimeError: kaboom")
        run_report = _load_run_report()
        out = tmp_path / "crash_report.html"
        assert run_report.main([str(rundir.path), "--out", str(out)]) == 0
        html = out.read_text()
        assert "Crash post-mortem" in html and "Rank 1" in html
        assert "kaboom" in html and "stencil" in html
        assert ">crashed<" in html

    def test_report_survives_missing_artifacts(self, tmp_path):
        rundir = RunDir(tmp_path / "bare")
        rundir.write_manifest(status="ok")
        run_report = _load_run_report()
        assert run_report.main([str(rundir.path)]) == 0
        html = rundir.report_path.read_text()
        assert "no step timings recorded" in html
        assert "no diagnostics.csv" in html


class TestSatelliteFixes:
    def test_accuracy_export_skips_nonfinite(self):
        from repro.observability import export_accuracy_metrics

        reg = MetricsRegistry()
        rows = [
            {"kernel": "good", "predicted_mlups": 100.0,
             "measured_mlups": 80.0, "ratio": 0.8},
            {"kernel": "bad", "predicted_mlups": 0.0,
             "measured_mlups": 80.0, "ratio": float("nan")},
        ]
        export_accuracy_metrics(rows, registry=reg)
        parsed = parse_prometheus(reg.to_prometheus())
        assert find_sample(parsed, "repro_model_accuracy_ratio", kernel="good") == 0.8
        # the NaN ratio is dropped; the finite gauges of the same row stay
        assert find_sample(parsed, "repro_model_accuracy_ratio", kernel="bad") is None
        assert find_sample(parsed, "repro_kernel_measured_mlups", kernel="bad") == 80.0
        text = reg.to_prometheus()
        assert "nan" not in text.lower()

    def test_histogram_json_reports_mean_with_count(self):
        reg = MetricsRegistry()
        hist = reg.histogram("repro_step_seconds", "step wall", solver="t")
        for v in (0.1, 0.2, 0.3):
            hist.observe(v)
        sample = reg.to_json()["repro_step_seconds"]["samples"][0]
        assert sample["count"] == 3
        assert sample["mean"] == pytest.approx(0.2)
        empty = reg.histogram("repro_step_seconds", "step wall", solver="empty")
        assert empty is not hist
        sample_empty = [
            s for s in reg.to_json()["repro_step_seconds"]["samples"]
            if s["labels"].get("solver") == "empty"
        ][0]
        # a zero mean from zero observations is distinguishable from a
        # true zero mean exactly because count rides along
        assert sample_empty["count"] == 0 and sample_empty["mean"] == 0.0

    def test_tracer_pickle_preserves_counters_and_tids(self):
        recorder = FlightRecorder(rank=1, capacity=None)
        with recorder.span("step", category="runtime"):
            recorder.counter("energy", {"free_energy": 12.5})
        clone = pickle.loads(pickle.dumps(recorder))
        assert clone.capacity is None and clone.events == recorder.events
        # the clone renders the same document: spans, counter samples and
        # the thread_name/tid assignments all survive
        doc = chrome_trace([clone])
        assert doc == chrome_trace([recorder])
        assert [e["args"] for e in doc["traceEvents"] if e["ph"] == "C"] == [
            {"free_energy": 12.5}
        ]
        assert [
            (e["tid"], e["args"]["name"])
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ] == [(6, "runtime")]

    @needs_processes
    def test_tracer_counters_cross_process_boundary(self):
        def prog(comm):
            recorder = FlightRecorder(rank=comm.rank)
            with recorder.span("step", category="runtime"):
                recorder.counter("diag", {"value": float(comm.rank)})
            return recorder

        recorders = run_ranks_processes(2, prog)
        for rank, recorder in enumerate(recorders):
            counter = recorder.last_of("counter")
            assert counter.name == "diag" and counter.data == {"value": float(rank)}
            assert recorder.rank == rank


@pytest.fixture(autouse=True)
def _isolate_ambient_state():
    """No test leaks a rundir or journal into the shared global recorder."""
    previous = get_rundir()
    yield
    set_rundir(previous)
    get_recorder().close_journal()
    get_recorder().set_state_provider(None)
