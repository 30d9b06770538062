"""Sweep driver tests: specs, scenario runs, worker pool, merged manifest."""

import json
import multiprocessing as mp
import sys
from pathlib import Path

import pytest

from repro.backends.c_backend import c_compiler_available
from repro.observability import load_journal, load_manifest
from repro.pfm.parameters import make_two_phase_binary
from repro.service.sweep import (
    SWEEP_SCHEMA,
    ScenarioSpec,
    demo_specs,
    load_sweep_manifest,
    main,
    run_scenario,
    run_sweep,
)

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="needs fork start method"
)

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tiny(name="s0", **kw):
    kw.setdefault("model", "binary2")
    kw.setdefault("shape", (12, 12))
    kw.setdefault("steps", 2)
    kw.setdefault("backend", "numpy")
    return ScenarioSpec(name=name, **kw)


class TestScenarioSpec:
    def test_roundtrip(self):
        spec = _tiny(overrides={"undercooling": 0.3}, seed=5)
        again = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            ScenarioSpec(name="x", model="nope")

    def test_shape_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dim=2"):
            ScenarioSpec(name="x", shape=(8, 8, 8))

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(ValueError, match="unknown spec fields"):
            ScenarioSpec.from_dict({"name": "x", "bogus": 1})

    def test_undercooling_override_sets_temperature(self):
        params = _tiny(overrides={"undercooling": 0.4}).build_parameters()
        base = make_two_phase_binary(dim=2)
        assert float(params.temperature.expr) == pytest.approx(0.6)
        assert params.temperature.expr != base.temperature.expr

    def test_plain_override_sets_field(self):
        params = _tiny(overrides={"dt": 0.01}).build_parameters()
        assert params.dt == 0.01

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="no field"):
            _tiny(overrides={"not_a_field": 1}).build_parameters()


class TestRunScenario:
    def test_single_scenario_produces_rundir(self, tmp_path, cold_cache):
        spec = _tiny(steps=3)
        summary = run_scenario(spec, tmp_path / "run")
        assert summary["status"] == "ok"
        assert summary["steps"] == 3 and summary["cells"] == 144
        assert summary["codegen_seconds"] > 0
        assert summary["diagnostics_rows"] >= 3
        assert "free_energy" in summary["final"]
        rundir = tmp_path / "run"
        manifest = json.loads((rundir / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["config"]["name"] == spec.name
        assert (rundir / "diagnostics.csv").exists()
        # the recorder's cost of this run: at least every journaled event
        journaled = len(load_journal(rundir / "journal.jsonl").events)
        assert manifest["recorder_overhead"]["events"] >= journaled > 0
        assert manifest["recorder_overhead"]["seconds"] > 0


@needs_fork
class TestRunSweep:
    def test_sweep_merges_scenarios(self, tmp_path, cold_cache):
        specs = [_tiny(f"s{i}", seed=i) for i in range(3)]
        manifest = run_sweep(specs, tmp_path / "sweep", workers=2)
        assert manifest["schema"] == SWEEP_SCHEMA
        totals = manifest["totals"]
        assert totals["ok"] == 3 and totals["failed"] == 0
        assert totals["cell_updates"] == 3 * 144 * 2
        assert len(manifest["scenarios"]) == 3
        for entry in manifest["scenarios"]:
            assert entry["status"] == "ok"
            # rundir is recorded relative to the sweep dir so the manifest
            # survives the directory being moved or uploaded as an artifact
            assert not Path(entry["rundir"]).is_absolute()
            assert (tmp_path / "sweep" / entry["rundir"] / "manifest.json").exists()
        # the merged manifest is on disk and loadable
        again = load_sweep_manifest(tmp_path / "sweep")
        assert again["totals"]["ok"] == 3
        assert manifest["queue_depth_samples"]

    def test_a_second_sweep_counts_only_its_own_run(self, tmp_path, cold_cache):
        """Totals and overheads are per run, not per process."""
        specs = [_tiny("a"), _tiny("b")]
        sweeps = [
            run_sweep(specs, tmp_path / tag, workers=1) for tag in ("one", "two")
        ]
        for tag, manifest in zip(("one", "two"), sweeps):
            totals = manifest["totals"]
            assert (totals["ok"], totals["failed"]) == (2, 0)
            for key in ("memory_hits", "memory_misses", "disk_hits", "disk_builds"):
                assert totals[key] == sum(e["cache"][key] for e in manifest["scenarios"])
            events = {}
            for entry in manifest["scenarios"]:
                rundir = tmp_path / tag / entry["rundir"]
                overhead = load_manifest(rundir)["recorder_overhead"]
                journaled = len(load_journal(rundir / "journal.jsonl").events)
                assert overhead["events"] >= journaled > 0
                events[entry["name"]] = overhead["events"]
            # one worker runs "b" after "a": counted since "a" began, "b"
            # would hold a's events too; "b" hits the kernel cache "a" filled
            assert events["b"] <= events["a"]

    def test_failing_scenario_recorded_not_fatal(self, tmp_path, cold_cache):
        specs = [
            _tiny("good"),
            _tiny("bad", overrides={"not_a_field": 1}),
        ]
        manifest = run_sweep(specs, tmp_path / "sweep", workers=2)
        by_name = {e.get("name"): e for e in manifest["scenarios"]}
        assert by_name["good"]["status"] == "ok"
        assert by_name["bad"]["status"] == "failed"
        assert "no field" in by_name["bad"]["error"]
        assert manifest["totals"] == pytest.approx(
            manifest["totals"] | {"ok": 1, "failed": 1}
        )

    def test_duplicate_names_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unique"):
            run_sweep([_tiny("a"), _tiny("a")], tmp_path / "sweep")

    @pytest.mark.skipif(
        not c_compiler_available(), reason="no C compiler available"
    )
    def test_workers_share_the_disk_cache(self, tmp_path, cold_cache):
        """A warm second sweep compiles nothing in any worker."""
        specs = [_tiny(f"c{i}", backend="c", seed=i) for i in range(2)]
        cold = run_sweep(specs, tmp_path / "cold", workers=2)
        assert cold["totals"]["ok"] == 2
        assert cold["totals"]["disk_builds"] > 0
        warm = run_sweep(specs, tmp_path / "warm", workers=2)
        assert warm["totals"]["ok"] == 2
        assert warm["totals"]["disk_builds"] == 0
        assert warm["totals"]["disk_hits"] > 0


class TestManifestValidation:
    def test_load_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "sweep.json"
        bad.write_text(json.dumps({"schema": "bogus/9"}))
        with pytest.raises(ValueError, match="schema"):
            load_sweep_manifest(tmp_path)

    def test_demo_specs_are_valid_and_distinct(self):
        specs = demo_specs(4)
        assert len({s.name for s in specs}) == 4
        for spec in specs:
            spec.build_parameters()


class TestCommandLine:
    """``python -m repro.service.sweep``."""

    @pytest.mark.parametrize("argv", [[], ["--demo", "2", "--specs", "specs.json"]])
    def test_specs_and_demo_exclude_each_other(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--out", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "exactly one of --specs / --demo is required" in capsys.readouterr().err

    @needs_fork
    def test_a_two_scenario_demo(self, tmp_path, cold_cache, capsys):
        out = tmp_path / "demo"
        argv = ["--demo", "2", "--steps", "2", "--workers", "1", "--backend", "numpy"]
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("sweep: 2 ok, 0 failed")
        manifest = load_sweep_manifest(out)
        assert [e["name"] for e in manifest["scenarios"]] == ["dT0.1", "dT0.2"]
        assert manifest["totals"]["cell_updates"] == 2 * 24 * 24 * 2


@needs_fork
class TestSweepTools:
    @pytest.fixture
    def sweep_dir(self, tmp_path, cold_cache):
        run_sweep([_tiny(f"s{i}") for i in range(2)], tmp_path / "sw", workers=1)
        return tmp_path / "sw"

    def test_check_observability_require_sweep(self, sweep_dir, capsys):
        sys.path.insert(0, str(TOOLS))
        try:
            from check_observability import check_sweep

            check_sweep(sweep_dir)
        finally:
            sys.path.remove(str(TOOLS))
        assert "sweep manifest ok" in capsys.readouterr().out

    def test_run_report_renders_sweep_section(self, sweep_dir):
        sys.path.insert(0, str(TOOLS))
        try:
            from run_report import main as report_main

            assert report_main([str(sweep_dir)]) == 0
        finally:
            sys.path.remove(str(TOOLS))
        html = (sweep_dir / "report.html").read_text()
        for needle in ("Sweep summary", "Queue depth", "Scenarios", "s0", "s1"):
            assert needle in html
