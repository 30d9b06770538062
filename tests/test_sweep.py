"""Sweep driver tests: specs, scenario runs, worker pool, merged manifest."""

import json
import multiprocessing as mp
import sys
from pathlib import Path

import pytest

from repro.backends.c_backend import c_compiler_available
from repro.pfm.parameters import make_two_phase_binary
from repro.profiling import clear_kernel_cache
from repro.profiling.diskcache import reset_disk_cache_stats
from repro.service.sweep import (
    SWEEP_SCHEMA,
    ScenarioSpec,
    demo_specs,
    load_sweep_manifest,
    run_scenario,
    run_sweep,
)

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="needs fork start method"
)

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A private, cold cache root: the forked workers inherit this process's
    in-memory kernel cache, so a warm one would build nothing on disk."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "kernel-cache"))
    clear_kernel_cache()
    reset_disk_cache_stats()
    yield tmp_path / "kernel-cache"
    reset_disk_cache_stats()


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
    def test_single_scenario_produces_rundir(self, tmp_path, cache_dir):
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
        assert (rundir / "metrics.prom").exists()


@needs_fork
class TestRunSweep:
    def test_sweep_merges_scenarios(self, tmp_path, cache_dir):
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
        assert (tmp_path / "sweep" / "metrics.prom").exists()
        assert manifest["queue_depth_samples"]

    def test_failing_scenario_recorded_not_fatal(self, tmp_path, cache_dir):
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
    def test_workers_share_the_disk_cache(self, tmp_path, cache_dir):
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


@needs_fork
class TestSweepTools:
    @pytest.fixture
    def sweep_dir(self, tmp_path, cache_dir):
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
