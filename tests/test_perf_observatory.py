"""Kernel performance observatory: counters, ledger, trends, detection.

The contract under test: a perf_event_open(2) harness that degrades
perf -> rusage -> time (each rung forcible, a forced rung never silently
degrades), per-kernel counter attribution through the profiler with an
explicit provenance line on every counter-bearing report, the per-run
``repro-perf/1`` JSONL ledger (a crashed run's torn tail costs no later
record), and /sys host auto-detection whose key never includes the
hostname.
"""

import json
import math
import subprocess

import pytest

from repro.observability.hwcounters import (
    CHAIN,
    CounterHarness,
    CounterSample,
    counter_provenance_line,
    make_harness,
    perf_events_available,
    probe_capabilities,
    set_counter_harness,
)
from repro.observability.fingerprint import FingerprintLedger, fingerprint_record
from repro.observability.metrics import MetricsRegistry
from repro.observability.rundir import RunDir, git_sha
from repro.perfmodel.ledger import (
    PerfLedger,
    PerfSchemaError,
    host_stanza,
    perf_record,
    validate_perf_record,
)
from repro.perfmodel.machine import (
    HASWELL_2690V3,
    detect_cache_hierarchy,
    detect_host,
    detect_machine,
    detect_physical_cores,
)
from repro.profiling import SolverProfiler


@pytest.fixture
def forced_harness():
    """Install a forced-rung harness process-wide; restore afterwards."""
    installed = []

    def install(rung):
        harness = make_harness(force=rung)
        installed.append(set_counter_harness(harness))
        return harness

    yield install
    while installed:
        set_counter_harness(installed.pop())


# -- the degradation chain ----------------------------------------------------


class TestDegradationChain:
    def test_chain_order(self):
        assert CHAIN == ("perf", "rusage", "time")

    def test_force_rusage(self):
        harness = make_harness(force="rusage")
        a = harness.sample()
        sum(range(20000))
        b = harness.sample()
        delta = harness.delta(a, b)
        assert harness.source == "rusage"
        assert delta.wall_seconds > 0
        assert delta.cpu_seconds is not None and delta.cpu_seconds >= 0
        assert delta.cycles is None and delta.instructions is None

    def test_force_time_populates_wall_only(self):
        harness = make_harness(force="time")
        delta = harness.delta(harness.sample(), harness.sample())
        assert delta.wall_seconds >= 0
        assert delta.cpu_seconds is None and delta.cache_misses is None
        assert harness.counter_names == ()

    def test_force_off_disables_sampling(self):
        harness = make_harness(force="off")
        assert not harness.active
        assert harness.sample() is None
        assert harness.delta(None, None) is None

    def test_forced_perf_never_silently_degrades(self):
        ok, _reason = perf_events_available()
        if ok:
            assert make_harness(force="perf").source == "perf"
        else:
            with pytest.raises(RuntimeError, match="perf_event_open failed"):
                make_harness(force="perf")

    def test_unknown_rung_rejected(self):
        with pytest.raises(ValueError, match="unknown counter source"):
            make_harness(force="bogus")
        with pytest.raises(ValueError):
            CounterHarness("bogus")

    def test_env_var_forces_rung(self, monkeypatch):
        monkeypatch.setenv("REPRO_HWCOUNTERS", "time")
        assert make_harness().source == "time"
        monkeypatch.setenv("REPRO_HWCOUNTERS", "auto")
        assert make_harness().source in (*CHAIN, "off")

    def test_probe_selects_a_chain_rung(self):
        caps = probe_capabilities()
        assert caps["selected"] in CHAIN
        if not caps["perf"]:
            assert caps["selected"] in ("rusage", "time")

    def test_sample_overhead_is_bounded(self):
        # 10 us per sample is ~4x what the rusage rung reads on a 2-vCPU
        # guest (2.2-3.6 us); best of three, a throttled vCPU reads x1.5
        n = 2000
        costs = []
        for _ in range(3):
            harness = make_harness(force="rusage")
            for _ in range(n):
                harness.sample()
            assert harness.samples_taken == n
            costs.append(harness.overhead_seconds / n)
        assert min(costs) < 10e-6

    def test_publish_overhead_exports_gauge(self):
        harness = make_harness(force="rusage")
        harness.sample()
        registry = MetricsRegistry()
        value = harness.publish_overhead(registry)
        snapshot = json.dumps(registry.to_json())
        assert "repro_counter_overhead_seconds" in snapshot
        assert "rusage" in snapshot
        assert value == harness.overhead_seconds > 0


# -- provenance ----------------------------------------------------------------


class TestProvenance:
    def test_fallback_line_is_exact(self):
        line = counter_provenance_line(make_harness(force="rusage"))
        assert line == "counters: unavailable (fallback=rusage)"
        line = counter_provenance_line(make_harness(force="time"))
        assert line == "counters: unavailable (fallback=time)"

    def test_disabled_line(self):
        assert counter_provenance_line(make_harness(force="off")) == (
            "counters: disabled"
        )

    def test_profiler_report_carries_provenance(self, forced_harness):
        forced_harness("rusage")
        profiler = SolverProfiler()
        with profiler.measure("phi", cells=100):
            sum(range(1000))
        report = profiler.report()
        assert report.strip().endswith("counters: unavailable (fallback=rusage)")


# -- per-kernel attribution through the profiler -------------------------------


class TestAttribution:
    def test_measure_absorbs_counters(self, forced_harness):
        forced_harness("rusage")
        profiler = SolverProfiler()
        with profiler.measure("phi", cells=1000):
            sum(range(50000))
        rec = profiler.records["phi"]
        assert rec.calls == 1
        assert rec.cpu_seconds >= 0
        assert rec.counted_calls == 0       # rusage rung has no cycle counts

    @pytest.mark.parametrize("backend", ["numpy", "c"])
    def test_counters_cover_the_measured_interval(self, backend):
        """One instrument: the block that takes the seconds takes the counters.

        The harness reads the profiler's own clock as CPU time (``getrusage``
        advances in scheduler ticks, longer than a sweep) and the sample
        ordinal as cycles.  The samples enclose the timer, nothing samples
        in between, and a C sweep reads as a NumPy sweep does.
        """
        from time import perf_counter

        from repro.backends.c_backend import c_compiler_available
        from repro.pfm import (
            GrandPotentialModel,
            SingleBlockSolver,
            make_two_phase_binary,
            planar_front,
        )

        if backend == "c" and not c_compiler_available():
            pytest.skip("no C compiler available")

        class ClockHarness(CounterHarness):
            def sample(self):
                self._samples += 1
                now = perf_counter()
                return CounterSample(now, now, 0.0, float(self._samples))

        kernels = GrandPotentialModel(make_two_phase_binary(dim=2)).create_kernels()
        solver = SingleBlockSolver(kernels, (16, 16), backend=backend)
        solver.set_state(planar_front((16, 16), 2, 0, 1, position=6.0, epsilon=4.0), mu=0.0)
        previous = set_counter_harness(ClockHarness("time"))
        try:
            solver.step(1)
            solver.profiler.reset()
            solver.step(5)
        finally:
            set_counter_harness(previous)
        records = solver.profiler.records.values()
        assert sum(1 for rec in records if rec.cells) == 3
        for rec in records:
            assert rec.calls == 5
            assert rec.cpu_seconds >= rec.seconds > 0.0
            assert rec.cycles == rec.counted_calls == rec.calls

    def test_merge_accumulates_counter_fields(self):
        a, b = SolverProfiler(), SolverProfiler()
        for profiler in (a, b):
            profiler.record(
                "phi", 0.1, cells=10, counters=CounterSample(0.1, 0.1, 0.0, 500.0)
            )
        a.merge(b)
        rec = a.records["phi"]
        assert rec.cycles == 1000.0 and rec.counted_calls == 2

    def test_measured_bytes_per_lup_from_misses(self):
        from repro.profiling.profiler import TimingRecord

        rec = TimingRecord("phi", calls=1, seconds=1.0, cells=64)
        rec.cache_misses, rec.cycles = 16.0, 1.0
        assert rec.measured_bytes_per_lup(line_bytes=64) == pytest.approx(16.0)
        rec.cache_misses = 0.0
        assert rec.measured_bytes_per_lup() is None


class TestLayering:
    def test_the_codegen_pipeline_does_not_import_the_instruments(self):
        """A backend prints and calls (paper §3.5); the time loop measures."""
        import ast
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        banned = ("repro.observability.hwcounters", "repro.profiling.profiler")
        offenders = []
        for layer in ("symbolic", "discretization", "simplification", "ir", "backends"):
            for path in sorted((root / layer).glob("*.py")):
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.Import):
                        names = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom):
                        # one dot is repro.<layer>, two dots repro, none absolute
                        base = ("repro", layer)[: 3 - node.level] if node.level else ()
                        module = ".".join((*base, *filter(None, [node.module])))
                        names = [module, *(f"{module}.{alias.name}" for alias in node.names)]
                    else:
                        continue
                    offenders += [
                        f"{path.relative_to(root)}: {name}"
                        for name in names
                        if name.startswith(banned)
                    ]
        assert offenders == []


# -- the repro-perf/1 ledger ---------------------------------------------------


def _record(bench="kernels", name="kernels/phi", mlups=10.0,
            fingerprint="f" * 16, options=None, timestamp="2026-08-08T00:00:00"):
    return perf_record(
        bench, name,
        measured={"mlups": mlups, "mean_seconds": 1.0 / mlups,
                  "counter_source": "rusage"},
        predicted={"mlups": mlups * 2},
        kernel={"name": "phi", "fingerprint": fingerprint},
        options=options or {"backend": "c"},
        timestamp=timestamp,
    )


class TestPerfLedger:
    def test_round_trip(self, tmp_path):
        ledger = PerfLedger(tmp_path / "deep" / "history.jsonl")
        assert ledger.load() == []
        written = ledger.extend([_record(mlups=10.0), _record(mlups=11.0)])
        assert written == 2
        loaded = ledger.load(strict=True)
        assert [r["measured"]["mlups"] for r in loaded] == [10.0, 11.0]
        assert all(r["schema"] == "repro-perf/1" for r in loaded)
        assert all(r["host"]["key"] == host_stanza()["key"] for r in loaded)

    def test_append_only(self, tmp_path):
        ledger = PerfLedger(tmp_path / "h.jsonl")
        ledger.append(_record(mlups=1.0))
        ledger.append(_record(mlups=2.0))
        assert len(ledger.path.read_text().splitlines()) == 2

    def test_host_key_excludes_hostname(self, monkeypatch):
        record = _record()
        assert record["host"]["key"] == host_stanza()["key"]
        # the key hashes hardware identity only: the same machine under
        # another hostname (a fresh CI container) keeps it
        monkeypatch.setattr(
            "repro.perfmodel.machine.socket.gethostname",
            lambda: "some-other-ci-container",
        )
        renamed = detect_host()
        assert renamed["hostname"] == "some-other-ci-container"
        assert renamed["key"] == record["host"]["key"]

    def test_one_git_process_for_all_records(self, monkeypatch):
        calls = []
        real_run = subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        git_sha.cache_clear()
        monkeypatch.setattr(subprocess, "run", counting_run)
        shas = {_record(mlups=v)["git_sha"] for v in (1.0, 2.0, 3.0)}
        assert len(calls) == 1
        assert shas == {git_sha()}

    def test_invalid_records_rejected(self):
        with pytest.raises(PerfSchemaError, match="not finite"):
            perf_record("b", "n", measured={"mlups": math.nan})
        with pytest.raises(PerfSchemaError, match="fingerprint"):
            perf_record("b", "n", measured={"mlups": 1.0},
                        kernel={"name": "phi"})
        with pytest.raises(PerfSchemaError, match="schema"):
            validate_perf_record({"schema": "repro-run/1"})
        with pytest.raises(PerfSchemaError, match="measured"):
            validate_perf_record({**_record(), "measured": {}})

    def test_torn_tail_tolerated(self, tmp_path):
        ledger = PerfLedger(tmp_path / "h.jsonl")
        ledger.extend([_record(mlups=10.0), _record(mlups=11.0)])
        with open(ledger.path, "a") as fh:
            fh.write('{"schema": "repro-perf/1", "bench": "ker')   # torn write
        assert len(ledger.load()) == 2
        assert len(ledger.load(strict=True)) == 2   # torn tail always forgiven

    @pytest.mark.parametrize("ledger_class, make_record", [
        (PerfLedger, lambda i: _record(mlups=1.0 + i)),
        (FingerprintLedger,
         lambda i: fingerprint_record(i, 0.0, {"phi": {"0": "ab" * 16}})),
    ])
    def test_append_after_crash_keeps_every_record(
        self, tmp_path, ledger_class, make_record
    ):
        ledger = ledger_class(tmp_path / "h.jsonl")
        records = [make_record(i) for i in range(3)]
        ledger.append(records[0])
        with open(ledger.path, "a") as fh:
            fh.write('{"schema": "repro-perf/1", "bench": "ker')   # killed run
        ledger.append(records[1])
        assert ledger.load(strict=True) == records[:2]
        ledger.append(records[2])
        assert ledger.load(strict=True) == records

    def test_strict_raises_on_malformed_middle_line(self, tmp_path):
        ledger = PerfLedger(tmp_path / "h.jsonl")
        ledger.append(_record())
        with open(ledger.path, "a") as fh:
            fh.write('{"schema": "wrong"}\n')
        ledger.append(_record())
        assert len(ledger.load()) == 2              # lenient: skip bad line
        with pytest.raises(PerfSchemaError, match="h.jsonl:2"):
            ledger.load(strict=True)

    def test_rundir_perf_artifact(self, tmp_path):
        rundir = RunDir(tmp_path / "run", config={})
        assert rundir.perf_path == rundir.perf_dir / "perf.jsonl"
        PerfLedger(rundir.perf_path).append(_record())
        rundir.write_manifest(status="ok")
        artifacts = rundir.artifacts()
        assert "perf" in artifacts and artifacts["perf"] == ["perf.jsonl"]
        assert len(PerfLedger(rundir.perf_path).load(strict=True)) == 1


# -- records_from_profiler: the measured-vs-predicted join --------------------


class TestRecordsFromProfiler:
    def test_solver_export(self, tmp_path, forced_harness):
        forced_harness("rusage")
        from repro.perfmodel.ledger import records_from_profiler
        from repro.pfm import (
            GrandPotentialModel,
            SingleBlockSolver,
            make_two_phase_binary,
            planar_front,
        )

        params = make_two_phase_binary(dim=2)
        kernels = GrandPotentialModel(params).create_kernels()
        shape = (16, 16)
        solver = SingleBlockSolver(kernels, shape)
        solver.set_state(
            planar_front(shape, params.n_phases, 0, 1, position=6.0,
                         epsilon=params.epsilon),
            mu=0.0,
        )
        solver.step(3)
        records = records_from_profiler(
            "unit", kernels.all_kernels, solver.profiler,
            block_shape=shape, options={"backend": solver.backend},
        )
        assert records, "profiled kernels must produce perf records"
        by_name = {r["name"]: r for r in records}
        assert any(name.startswith("kernels/") for name in by_name)
        for record in records:
            validate_perf_record(record)
            assert record["kernel"]["fingerprint"]
            assert record["measured"]["mlups"] > 0
            assert record["measured"]["counter_source"] == "rusage"
            assert record["measured"]["cycles_per_lup"] is None
            assert record["predicted"]["mlups"] > 0
        ledger = PerfLedger(tmp_path / "h.jsonl")
        ledger.extend(records)
        assert len(ledger.load(strict=True)) == len(records)


# -- host auto-detection -------------------------------------------------------


class TestHostDetection:
    def test_physical_cores(self):
        cores, detected = detect_physical_cores()
        assert isinstance(cores, int) and cores >= 1
        assert isinstance(detected, bool)

    def test_cache_hierarchy(self):
        levels, line_bytes, detected = detect_cache_hierarchy()
        assert levels and all(size > 0 for _name, size in levels)
        sizes = [size for _name, size in levels]
        assert sizes == sorted(sizes), "cache sizes must grow outwards"
        assert line_bytes in (32, 64, 128, 256)
        assert isinstance(detected, bool)

    def test_host_stanza_fields_and_stability(self):
        host = detect_host()
        for field in ("cpu_model", "arch", "physical_cores", "caches",
                      "cache_line_bytes", "hostname", "key"):
            assert field in host
        assert len(host["key"]) == 16
        assert detect_host()["key"] == host["key"], "key must be deterministic"

    def test_detect_machine_overrides_base(self):
        machine = detect_machine()
        assert machine.cores_per_socket >= 1
        assert machine.cache_line_bytes >= 32
        assert machine.cache_levels, "must keep a cache hierarchy"
        assert machine.cache_levels[-1].shared, "last level stays shared"
        # clock and bandwidth keep the base values: no portable way to
        # read sustained AVX clock or saturated bandwidth from /sys
        assert machine.clock_ghz == HASWELL_2690V3.clock_ghz
        assert machine.mem_bandwidth_gbs == HASWELL_2690V3.mem_bandwidth_gbs
