"""Kernel performance observatory: counters, ledger, trends, detection.

The contract under test: a perf_event_open(2) counter group per thread where
the host has a PMU and no sampling at all where it has none — driven here
through :class:`FakePMU`, since a VM rarely exposes one — per-kernel counter
attribution through the profiler with an explicit provenance line on every
counter-bearing report, the per-run ``repro-perf/1`` JSONL ledger (a
crashed run's torn tail costs no later record), and /sys host
auto-detection whose key never includes the hostname.
"""

import errno
import functools
import math
import os
import struct
import subprocess
import types
from time import perf_counter, perf_counter_ns

import pytest

import repro.observability.hwcounters as hwcounters
from repro.backends.c_backend import c_compiler_available
from repro.observability.hwcounters import (
    PERF_EVENTS,
    CounterHarness,
    CounterSample,
    PerfEventGroup,
    counter_provenance_line,
    get_counter_harness,
    perf_events_available,
    set_counter_harness,
)
from repro.observability.fingerprint import FingerprintLedger, fingerprint_record
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
from repro.profiling.profiler import TimingRecord

NO_PMU_LINE = "counters: unavailable (perf_event_open: ENOENT)"


class FakePMU:
    """A PMU in Python: ``perf_event_open``, ``ioctl``, ``read`` and ``close``.

    Every event of ``PERF_EVENTS`` opens, except those whose config is in
    *reject*.  The n-th read of a group returns the ``PERF_FORMAT_GROUP |
    TOTAL_TIME_ENABLED | TOTAL_TIME_RUNNING`` words ``nr, enabled, running,
    value[nr]`` with ``value = n * (config + 1)`` for each open event, in
    open order.  The fds are far above any descriptor limit, and any other
    fd goes to the real ``os.read`` / ``os.close``.
    """

    BASE = 1 << 24

    def __init__(self, monkeypatch, reject=(), enabled=1000, running=1000):
        self.reject = set(reject)
        self.enabled, self.running = enabled, running
        self.groups: dict[int, list[int]] = {}   # leader fd -> configs
        self.group_reads: dict[int, int] = {}
        self.reads = 0
        self._next_fd = self.BASE
        real_read, real_close = os.read, os.close

        def read(fd, n):
            return self._read(fd)[:n] if fd in self.groups else real_read(fd, n)

        def close(fd):
            if fd < self.BASE:
                real_close(fd)

        monkeypatch.setattr(hwcounters, "_perf_event_open", self._open)
        monkeypatch.setattr(
            hwcounters, "_libc", lambda: types.SimpleNamespace(ioctl=lambda *args: 0)
        )
        monkeypatch.setattr(os, "read", read)
        monkeypatch.setattr(os, "close", close)

    def _open(self, config, group_fd):
        if config in self.reject:
            return -errno.ENOENT
        fd = self._next_fd
        self._next_fd += 1
        if group_fd == -1:
            self.groups[fd] = [config]
            self.group_reads[fd] = 0
        else:
            self.groups[group_fd].append(config)
        return fd

    def _read(self, leader):
        self.reads += 1
        self.group_reads[leader] += 1
        n = self.group_reads[leader]
        configs = self.groups[leader]
        words = (len(configs), self.enabled, self.running, *(n * (c + 1) for c in configs))
        return struct.pack(f"{len(words)}Q", *words)


@pytest.fixture(autouse=True)
def _reprobe_counters():
    """Every test starts and ends with the harness unprobed."""
    set_counter_harness(None)
    yield
    set_counter_harness(None)


@pytest.fixture
def no_pmu(monkeypatch):
    """A host where perf_event_open fails with ENOENT (no PMU exposed)."""
    monkeypatch.setattr(
        hwcounters, "_perf_event_open", lambda config, group_fd: -errno.ENOENT
    )


@pytest.fixture
def fake_pmu(monkeypatch):
    """A host with a PMU: the harness counts through a :class:`FakePMU`."""
    pmu = FakePMU(monkeypatch)
    assert isinstance(get_counter_harness(), CounterHarness)
    return pmu


@functools.cache
def _binary_kernels():
    from repro.pfm import GrandPotentialModel, make_two_phase_binary

    return GrandPotentialModel(make_two_phase_binary(dim=2)).create_kernels()


def _front(shape=(16, 16)):
    from repro.pfm import planar_front

    return planar_front(shape, 2, 0, 1, position=6.0, epsilon=4.0)


def _binary_solver(backend, shape=(16, 16), **options):
    from repro.pfm import SingleBlockSolver

    if backend == "c" and not c_compiler_available():
        pytest.skip("no C compiler available")
    solver = SingleBlockSolver(_binary_kernels(), shape, backend=backend, **options)
    solver.set_state(_front(shape), mu=0.0)
    return solver


# -- the two states: a perf_event group, or nothing ----------------------------


class TestDegradationChain:
    """What is left of the chain: a perf_event group, then nothing."""

    def test_chain_order(self, monkeypatch):
        """perf_event where it opens; where it does not, no harness at all."""
        FakePMU(monkeypatch)
        assert isinstance(get_counter_harness(), CounterHarness)
        monkeypatch.setattr(
            hwcounters, "_perf_event_open", lambda config, group_fd: -errno.EACCES
        )
        set_counter_harness(None)
        assert get_counter_harness() is None
        assert counter_provenance_line() == (
            "counters: unavailable (perf_event_open: EACCES)"
        )

    def test_probe_selects_a_chain_rung(self):
        ok, reason = perf_events_available()
        harness = get_counter_harness()
        assert (harness is not None) == ok
        if not ok:
            assert counter_provenance_line() == (
                f"counters: unavailable (perf_event_open: {reason})"
            )

    def test_sample_overhead_is_bounded(self, fake_pmu):
        # the harness's own share of a sample (group read, unpack, scaling,
        # CounterSample) against 10 us: the fake's read(2) is timed alone in
        # the same window and taken off; best of three, a throttled vCPU
        # reads x1.5
        harness = get_counter_harness()
        harness.sample()                    # opens this thread's group
        leader = max(fake_pmu.groups)       # the group opened last
        n = 2000
        costs = []
        for _ in range(3):
            t0 = perf_counter()
            for _ in range(n):
                harness.sample()
            t1 = perf_counter()
            for _ in range(n):
                os.read(leader, 64)
            t2 = perf_counter()
            costs.append(((t1 - t0) - (t2 - t1)) / n)
        assert min(costs) < 10e-6


class TestFakePMU:
    """The perf_event path, end to end, on a host without a PMU."""

    def test_group_read_scales_multiplexed_counts_and_keeps_sibling_order(
        self, monkeypatch
    ):
        # the PMU rejects cache_references; the group ran half the time
        FakePMU(monkeypatch, reject={2}, enabled=2000, running=1000)
        group = PerfEventGroup()
        assert group.names == (
            "cycles", "instructions", "cache_misses", "stalled_cycles"
        )
        config = dict(PERF_EVENTS)
        for n in (1, 2):
            assert group.read() == {
                name: 2.0 * n * (config[name] + 1) for name in group.names
            }
        group.close()

    @pytest.mark.parametrize("backend", ["numpy", "c"])
    def test_a_step_reads_the_group_twice_per_measured_operation(
        self, fake_pmu, backend
    ):
        solver = _binary_solver(backend)
        solver.step(1)
        solver.profiler.reset()
        reads = fake_pmu.reads
        solver.step(5)
        # three kernels and two fills, two reads each
        assert fake_pmu.reads - reads == 5 * 10
        records = solver.profiler.records.values()
        assert len(records) == 5
        for rec in records:
            # the n-th read counts n cycles, 2n instructions, 4n misses
            assert rec.cycles == rec.counted_calls == rec.calls == 5
            assert rec.instructions == 2 * rec.calls
            assert rec.cache_misses == 4 * rec.calls
            assert rec.stalled_cycles == 8 * rec.calls

    def test_report_carries_counter_columns_and_perf_provenance(self, fake_pmu):
        solver = _binary_solver("numpy")
        solver.step(3)
        report = solver.profile_report()
        header = next(line for line in report.splitlines() if "MLUP/s" in line)
        assert "cy/LUP" in header and "IPC" in header
        assert " 2.00" in report      # IPC: two instructions per cycle
        assert report.strip().endswith(
            "counters: perf_event (cycles, instructions, cache_references, "
            "cache_misses, stalled_cycles)"
        )


# -- provenance ----------------------------------------------------------------


class TestProvenance:
    def test_fallback_line_is_exact(self, no_pmu):
        assert counter_provenance_line() == NO_PMU_LINE

    def test_profiler_report_carries_provenance(self, no_pmu):
        profiler = SolverProfiler()
        with profiler.measure("phi", cells=100):
            sum(range(1000))
        report = profiler.report()
        assert "cy/LUP" not in report
        assert report.strip().endswith(NO_PMU_LINE)


# -- per-kernel attribution through the profiler -------------------------------


class TestAttribution:
    def test_measure_absorbs_counters(self, fake_pmu):
        profiler = SolverProfiler()
        with profiler.measure("phi", cells=1000):
            sum(range(50000))
        rec = profiler.records["phi"]
        assert rec.calls == rec.counted_calls == 1
        assert (rec.cycles, rec.instructions, rec.cache_misses) == (1.0, 2.0, 4.0)
        assert rec.ipc == 2.0

    @pytest.mark.parametrize("backend", ["numpy", "c"])
    def test_counters_cover_the_measured_interval(self, backend):
        """One instrument: the block that takes the seconds takes the counters.

        The harness reads the profiler's own clock, in nanoseconds, as
        cycles and the sample ordinal as instructions.  The samples enclose
        the timer, nothing samples in between, and a C sweep reads as a
        NumPy sweep does.
        """

        class ClockHarness(CounterHarness):
            samples = 0

            def sample(self):
                self.samples += 1
                return CounterSample(float(perf_counter_ns()), float(self.samples))

        solver = _binary_solver(backend)
        solver.step(1)
        solver.profiler.reset()
        set_counter_harness(ClockHarness())
        solver.step(5)
        records = solver.profiler.records.values()
        assert sum(1 for rec in records if rec.cells) == 3
        for rec in records:
            assert rec.calls == rec.counted_calls == rec.instructions == 5
            assert rec.cycles >= rec.seconds * 1e9 > 0.0

    def test_merge_accumulates_counter_fields(self):
        a, b = SolverProfiler(), SolverProfiler()
        for profiler in (a, b):
            profiler.records["phi"] = TimingRecord(
                "phi", calls=1, seconds=0.1, cells=10, cycles=500.0, counted_calls=1
            )
        a.merge(b)
        rec = a.records["phi"]
        assert rec.cycles == 1000.0 and rec.counted_calls == 2

    def test_measured_bytes_per_lup_from_misses(self):
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
                  "counter_source": "unavailable"},
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
    def test_solver_export(self, tmp_path, no_pmu):
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
            assert record["measured"]["counter_source"] == "unavailable"
            assert record["measured"]["cycles_per_lup"] is None
            assert "cpu_seconds" not in record["measured"]
            assert record["predicted"]["mlups"] > 0
        ledger = PerfLedger(tmp_path / "h.jsonl")
        ledger.extend(records)
        assert len(ledger.load(strict=True)) == len(records)

    def test_export_perf_appends_to_the_rundir_ledger(self, tmp_path, fake_pmu):
        with pytest.raises(ValueError, match="export_perf needs a path"):
            _binary_solver("numpy").export_perf()
        with RunDir(tmp_path / "run", config={}) as rundir:
            solver = _binary_solver("numpy", rundir=rundir)
            solver.step(3)
            assert solver.export_perf(bench="unit") == str(rundir.perf_path)
            assert solver.export_perf(bench="unit") == str(rundir.perf_path)  # appends
        records = PerfLedger(rundir.perf_path).load(strict=True)
        kernels = [f"kernels/{k.name}" for k in solver.kernels]
        assert [r["name"] for r in records] == kernels * 2
        for record in records:
            assert record["bench"] == "unit"
            assert record["options"]["backend"] == "numpy"
            measured = record["measured"]
            assert measured["counter_source"] == "perf"
            assert measured["ipc"] == 2.0     # the fake PMU's 2n instructions
            assert measured["cycles_per_lup"] == pytest.approx(1 / (16 * 16))

    def test_export_perf_writes_on_rank_0_only(self, tmp_path):
        from repro.parallel import BlockForest, DistributedSolver, run_ranks

        kernel_set = _binary_kernels()
        forest = BlockForest((16, 16), (8, 16))
        path = tmp_path / "perf.jsonl"
        phi0 = _front()

        def prog(comm):
            solver = DistributedSolver(kernel_set, forest, comm=comm)
            solver.set_state_from(lambda offset, shape: (phi0[offset[0]:offset[0] + shape[0]], 0.0))
            solver.step(2)
            return solver.export_perf(path)

        assert run_ranks(2, prog) == [str(path), None]
        records = PerfLedger(path).load(strict=True)
        assert [r["name"] for r in records] == [f"kernels/{k.name}" for k in kernel_set.all_kernels]


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
