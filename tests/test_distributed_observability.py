"""Distributed scaling observability (tier-1).

Covers the scaling layer end to end: rank-tagged recorders rendering as one
multi-track Chrome trace, the per-(src, dst) communication matrix fed by
the ghost exchange, the λ imbalance factor and the comm-model closure in
``DistributedSolver.profile_report()``, the ``SimComm.recv`` deadlock
timeout, one journal per simulated rank, and the unit-cost gates of the
flight recorder and the fingerprint stream.
"""

import errno
import json
import statistics
from time import perf_counter

import numpy as np
import pytest

from repro.backends import create_arrays
from repro.backends.c_backend import c_compiler_available
import repro.observability.hwcounters as hwcounters
from repro.observability import (
    CommMatrix,
    CounterHarness,
    CounterSample,
    FlightRecorder,
    RunDir,
    chrome_trace,
    comm_closure_rows,
    get_counter_harness,
    get_recorder,
    imbalance_factor,
    load_journal,
    rank_recorder,
    set_counter_harness,
    set_thread_recorder,
)
from repro.parallel import BlockForest, RankError, launch_ranks, run_ranks
from repro.parallel.timeloop import DistributedSolver
from repro.pfm import (
    GrandPotentialModel,
    SingleBlockSolver,
    make_two_phase_binary,
    planar_front,
)
from repro.profiling import compile_cached

needs_cc = pytest.mark.skipif(not c_compiler_available(), reason="no C compiler available")


@pytest.fixture(autouse=True)
def _clean_observability_state():
    yield
    set_thread_recorder(None)


@pytest.fixture(scope="module")
def kernel_set():
    return GrandPotentialModel(make_two_phase_binary(dim=2)).create_kernels()


def _init(global_shape, params):
    def init(offset, shape):
        full = planar_front(
            global_shape, params.n_phases, 0, 1,
            position=global_shape[0] / 2, epsilon=params.epsilon,
        )
        sl = tuple(slice(o, o + s) for o, s in zip(offset, shape))
        return full[sl], 0.0

    return init


# -- rank-tagged recorders and the multi-rank timeline -------------------------


class TestRankTracer:
    def test_thread_local_override(self):
        base = get_recorder()
        with rank_recorder(3) as recorder:
            assert get_recorder() is recorder
            assert recorder.rank == 3
        assert get_recorder() is base

    def test_rank_process_metadata(self):
        recorder = FlightRecorder(rank=2)
        with recorder.span("work", category="runtime"):
            pass
        doc = chrome_trace([recorder])
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["name"]: e for e in meta}
        assert names["process_name"]["args"]["name"] == "rank 2"
        assert names["process_name"]["pid"] == 2
        assert names["process_sort_index"]["args"]["sort_index"] == 2
        assert names["thread_name"]["args"]["name"] == "runtime"

    def test_merge_produces_one_track_per_rank(self):
        recorders = []
        for rank in range(3):
            r = FlightRecorder(rank=rank)
            with r.span(f"op{rank}", category="runtime"):
                pass
            recorders.append(r)
        main = FlightRecorder()  # e.g. the launching process: codegen spans
        with main.span("create_kernels", category="ir"):
            pass
        doc = chrome_trace([main] + recorders)
        events = doc["traceEvents"]
        process_names = {
            e["args"]["name"]: e["pid"] for e in events if e["name"] == "process_name"
        }
        assert process_names == {"repro": 3, "rank 0": 0, "rank 1": 1, "rank 2": 2}
        spans = [e for e in events if e["ph"] == "X" and e["cat"] == "runtime"]
        assert {e["pid"] for e in spans} == {0, 1, 2}
        # shared clock: timestamps are relative to the earliest event
        assert min(e["ts"] for e in events if e["ph"] == "X") == 0.0
        # same category -> same tid on every rank
        assert len({e["tid"] for e in spans}) == 1

    def test_merge_rejects_empty(self):
        with pytest.raises(ValueError):
            chrome_trace([None, None])

    def test_export_merged_trace(self, tmp_path):
        r = FlightRecorder(rank=0)
        with r.span("op", category="runtime", block=(0, 1), cells=np.int64(4)):
            pass
        path = tmp_path / "merged.json"
        path.write_text(json.dumps(chrome_trace([r])))  # JSON-safe as returned
        (span,) = [e for e in json.loads(path.read_text())["traceEvents"] if e["ph"] == "X"]
        assert span["args"] == {"block": [0, 1], "cells": 4}

    def test_end_pops_the_calling_threads_span(self):
        """Ranks sharing one recorder keep separate open-span stacks."""
        import threading

        recorder = FlightRecorder()
        inside, release = threading.Event(), threading.Event()
        seen = {}

        def rank1():
            recorder.step_begin(9, rank=1)
            inside.set()
            release.wait(10)
            seen["open"] = recorder.open_spans()
            seen["position"] = recorder.position
            recorder.step_end(9)

        thread = threading.Thread(target=rank1)
        thread.start()
        assert inside.wait(10)
        recorder.step_begin(7, rank=0)
        recorder.step_end(7)  # must pop rank 0's span, not rank 1's
        assert recorder.open_spans() == []
        recorder.step_begin(8, rank=0)
        release.set()
        thread.join()
        assert [s["data"] for s in seen["open"]] == [{"time_step": 9, "rank": 1}]
        assert seen["position"] == {"time_step": 9, "rank": 1}
        assert [s["data"]["time_step"] for s in recorder.open_spans()] == [8]


# -- communication matrix ------------------------------------------------------


class TestCommMatrix:
    def test_accumulate_and_merge(self):
        a, b = CommMatrix(3), CommMatrix(3)
        a.add(0, 1, 100)
        a.add(0, 1, 100)
        b.add(1, 2, 50, messages=2)
        a.merge(b)
        assert a.total_bytes == 250
        assert a.total_messages == 4
        assert list(a.bytes_sent_per_rank()) == [200, 50, 0]
        assert a.merge(a) is a   # self-merge is a no-op
        assert a.total_bytes == 250

    def test_merge_size_mismatch(self):
        with pytest.raises(ValueError):
            CommMatrix(2).merge(CommMatrix(3))

    def test_render_heatmap(self):
        m = CommMatrix(2)
        m.add(0, 1, 2048)
        text = m.render()
        assert "src\\dst" in text and "2.0" in text
        assert "byte imbalance" in text

    def test_imbalance_factor(self):
        assert imbalance_factor([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert imbalance_factor([2.0, 1.0, 1.0]) == pytest.approx(1.5)
        assert np.isnan(imbalance_factor([]))


# -- exchange split + closure --------------------------------------------------


class TestExchangeAccounting:
    def test_split_records_and_comm_matrix(self, kernel_set):
        """The exchange splits into pack/deliver/unpack and fills the matrix."""
        params = kernel_set.model.params
        forest = BlockForest((16, 16), (8, 8), periodic=True)

        def program(comm):
            solver = DistributedSolver(kernel_set, forest, comm=comm)
            solver.set_state_from(_init((16, 16), params))
            solver.step(2)
            return solver.profiler, solver.comm_matrix

        results = run_ranks(2, program)
        profiler, matrix = results[0]
        recs = profiler.records
        for part in ("pack", "deliver", "unpack"):
            assert f"exchange:phi_dst:{part}" in recs
        assert recs["exchange:phi_dst"].messages > 0
        assert recs["exchange:phi_dst"].bytes > 0
        assert recs["exchange:phi_dst:deliver"].messages == \
            recs["exchange:phi_dst"].messages
        # rank 0's matrix only holds its own sends
        assert matrix.bytes[0].sum() > 0
        assert matrix.bytes[1].sum() == 0
        merged = CommMatrix(2)
        for _, m in results:
            merged.merge(m)
        assert (merged.bytes > 0).sum() == 2   # 0->1 and 1->0

    def test_closure_rows(self, kernel_set):
        params = kernel_set.model.params
        forest = BlockForest((16, 16), (8, 8), periodic=True)
        solver = DistributedSolver(kernel_set, forest, comm=None)
        solver.set_state_from(_init((16, 16), params))
        solver.step(3)

        model = solver.default_step_model()
        assert model is not None and model.compute_mlups > 0
        rows = comm_closure_rows(model, solver.profiler, steps=3)
        assert rows[-1]["field"] == "total"
        assert rows[-1]["predicted_s"] > 0
        assert rows[-1]["ratio"] == pytest.approx(
            rows[-1]["measured_s"] / rows[-1]["predicted_s"]
        )
        fields = {r["field"] for r in rows}
        assert {"phi_dst", "mu_dst"} <= fields


# -- the acceptance scenario: 4 ranks, one merged trace, full report -----------


class TestDistributedRun:
    def test_four_rank_trace_and_report(self, kernel_set, tmp_path):
        params = kernel_set.model.params
        forest = BlockForest((16, 16), (4, 4), periodic=True)

        def program(comm):
            with rank_recorder(comm.rank, capacity=None) as recorder:
                solver = DistributedSolver(kernel_set, forest, comm=comm)
                solver.set_state_from(_init((16, 16), params))
                solver.step(2)
                report = solver.profile_report()
            return recorder, report

        results = run_ranks(4, program)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(chrome_trace([r for r, _ in results])))
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        names = {
            e["args"]["name"] for e in events if e["name"] == "process_name"
        }
        assert names == {f"rank {r}" for r in range(4)}
        exchanges = [
            e for e in events
            if e["ph"] == "X" and e["name"] == "exchange:phi_dst"
        ]
        assert {e["pid"] for e in exchanges} == {0, 1, 2, 3}
        for e in exchanges:
            assert e["args"]["bytes"] > 0
            assert e["args"]["messages"] > 0

        report = results[0][1]
        assert "communication matrix" in report
        assert "load imbalance λ" in report
        assert "comm model closure" in report
        assert "measured/predicted" in report
        # every rank computed the same global matrix and λ
        matrix_line = next(
            line for line in report.splitlines() if "total:" in line
        )
        for _, other in results[1:]:
            assert matrix_line in other

    def test_single_rank_report_has_scaling_section(self, kernel_set):
        params = kernel_set.model.params
        forest = BlockForest((16, 16), (8, 8), periodic=True)
        solver = DistributedSolver(kernel_set, forest, comm=None)
        solver.set_state_from(_init((16, 16), params))
        solver.step(2)
        report = solver.profile_report()
        assert "communication matrix" in report
        assert "load imbalance λ" in report


# -- SimComm.recv deadlock timeout ---------------------------------------------


class TestRecvTimeout:
    def test_deadlocked_pair_raises_named_rank_error(self):
        def program(comm):
            # both ranks receive first: a classic deadlock
            return comm.recv(source=1 - comm.rank, tag=7)

        with pytest.raises(RankError) as exc_info:
            run_ranks(2, program, recv_timeout=0.3)
        message = str(exc_info.value)
        assert "timed out" in message
        assert "tag=7" in message
        assert "source=" in message and "dest=" in message

    def test_matched_sends_unaffected(self):
        def program(comm):
            comm.send(comm.rank * 10, 1 - comm.rank, tag=1)
            return comm.recv(1 - comm.rank, tag=1)

        assert run_ranks(2, program, recv_timeout=5.0) == [10, 0]


# -- one recorder, one journal per simulated rank -----------------------------


class TestThreadRankJournals:
    def _run(self, kernel_set, rundir, program_wrapper=None):
        params = kernel_set.model.params
        forest = BlockForest((16, 16), (8, 8), periodic=True)

        def program(comm):
            solver = DistributedSolver(kernel_set, forest, comm=comm, rundir=rundir)
            solver.set_state_from(_init((16, 16), params))
            solver.step(3)
            return get_recorder()

        return launch_ranks(2, program_wrapper(program) if program_wrapper else program,
                            backend="sim")

    def test_each_rank_journals_its_own_steps(self, kernel_set, tmp_path):
        with RunDir(tmp_path / "run") as rundir:
            recorders = self._run(kernel_set, rundir)
        assert recorders[0] is not recorders[1]
        assert all(r is not get_recorder() for r in recorders)
        for rank in range(2):
            events = load_journal(rundir.journal_path(rank)).events
            steps = [e.data for e in events if e.kind == "step_begin"]
            assert [(s["time_step"], s["rank"]) for s in steps] == [
                (0, rank), (1, rank), (2, rank)
            ]
            # the journal holds the rank's whole run, not the tail after the
            # other rank re-opened a shared handle
            assert sum(e.kind == "step_end" for e in events) == 3
            assert any(e.kind == "span_end" for e in events)
        assert not rundir.journal_path().exists()

    def test_a_rank_recorder_installed_by_the_program_is_kept(self, kernel_set, tmp_path):
        def with_rank_recorder(program):
            def wrapped(comm):
                with rank_recorder(comm.rank, capacity=None) as recorder:
                    assert program(comm) is recorder
                return recorder

            return wrapped

        with RunDir(tmp_path / "run") as rundir:
            recorders = self._run(kernel_set, rundir, with_rank_recorder)
        for rank, recorder in enumerate(recorders):
            assert recorder.rank == rank
            assert sum(e.kind == "step_begin" for e in recorder.events) == 3


# -- unit-cost gates: one recorder event, one fingerprinted byte ---------------


class TestUnitCostGates:
    """Self-measured ``overhead_seconds`` per event and per hashed byte.

    Each bound is 3-4x what a 2-vCPU KVM guest reads (2.4-4.7 us per
    event, 1.5-2.3 ns per byte).  Best of three windows: a throttled vCPU
    reads x1.5 for seconds at a time and must not flip a gate.
    """

    @pytest.fixture()
    def solver(self, kernel_set):
        # 512^2 cells of phi + mu: 6 MiB hashed per fingerprint record, so
        # the ledger's fsync is a small part of the per-byte cost
        shape = (512, 512)
        solver = DistributedSolver(
            kernel_set, BlockForest(shape, (256, 256), periodic=True)
        )
        solver.set_state_from(_init(shape, kernel_set.model.params))
        solver.step(1)
        return solver

    def test_recorder_event_costs_at_most_12_us(self, solver):
        recorder = get_recorder()
        costs = []
        for _ in range(3):
            seconds, events = recorder.overhead_seconds, recorder.events_recorded
            solver.step(5)
            costs.append(
                (recorder.overhead_seconds - seconds)
                / (recorder.events_recorded - events)
            )
        assert min(costs) <= 12e-6

    def test_fingerprinted_byte_costs_at_most_6_ns(self, solver, tmp_path):
        stream = solver.enable_fingerprints(path=tmp_path / "fp.jsonl")
        nbytes = sum(solver.gather(name).nbytes for name in solver.state_fields)
        assert nbytes >= 4 << 20
        costs = []
        for _ in range(3):
            seconds, records = stream.overhead_seconds, len(stream.records)
            solver.step(1)
            assert len(stream.records) == records + 1
            costs.append((stream.overhead_seconds - seconds) / nbytes)
        assert min(costs) <= 6e-9

    @needs_cc
    def test_repeat_call_costs_at_most_0_6_of_a_first_call(self, kernel_set):
        """A ratio inside one process: bound-set dispatch against validate-and-marshal.

        The first call on an array set does what every call used to do;
        the repeat call re-checks identity and passes the prefix (6.3 us
        against 17-20 us on the 2-vCPU guest, timer included: 0.31-0.37).
        """
        gl = 1
        project = compile_cached(kernel_set.projection_kernel, "c")
        call = dict(ghost_layers=gl, t=0.0, time_step=0, seed=0)

        def median_us(array_sets):
            times = []
            for arrays in array_sets:
                t0 = perf_counter()
                project(arrays, **call)
                times.append(perf_counter() - t0)
            return statistics.median(times) * 1e6

        ratios = []
        for _ in range(3):
            fresh = [create_arrays(kernel_set.fields, (4, 4), gl) for _ in range(200)]
            first = median_us(fresh)
            repeat = median_us([fresh[0]] * 200)
            ratios.append(repeat / first)
        assert min(ratios) <= 0.6

    @pytest.mark.parametrize(
        "backend, per_step",
        # with a PMU the measured block takes two samples, whatever it
        # measures: three kernels of either backend and two fills.  A
        # backend takes none
        [("numpy", 3 * 2 + 2 * 2), pytest.param("c", 3 * 2 + 2 * 2, marks=needs_cc)],
    )
    def test_counter_samples_per_step_are_pinned(self, kernel_set, backend, per_step):
        """A count, which repeats exactly: nothing may add samples unseen."""

        class CountingHarness(CounterHarness):
            samples = 0

            def sample(self):
                self.samples += 1
                return CounterSample(cycles=float(self.samples))

        harness = CountingHarness()
        previous = set_counter_harness(harness)
        try:
            solver = SingleBlockSolver(kernel_set, (8, 8), backend=backend)
            solver.set_state(
                planar_front((8, 8), 2, 0, 1, position=4.0, epsilon=4.0), mu=0.0
            )
            solver.step(2)
            taken = harness.samples
            solver.step(5)
            assert harness.samples - taken == 5 * per_step
            # a kernel called outside a measured block samples nothing
            taken = harness.samples
            (phi,) = kernel_set.phi_kernels
            compile_cached(phi, backend)(solver.arrays, ghost_layers=1, t=0.0)
            assert harness.samples == taken
        finally:
            set_counter_harness(previous)

    @pytest.mark.parametrize("backend", ["numpy", pytest.param("c", marks=needs_cc)])
    def test_without_a_pmu_a_step_takes_no_counter_sample(
        self, kernel_set, backend, monkeypatch
    ):
        samples = []
        monkeypatch.setattr(
            hwcounters, "_perf_event_open", lambda config, group_fd: -errno.ENOENT
        )
        monkeypatch.setattr(
            CounterHarness, "sample", lambda self: samples.append(self) or CounterSample()
        )
        set_counter_harness(None)
        try:
            solver = SingleBlockSolver(kernel_set, (8, 8), backend=backend)
            solver.set_state(
                planar_front((8, 8), 2, 0, 1, position=4.0, epsilon=4.0), mu=0.0
            )
            solver.step(5)
            assert get_counter_harness() is None
            assert samples == []
            assert solver.profiler.records  # the step was measured all the same
            assert solver.profile_report().strip().endswith(
                "counters: unavailable (perf_event_open: ENOENT)"
            )
        finally:
            set_counter_harness(None)
