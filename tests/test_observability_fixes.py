"""Observability hardening riding along with the diagnostics PR (tier-1).

Edge cases of the multi-recorder timeline (empty input, span-less ranks,
duplicate rank ids), per-check health events carrying the rank-bearing
``where`` into the event stream, and counter events flowing into single-
and multi-rank Chrome traces.
"""

import numpy as np
import pytest

from repro.observability import (
    FlightRecorder,
    HealthMonitor,
    chrome_trace,
    set_recorder,
)


@pytest.fixture
def recorder():
    """A private process-wide recorder: the health events of one test."""
    recorder = FlightRecorder()
    previous = set_recorder(recorder)
    yield recorder
    set_recorder(previous)


def _health_events(recorder) -> list[tuple]:
    return [(e.name, e.data["field"], e.data["where"])
            for e in recorder.events if e.kind == "health"]


# -- chrome_trace over several recorders: edge cases --------------------------


class TestMergeRankTraces:
    def test_empty_list_raises(self):
        with pytest.raises(ValueError, match="no recorders"):
            chrome_trace([])

    def test_zero_span_rank_still_gets_a_track(self):
        busy = FlightRecorder(rank=0)
        with busy.span("op", category="runtime"):
            pass
        idle = FlightRecorder(rank=1)  # e.g. a rank that owned no blocks
        doc = chrome_trace([busy, idle])
        events = doc["traceEvents"]
        process_names = {
            e["args"]["name"] for e in events if e["name"] == "process_name"
        }
        assert process_names == {"rank 0", "rank 1"}
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["pid"] for e in spans} == {0}

    def test_duplicate_rank_ids_raise(self):
        a, b = FlightRecorder(rank=2), FlightRecorder(rank=2)
        for r in (a, b):
            with r.span("op", category="runtime"):
                pass
        with pytest.raises(ValueError, match="duplicate rank ids.*2"):
            chrome_trace([a, b])
        with pytest.raises(ValueError, match="duplicate rank ids.*None"):
            chrome_trace([FlightRecorder(), FlightRecorder()])

    def test_counter_events_merge_per_rank(self):
        recorders = []
        for rank in range(2):
            r = FlightRecorder(rank=rank)
            with r.span("step", category="runtime"):
                pass
            r.counter("diagnostics", {"free_energy": float(10 - rank)})
            recorders.append(r)
        doc = chrome_trace(recorders)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert {e["pid"] for e in counters} == {0, 1}
        assert all(e["ts"] >= 0 and "free_energy" in e["args"] for e in counters)


# -- health events: per-check event + where ----------------------------------


class TestHealthEventAttribution:
    def test_counter_and_where_for_field_checks(self, recorder):
        monitor = HealthMonitor(policy="record")
        bad = np.array([[1.0, np.nan]])
        monitor.check({"phi": bad}, 7, where="rank 3 block (0, 1)")
        assert monitor.events[0].where == "rank 3 block (0, 1)"
        assert monitor.n_checks == 1
        assert _health_events(recorder) == [("nan", "phi", "rank 3 block (0, 1)")]

    def test_counter_and_where_for_invariant_checks(self, recorder):
        monitor = HealthMonitor(policy="record", conservation_tol=1e-12)
        monitor.check_diagnostics(
            {"solute_mass_0": 1.0}, 0,
            mass_names=("solute_mass_0",), where="rank 1",
        )
        monitor.check_diagnostics(
            {"solute_mass_0": 1.1}, 1,
            mass_names=("solute_mass_0",), where="rank 1",
        )
        (event,) = monitor.events
        assert event.check == "conservation" and event.where == "rank 1"
        assert monitor.n_checks == 2
        assert _health_events(recorder) == [("conservation", "solute_mass_0", "rank 1")]

    def test_energy_decay_ignores_nonfinite(self):
        monitor = HealthMonitor(policy="raise")
        monitor.check_diagnostics(
            {"free_energy": 1.0}, 0, energy_name="free_energy"
        )
        # NaN is the nan-watchdog's business, not the invariant's
        monitor.check_diagnostics(
            {"free_energy": float("nan")}, 1, energy_name="free_energy"
        )
        assert monitor.healthy
