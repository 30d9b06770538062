"""Observability hardening riding along with the diagnostics PR (tier-1).

Edge cases of the multi-recorder timeline (empty input, span-less ranks,
duplicate rank ids), Prometheus exposition-format escaping round-trips
with pathological label values, per-check health event counters carrying
the rank-bearing ``where``, and counter events flowing into single- and
multi-rank Chrome traces.
"""

import numpy as np
import pytest

from repro.observability import (
    FlightRecorder,
    HealthMonitor,
    MetricsRegistry,
    chrome_trace,
    find_sample,
    get_registry,
    parse_prometheus,
    reset_metrics,
)


@pytest.fixture(autouse=True)
def _clean_metrics():
    reset_metrics()
    yield
    reset_metrics()


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


# -- prometheus escaping ------------------------------------------------------


class TestPrometheusEscaping:
    def test_pathological_label_round_trip(self):
        registry = MetricsRegistry()
        # a generated-kernel name with every character that needs escaping
        evil = 'mu_sweep\\v2\n"D3C7"'
        registry.counter("repro_op_calls_total", "ops", op=evil).inc(3)
        registry.gauge("repro_kernel_mlups", "rate", kernel=evil).set(1.5)
        text = registry.to_prometheus()
        assert "\n\n" not in text.strip()  # escaped newline must not split lines
        parsed = parse_prometheus(text)
        assert find_sample(parsed, "repro_op_calls_total", op=evil) == 3
        assert find_sample(parsed, "repro_kernel_mlups", kernel=evil) == 1.5

    def test_label_keys_shadowing_parameters(self):
        registry = MetricsRegistry()
        # "name" and "help" are valid Prometheus label keys and must not
        # collide with the method parameters
        registry.gauge("repro_diagnostic", "value", name="free_energy").set(2.0)
        parsed = parse_prometheus(registry.to_prometheus())
        assert find_sample(parsed, "repro_diagnostic", name="free_energy") == 2.0

    def test_unknown_escape_kept_verbatim(self):
        text = (
            "# TYPE f counter\n"
            'f{a="x\\qy"} 1\n'
        )
        parsed = parse_prometheus(text)
        (_, labels, value) = parsed["f"]["samples"][0]
        assert labels["a"] == "x\\qy" and value == 1


# -- health events: per-check counter + where --------------------------------


class TestHealthEventAttribution:
    def test_counter_and_where_for_field_checks(self):
        monitor = HealthMonitor(policy="record")
        bad = np.array([[1.0, np.nan]])
        monitor.check({"phi": bad}, 7, where="rank 3 block (0, 1)")
        assert monitor.events[0].where == "rank 3 block (0, 1)"
        parsed = parse_prometheus(get_registry().to_prometheus())
        assert find_sample(
            parsed, "repro_health_events_total", check="nan", field="phi"
        ) == 1

    def test_counter_and_where_for_invariant_checks(self):
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
        parsed = parse_prometheus(get_registry().to_prometheus())
        assert find_sample(
            parsed, "repro_health_events_total",
            check="conservation", field="solute_mass_0",
        ) == 1

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
