"""GPU register-pressure machinery: liveness, scheduling, remat, model."""

import pytest
import sympy as sp

from repro.gpu import (
    TESLA_P100,
    TransformationSequence,
    analyze_liveness,
    apply_sequence,
    estimate_registers,
    evolutionary_tune,
    insert_fences,
    max_live,
    rematerialize,
    schedule_for_registers,
)
from repro.gpu.scheduling import dfs_schedule
from repro.ir import create_kernel
from repro.symbolic import Assignment, AssignmentCollection, Field


def _chain_kernel(n=6):
    """n independent pairs: bad order keeps all temporaries alive."""
    f = Field("cf", 2)
    g = Field("cg", 2)
    temps = [sp.Symbol(f"t{i}") for i in range(n)]
    subs = [Assignment(temps[i], f[i - n // 2, 0]() + i) for i in range(n)]
    main = [Assignment(g.center(), sp.Add(*temps))]
    return AssignmentCollection(main, subs)


def _tree_kernel(depth=4):
    """A binary reduction tree — DFS order needs O(depth) registers."""
    f = Field("tf", 2)
    g = Field("tg", 2)
    leaves = [f[i - 8, 0]() for i in range(2**depth)]
    subs = []
    level = leaves
    counter = 0
    while len(level) > 1:
        nxt = []
        for a, b in zip(level[::2], level[1::2]):
            s = sp.Symbol(f"n{counter}")
            counter += 1
            subs.append(Assignment(s, a + b))
            nxt.append(s)
        level = nxt
    main = [Assignment(g.center(), level[0])]
    return AssignmentCollection(main, subs)


class TestLiveness:
    def test_chain_all_alive(self):
        ac = _chain_kernel(6)
        assert max_live(ac.all_assignments) == 6

    def test_average_live_over_the_statements(self):
        live = analyze_liveness(_chain_kernel(6).all_assignments)
        assert live.live_at == [1, 2, 3, 4, 5, 6, 0]
        assert live.average_live == 3.0

    def test_dead_value_not_live(self):
        f, g = Field("df", 2), Field("dg", 2)
        x = sp.Symbol("x")
        ac = AssignmentCollection(
            [Assignment(g.center(), f.center())], [Assignment(x, 42)]
        )
        assert max_live(ac.all_assignments) == 0

    def test_registers_estimate(self):
        live = analyze_liveness(_chain_kernel(10).all_assignments)
        assert live.registers(base=24) == 24 + 20


class TestScheduling:
    def test_tree_scheduling_reduces_live(self):
        ac = _tree_kernel(4)
        # breadth-first order (level by level) keeps a whole level alive
        naive = max_live(ac.all_assignments)
        result = schedule_for_registers(ac.all_assignments, beam_width=8)
        assert result.max_live < naive
        assert result.max_live <= 5  # DFS needs ~depth+1

    def test_schedule_preserves_dependencies(self):
        ac = _tree_kernel(3)
        result = schedule_for_registers(ac.all_assignments, beam_width=4)
        seen = set()
        for a in result.order:
            for s in a.rhs.free_symbols:
                if s.name.startswith("n"):
                    assert s in seen, "operand scheduled after its use"
            seen.add(a.lhs)

    def test_schedule_keeps_all_statements(self):
        ac = _tree_kernel(3)
        result = schedule_for_registers(ac.all_assignments, beam_width=2)
        assert len(result.order) == len(ac.all_assignments)
        assert {id(type(a)) for a in result.order}  # sanity

    def test_dfs_schedule_valid_topological_order(self):
        ac = _tree_kernel(4)
        order = dfs_schedule(ac.all_assignments)
        assert len(order) == len(ac.all_assignments)
        seen = set()
        for a in order:
            deps = {s for s in a.rhs.free_symbols if s.name.startswith("n")}
            assert deps <= seen
            seen.add(a.lhs)

    def test_greedy_beam_width_one_works(self):
        ac = _tree_kernel(3)
        r = schedule_for_registers(ac.all_assignments, beam_width=1)
        assert r.max_live <= max_live(ac.all_assignments)


class TestRematerialize:
    def test_cheap_temp_inlined(self):
        f, g = Field("rf", 2), Field("rg", 2)
        t = sp.Symbol("t0")
        ac = AssignmentCollection(
            [Assignment(g.center(), t * 2 + t**2)],
            [Assignment(t, f.center() + 1)],
        )
        out = rematerialize(ac.all_assignments, max_cost=2)
        temps = [a for a in out if not a.is_field_store]
        assert not temps  # inlined everywhere

    def test_expensive_temp_kept(self):
        f, g = Field("rf2", 2), Field("rg2", 2)
        t = sp.Symbol("t0")
        expensive = sum(f[i - 2, 0]() for i in range(5)) ** 3
        ac = AssignmentCollection(
            [Assignment(g.center(), t + 1)], [Assignment(t, expensive)]
        )
        out = rematerialize(ac.all_assignments, max_cost=2)
        assert any(not a.is_field_store for a in out)

    def test_value_preserved(self):
        ac = _chain_kernel(4)
        out = rematerialize(ac.all_assignments, max_cost=10, max_uses=10,
                            leaf_operands_only=False)
        # reconstruct and compare final expression
        import sympy

        def final(assignments):
            table = {}
            for a in assignments:
                if a.is_field_store:
                    return a.rhs.xreplace(table)
                table[a.lhs] = a.rhs.xreplace(table)

        assert sympy.expand(final(out) - final(ac.all_assignments)) == 0


class TestFences:
    def test_windows(self):
        plan = insert_fences([None] * 10, 4)  # content irrelevant for splitting
        assert plan.windows == [(0, 4), (4, 8), (8, 10)]

    def test_no_fences(self):
        plan = insert_fences([None] * 10, None)
        assert plan.count == 0 and plan.windows == [(0, 10)]


class TestRegisterModelAndTuning:
    @pytest.fixture(scope="class")
    def kernel(self):
        ac = _tree_kernel(5)
        return create_kernel(ac)

    def test_fences_reduce_demand(self, kernel):
        order = kernel.ac.all_assignments
        no_fence = estimate_registers(order)
        fenced = estimate_registers(order, insert_fences(order, 8))
        assert fenced.demand_registers <= no_fence.demand_registers

    def test_spill_detection(self):
        ac = _chain_kernel(150)  # 150 live doubles -> 300+ registers
        est = estimate_registers(ac.all_assignments)
        assert est.spills
        assert est.allocated_registers == TESLA_P100.max_registers_per_thread

    def test_occupancy_increases_with_fewer_registers(self, kernel):
        seq_none = apply_sequence(kernel, TransformationSequence())
        seq_all = apply_sequence(
            kernel,
            TransformationSequence(use_remat=True, use_scheduling=True, fence_interval=16),
        )
        assert seq_all.registers.demand_registers <= seq_none.registers.demand_registers
        assert seq_all.model.occupancy >= seq_none.model.occupancy
        assert seq_all.time_per_lup_ns <= seq_none.time_per_lup_ns

    def test_describe_names_each_transformation(self):
        assert TransformationSequence().describe() == "none"
        seq = TransformationSequence(
            use_remat=True, remat_max_cost=4, remat_max_uses=3,
            use_scheduling=True, beam_width=8, fence_interval=16,
        )
        assert seq.describe() == "dupl(cost≤4,uses≤3) + sched(beam=8) + fence(every 16)"

    def test_runtime_is_time_per_lup_times_cells(self, kernel):
        model = apply_sequence(kernel, TransformationSequence()).model
        assert model.runtime_ms(10**6) == pytest.approx(model.time_per_lup_ns())
        assert model.runtime_ms(10**6, bytes_per_lup=80.0) == pytest.approx(
            model.time_per_lup_ns(80.0)
        )

    def test_evolutionary_tuner_beats_baseline(self, kernel):
        baseline = apply_sequence(kernel, TransformationSequence())
        best = evolutionary_tune(kernel, population=8, generations=5, seed=3)
        assert best.time_per_lup_ns <= baseline.time_per_lup_ns

    def test_evolutionary_deterministic(self, kernel):
        a = evolutionary_tune(kernel, population=6, generations=3, seed=11)
        b = evolutionary_tune(kernel, population=6, generations=3, seed=11)
        assert a.sequence == b.sequence
