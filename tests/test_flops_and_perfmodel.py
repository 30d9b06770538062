"""Operation counting (Table 1 machinery) and performance models."""

import pytest
import sympy as sp

from repro.ir import KernelConfig, create_kernel, insert_approximations
from repro.perfmodel import (
    ECMModel,
    OperationCount,
    SKYLAKE_8174,
    HASWELL_2690V3,
    analyze_traffic,
    blocking_factor,
    count_operations,
)
from repro.symbolic import Assignment, AssignmentCollection, Field


def _count(expr) -> OperationCount:
    g = Field("g", 2)
    ac = AssignmentCollection([Assignment(g.center(), expr)])
    oc = count_operations(ac)
    oc.loads = oc.stores = 0  # focus on arithmetic here
    return oc


class TestCountingRules:
    def setup_method(self):
        self.f = Field("f", 2)
        self.x = self.f.center()
        self.y = self.f[1, 0]()

    def test_add_chain(self):
        assert _count(self.x + self.y + 3).adds == 2

    def test_mul_chain(self):
        assert _count(2 * self.x * self.y).muls == 2

    def test_single_division(self):
        oc = _count(self.x / self.y)
        assert oc.divs == 1 and oc.muls == 0

    def test_combined_denominator_single_div(self):
        """a/(b*c) is one division plus one multiply (compiler semantics)."""
        z = self.f[0, 1]()
        oc = _count(self.x / (self.y * z))
        assert oc.divs == 1
        assert oc.muls == 1

    def test_sqrt_and_rsqrt(self):
        assert _count(sp.sqrt(self.x)).sqrts == 1
        oc = _count(1 / sp.sqrt(self.x))
        assert oc.rsqrts == 1 and oc.divs == 0

    def test_rsqrt_in_product(self):
        oc = _count(self.y / sp.sqrt(self.x))
        assert oc.rsqrts == 1 and oc.divs == 0 and oc.muls == 1

    def test_integer_powers_binary_exponentiation(self):
        assert _count(self.x**2).muls == 1
        assert _count(self.x**3).muls == 2
        assert _count(self.x**4).muls == 2
        assert _count(self.x**8).muls == 3

    def test_negation_free(self):
        assert _count(-self.x).muls == 0

    def test_piecewise_counts_blends(self):
        expr = sp.Piecewise((self.x, self.y > 0), (2 * self.x, True))
        oc = _count(expr)
        assert oc.blends >= 1

    def test_normalization_formula_matches_paper(self):
        """norm = adds + muls + 16 divs + 10 sqrts + 2 rsqrts — verified
        against all eight columns of Table 1."""
        paper_rows = [
            # (adds, muls, divs, sqrts, rsqrts, expected)
            (542, 788, 19, 42, 36, 2126),
            (256 + 75, 389 + 90, 6 + 11, 21, 18, 1328),
            (334, 526, 9, 0, 0, 1004),
            (66 + 202, 124 + 282, 9, 0, 0, 818),
            (293, 488, 18, 6, 24, 1177),
            (142 + 26, 248 + 46, 15, 3, 12, 756),
            (1087, 2081, 50, 0, 0, 3968),
            (364 + 368, 792 + 557, 32, 0, 0, 2593),
        ]
        for adds, muls, divs, sqrts, rsqrts, expected in paper_rows:
            oc = OperationCount(adds=adds, muls=muls, divs=divs, sqrts=sqrts, rsqrts=rsqrts)
            assert oc.normalized_flops() == expected

    def test_fast_ops_cheaper(self):
        f, g = Field("f", 2), Field("g", 2)
        ac = AssignmentCollection([Assignment(g.center(), 1 / f.center())])
        exact = count_operations(ac).normalized_flops()
        approx = count_operations(insert_approximations(ac)).normalized_flops()
        assert approx < exact

    def test_addition_of_counts(self):
        a = OperationCount(adds=1, loads=2)
        b = OperationCount(muls=3, stores=1)
        c = a + b
        assert (c.adds, c.muls, c.loads, c.stores) == (1, 3, 2, 1)

    def test_bytes_per_cell_and_as_dict(self):
        # the heat stencil loads its 7 points once and stores 1: no reuse
        oc = _heat_kernel_3d().operation_count()
        assert (oc.loads, oc.stores) == (7, 1)
        assert oc.bytes_per_cell == 8 * (7 + 1)
        assert oc.as_dict() == {
            f: getattr(oc, f) for f in OperationCount._OP_FIELDS + ("loads", "stores")
        }
        assert OperationCount(adds=1, stores=2).as_dict()["stores"] == 2


def _heat_kernel_3d():
    from repro.discretization import FiniteDifferenceDiscretization, discretize_system
    from repro.symbolic import EvolutionEquation, PDESystem, div, grad

    f = Field("f", 3)
    f_dst = Field("f_dst", 3)
    eq = EvolutionEquation(f.center(), div(grad(f.center())))
    ac = discretize_system(
        PDESystem([eq], name="heat_pm"), f_dst, FiniteDifferenceDiscretization(dim=3)
    )
    return create_kernel(ac, KernelConfig(parameter_values={"dt": 0.1, "dx_0": 1, "dx_1": 1, "dx_2": 1}))


class TestLayerConditions:
    def test_traffic_decreases_with_cache(self):
        k = _heat_kernel_3d()
        t = analyze_traffic(k, (60, 60, 60))
        assert t.load_bytes_plane < t.load_bytes_row <= t.load_bytes_none
        assert t.load_bytes(10**9) == t.load_bytes_plane
        assert t.load_bytes(0) == t.load_bytes_none

    def test_store_write_allocate(self):
        k = _heat_kernel_3d()
        t = analyze_traffic(k, (60, 60, 60))
        assert t.total_bytes(10**9) == t.load_bytes_plane + 2 * t.store_bytes
        assert t.total_bytes(10**9, write_allocate=False) == t.load_bytes_plane + t.store_bytes

    def test_seven_point_stencil_geometry(self):
        k = _heat_kernel_3d()
        t = analyze_traffic(k, (60, 60, 60))
        ft = {f.name: f for f in t.fields}
        assert ft["f"].n_planes == 3      # offsets -1, 0, +1 on the outer axis
        assert ft["f"].n_rows == 5        # (0,0), (±1,0), (0,±1)
        assert ft["f_dst"].is_store

    def test_blocking_factor_scales_with_cache(self):
        k = _heat_kernel_3d()
        small = blocking_factor(k, 256 * 1024)
        large = blocking_factor(k, 1024 * 1024)
        assert large == pytest.approx(2 * small, rel=0.1)
        assert large > 60  # heat stencil is lighter than the µ kernel


class TestECM:
    def test_compute_vs_memory_bound_classification(self):
        k = _heat_kernel_3d()
        ecm = ECMModel(SKYLAKE_8174)
        pred = ecm.predict(k, (60, 60, 60))
        # 7-point stencil: few flops, memory dominated
        assert not pred.is_compute_bound

    def test_memory_bound_kernel_saturates(self):
        k = _heat_kernel_3d()
        pred = ECMModel(SKYLAKE_8174).predict(k, (60, 60, 60))
        per_core_1 = pred.mlups_per_core(1)
        per_core_24 = pred.mlups_per_core(24)
        assert per_core_24 < per_core_1
        # aggregate rate must still grow or saturate, never drop
        assert pred.mlups(24) >= pred.mlups(12) * 0.99

    def test_single_core_rate_positive_and_sane(self):
        k = _heat_kernel_3d()
        pred = ECMModel(SKYLAKE_8174).predict(k, (60, 60, 60))
        assert 10 < pred.mlups_single_core() < 10000

    def test_haswell_slower_than_skylake(self):
        k = _heat_kernel_3d()
        skl = ECMModel(SKYLAKE_8174).predict(k, (60, 60, 60))
        hsw = ECMModel(HASWELL_2690V3).predict(k, (60, 60, 60))
        assert hsw.mlups(12) < skl.mlups(24)

    def test_str_contains_decomposition(self):
        k = _heat_kernel_3d()
        pred = ECMModel(SKYLAKE_8174).predict(k, (60, 60, 60))
        assert "cy/CL" in str(pred)


class TestMachineModel:
    def test_level_by_name(self):
        l2 = SKYLAKE_8174.level("L2")
        assert l2.name == "L2" and l2 in SKYLAKE_8174.cache_levels
        with pytest.raises(KeyError):
            SKYLAKE_8174.level("L4")
