"""Headline claims of the paper verified at test level (shape, not absolute).

The heavier table/figure regenerations live in ``benchmarks/``; this module
asserts the claims that are cheap enough for the regular test suite, all on
the P1 configuration (4 phases, 3 components, 3D).
"""

import numpy as np
import pytest

from repro.pfm import GrandPotentialModel, make_p1


@pytest.fixture(scope="module")
def p1_model():
    return GrandPotentialModel(make_p1(dim=3))


@pytest.fixture(scope="module")
def p1_full(p1_model):
    return p1_model.create_kernels(variant_phi="full", variant_mu="full")


@pytest.fixture(scope="module")
def p1_split(p1_model):
    return p1_model.create_kernels(variant_phi="split", variant_mu="split")


class TestTable1Claims:
    def test_mu_full_loads_stores_exact(self, p1_full):
        oc = p1_full.mu_kernels[0].operation_count()
        assert (oc.loads, oc.stores) == (112, 2)  # Table 1, µ-full column

    def test_phi_full_loads_stores_exact(self, p1_full):
        oc = p1_full.phi_kernels[0].operation_count()
        assert (oc.loads, oc.stores) == (30, 4)

    def test_mu_split_loads_stores_exact(self, p1_split):
        pairs = [
            (k.operation_count().loads, k.operation_count().stores)
            for k in p1_split.mu_kernels
        ]
        assert pairs == [(84, 6), (22, 2)]

    def test_phi_split_loads_stores_exact(self, p1_split):
        pairs = [
            (k.operation_count().loads, k.operation_count().stores)
            for k in p1_split.phi_kernels
        ]
        assert pairs == [(16, 12), (54, 4)]

    def test_mu_split_halves_flops(self, p1_full, p1_split):
        """'The µ-split kernel requires almost only half of the operations'"""
        full = p1_full.mu_kernels[0].operation_count().normalized_flops()
        split = sum(
            k.operation_count().normalized_flops() for k in p1_split.mu_kernels
        )
        assert 0.4 < split / full < 0.75

    def test_automatic_simplification_beats_manual_budget(self, p1_split):
        """§5.1: the auto-simplified µ-split kernel needs no more normalized
        FLOPs than the manually optimized 1 384 of [2]."""
        split = sum(
            k.operation_count().normalized_flops() for k in p1_split.mu_kernels
        )
        assert split <= 1384

    def test_mu_kernel_has_irrational_ops_phi_does_not(self, p1_full):
        """Table 1: only the µ kernels contain (r)sqrts (anti-trapping)."""
        mu = p1_full.mu_kernels[0].operation_count()
        phi = p1_full.phi_kernels[0].operation_count()
        assert mu.rsqrts + mu.sqrts > 0
        assert phi.rsqrts + phi.sqrts == 0

    def test_wide_stencil_structure(self, p1_full):
        """Algorithm 1: φ kernel reads φ with D3C7 and µ at the center only;
        the µ kernel reads both φ arrays with wide stencils."""
        phi_kernel = p1_full.phi_kernels[0]
        mu_reads = {
            acc.offsets
            for acc in phi_kernel.ac.field_reads
            if acc.field.name == "mu"
        }
        assert mu_reads == {(0, 0, 0)}
        phi_offsets = {
            acc.offsets
            for acc in phi_kernel.ac.field_reads
            if acc.field.name == "phi"
        }
        assert all(sum(abs(o) for o in off) <= 1 for off in phi_offsets)  # D3C7

        mu_kernel = p1_full.mu_kernels[0]
        fields_read = {f.name for f in mu_kernel.ac.fields_read}
        assert {"phi", "phi_dst", "mu"} <= fields_read
        phi_offsets_mu = {
            acc.offsets
            for acc in mu_kernel.ac.field_reads
            if acc.field.name in ("phi", "phi_dst")
        }
        assert any(sum(abs(o) for o in off) == 2 for off in phi_offsets_mu), \
            "µ kernel must read φ diagonally (D3C19)"


class TestConfigurationClaims:
    def test_configuration_parameter_count_scale(self, p1_model):
        """§5.1: 'more than 50 material-dependent quantities' for 4 phases /
        3 components."""
        assert p1_model.params.configuration_parameter_count() > 50

    def test_parameters_are_folded(self, p1_full):
        """No model parameters remain as runtime kernel arguments — only the
        analytic time and the RNG keys may survive."""
        for k in p1_full.all_kernels:
            names = {p.name for p in k.parameters}
            assert names <= {"t", "time_step", "seed"}, names


class TestBlockingClaim:
    def test_layer_condition_blocking(self, p1_full):
        """§6.1: µ-full needs ~232·N² bytes; 1 MiB L2 → N < 67 → 60³ blocks."""
        from repro.perfmodel import blocking_factor

        n = blocking_factor(p1_full.mu_kernels[0], 1024 * 1024)
        assert 50 <= n <= 80

    def test_crossover_in_socket(self, p1_full, p1_split):
        """Fig. 2 left: ECM µ variant crossover at ~16 cores."""
        from repro.perfmodel import ECMModel, SKYLAKE_8174

        ecm = ECMModel(SKYLAKE_8174)
        p_full = [ecm.predict(k, (60, 60, 60)) for k in p1_full.mu_kernels]
        p_split = [ecm.predict(k, (60, 60, 60)) for k in p1_split.mu_kernels]

        def combined(preds, n):
            return 1.0 / sum(1.0 / p.mlups(n) for p in preds)

        assert combined(p_split, 1) > combined(p_full, 1)
        crossover = next(
            (n for n in range(1, 25) if combined(p_full, n) > combined(p_split, n)),
            None,
        )
        assert crossover is not None and 8 <= crossover <= 24


class TestRecompilationWorkflow:
    def test_symbolic_parameters_stay_runtime(self, p1_model):
        """§5.1: 'the user may choose a set of parameters that remain
        variables at runtime' — disabling constant folding keeps dt/dx as
        kernel arguments."""
        ks = p1_model.create_kernels(variant_phi="full", fold_constants=False)
        names = {p.name for p in ks.phi_kernels[0].parameters}
        assert "dt" in names and "dx_0" in names


class TestReferencePathDispatch:
    def test_a_repeat_numpy_call_does_no_symbolic_work(self, p1_full, monkeypatch):
        """The call check re-walked the whole µ body for its coordinate axes: 1.4 ms a call."""
        import sympy as sp

        from repro.backends import compile_numpy_kernel, create_arrays

        (mu,) = p1_full.mu_kernels
        compiled = compile_numpy_kernel(mu)
        gl = p1_full.ghost_layers
        arrays = create_arrays(p1_full.fields, (4, 4, 4), gl, fill=0.25)
        compiled(arrays, ghost_layers=gl, t=0.0)

        traversals = []
        atoms, free_symbols = sp.Basic.atoms, sp.Basic.free_symbols.fget
        monkeypatch.setattr(
            sp.Basic, "atoms", lambda self, *t: traversals.append(self) or atoms(self, *t)
        )
        monkeypatch.setattr(
            sp.Basic,
            "free_symbols",
            property(lambda self: traversals.append(self) or free_symbols(self)),
        )
        rhs = mu.ac.main_assignments[0].rhs
        assert rhs.free_symbols and rhs.atoms(sp.Symbol) and traversals  # the probe counts
        traversals.clear()
        compiled(arrays, ghost_layers=gl, t=0.0)
        assert not traversals
