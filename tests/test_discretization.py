"""Tests for the finite-difference discretization layer.

Includes a literal check of the paper's Eq. (11) staggered example and
order-of-accuracy verification against analytic functions.
"""

import numpy as np
import pytest
import sympy as sp

from repro.symbolic import (
    Diff,
    EvolutionEquation,
    Field,
    FieldAccess,
    PDESystem,
    div,
    dt,
    grad,
    spacing,
    transient,
    x_,
)
from repro.discretization import (
    FiniteDifferenceDiscretization,
    FluxCollector,
    discretize_system,
)


def evaluate_stencil(expr, sample, h, index_map=None):
    """Numerically evaluate a stencil expression.

    *sample(field_name, offsets, index)* returns the grid value; spacing
    symbols are substituted with *h*.
    """
    subs = {}
    for acc in expr.atoms(FieldAccess):
        subs[acc] = sample(acc.field.name, acc.offsets, acc.index)
    for axis in range(3):
        subs[spacing(axis)] = h
    return float(expr.xreplace(subs))


class TestCentralDifferences:
    def test_first_derivative_order2(self):
        f = Field("f", 1)
        disc = FiniteDifferenceDiscretization(dim=1)
        stencil = disc(Diff(f.center(), 0))
        func = lambda x: np.sin(x)
        x0 = 0.4

        def sample(name, offsets, index):
            return func(x0 + float(offsets[0]) * h)

        errors = []
        for h in (0.1, 0.05):
            errors.append(abs(evaluate_stencil(stencil, sample, h) - np.cos(x0)))
        assert errors[1] / errors[0] == pytest.approx(0.25, rel=0.1)

    def test_first_derivative_order4(self):
        f = Field("f", 1)
        disc = FiniteDifferenceDiscretization(dim=1, order=4)
        stencil = disc(Diff(f.center(), 0))
        x0 = 0.4

        def sample(name, offsets, index):
            return np.sin(x0 + float(offsets[0]) * h)

        errors = []
        for h in (0.1, 0.05):
            errors.append(abs(evaluate_stencil(stencil, sample, h) - np.cos(x0)))
        assert errors[1] / errors[0] == pytest.approx(1 / 16, rel=0.2)

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            FiniteDifferenceDiscretization(order=3)


class TestLaplacian:
    def test_laplacian_is_standard_stencil(self):
        """div(grad(f)) must reduce to the 5-point stencil in 2D."""
        f = Field("f", 2)
        disc = FiniteDifferenceDiscretization(dim=2)
        stencil = sp.simplify(disc(div(grad(f.center()))))
        h = spacing(0)
        expected = (
            f[1, 0]() + f[-1, 0]() - 2 * f.center()
        ) / h**2 + (f[0, 1]() + f[0, -1]() - 2 * f.center()) / spacing(1) ** 2
        assert sp.expand(stencil - expected) == 0

    def test_laplacian_convergence(self):
        f = Field("f", 2)
        disc = FiniteDifferenceDiscretization(dim=2)
        stencil = disc(div(grad(f.center())))
        x0, y0 = 0.3, 0.7
        func = lambda x, y: np.exp(x) * np.sin(y)
        exact = 0.0  # Δ(e^x sin y) = 0

        def sample(name, offsets, index):
            return func(x0 + float(offsets[0]) * h, y0 + float(offsets[1]) * h)

        h = 0.05
        val = evaluate_stencil(stencil, sample, h)
        assert abs(val - exact) < 1e-3


class TestPaperEquation11:
    """The staggered discretization of ∂x(p(x) ∂x f + ∂y f) — Eq. (11)."""

    def setup_method(self):
        self.f = Field("f", 2)
        self.p = sp.Function("p")(x_[0])
        self.disc = FiniteDifferenceDiscretization(dim=2)

    def test_right_staggered_value_matches_paper(self):
        f, p = self.f, self.p
        inner = p * Diff(f.center(), 0) + Diff(f.center(), 1)
        sr = self.disc.staggered_value(inner, axis=0, sign=+1)
        hx, hy = spacing(0), spacing(1)
        expected = p.subs(x_[0], x_[0] + hx / 2) * (f[1, 0]() - f[0, 0]()) / hx + sp.Rational(
            1, 2
        ) * (
            (f[0, 1]() - f[0, -1]()) / (2 * hy)
            + (f[1, 1]() - f[1, -1]()) / (2 * hy)
        )
        assert sp.expand(sr - expected) == 0

    def test_full_term_is_difference_of_staggered(self):
        f, p = self.f, self.p
        pde_rhs = Diff(p * Diff(f.center(), 0) + Diff(f.center(), 1), 0)
        stencil = self.disc(pde_rhs)
        hx = spacing(0)
        sr = self.disc.staggered_value(
            p * Diff(f.center(), 0) + Diff(f.center(), 1), 0, +1
        )
        sl = self.disc.staggered_value(
            p * Diff(f.center(), 0) + Diff(f.center(), 1), 0, -1
        )
        assert sp.expand(stencil - (sr - sl) / hx) == 0

    def test_variable_coefficient_laplacian_convergence(self):
        """∂x(p(x) ∂x f) with p=1+x², f=sin(x): check against analytic value."""
        f = Field("f", 1)
        disc = FiniteDifferenceDiscretization(dim=1)
        p_expr = 1 + x_[0] ** 2
        stencil = disc(Diff(p_expr * Diff(f.center(), 0), 0))
        x0 = 0.3
        exact = float(
            sp.diff((1 + sp.Symbol("x") ** 2) * sp.cos(sp.Symbol("x")), sp.Symbol("x")).subs(
                sp.Symbol("x"), x0
            )
        )

        def make_sample(h):
            def sample(name, offsets, index):
                return np.sin(x0 + float(offsets[0]) * h)

            return sample

        errs = []
        for h in (0.1, 0.05):
            subs = {x_[0]: x0}
            st = stencil.xreplace(subs)
            errs.append(abs(evaluate_stencil(st, make_sample(h), h) - exact))
        assert errs[1] / errs[0] == pytest.approx(0.25, rel=0.15)


class TestTransientResolution:
    def test_rhs_transient_becomes_dst_minus_src(self):
        phi = Field("phi", 3, (2,))
        phi_dst = Field("phi_dst", 3, (2,))
        disc = FiniteDifferenceDiscretization(dim=3, dst_map={phi: phi_dst})
        e = disc(transient(phi.center(0)) * 2)
        expected = 2 * (phi_dst.center(0) - phi.center(0)) / dt
        assert sp.expand(e - expected) == 0

    def test_missing_dst_map_raises(self):
        phi = Field("phi", 3, (2,))
        disc = FiniteDifferenceDiscretization(dim=3)
        with pytest.raises(ValueError, match="destination field"):
            disc(transient(phi.center(0)))


class TestFluxCollection:
    def test_fluxes_deduplicated(self):
        f = Field("f", 2)
        disc = FiniteDifferenceDiscretization(dim=2)
        fc = FluxCollector()
        expr = div(grad(f.center()))
        disc(expr, fc)
        disc(expr, fc)  # same fluxes again — must not grow
        assert len(fc) == 2  # one flux per axis

    def test_distinct_axes_distinct_slots(self):
        f = Field("f", 3)
        disc = FiniteDifferenceDiscretization(dim=3)
        fc = FluxCollector()
        disc(div(grad(f.center())), fc)
        axes = [axis for axis, _ in fc.entries]
        assert sorted(axes) == [0, 1, 2]


class TestDiscretizeSystem:
    def _heat_system(self):
        f = Field("f", 2)
        f_dst = Field("f_dst", 2)
        eq = EvolutionEquation(f.center(), div(grad(f.center())))
        return f, f_dst, PDESystem([eq], name="heat")

    def test_full_variant(self):
        f, f_dst, system = self._heat_system()
        disc = FiniteDifferenceDiscretization(dim=2)
        ac = discretize_system(system, f_dst, disc, variant="full")
        assert len(ac.main_assignments) == 1
        (a,) = ac.main_assignments
        assert a.lhs.field == f_dst
        assert dt in a.rhs.free_symbols
        assert ac.ghost_layers_required() == 1

    def test_split_variant(self):
        f, f_dst, system = self._heat_system()
        disc = FiniteDifferenceDiscretization(dim=2)
        split = discretize_system(system, f_dst, disc, variant="split")
        flux_ac, main_ac = split
        assert split.flux_field.staggered
        assert split.flux_field.index_shape == (2,)
        assert len(flux_ac.main_assignments) == 2
        # main kernel reads the flux field at center and +1 offsets
        reads = {acc.offsets for acc in main_ac.field_reads if acc.field == split.flux_field}
        assert (0, 0) in reads
        assert (1, 0) in reads and (0, 1) in reads

    def test_split_and_full_agree_numerically(self):
        """Split kernels must compute the identical update."""
        f, f_dst, system = self._heat_system()
        disc = FiniteDifferenceDiscretization(dim=2)
        full = discretize_system(system, f_dst, disc, variant="full")
        split = discretize_system(system, f_dst, disc, variant="split")
        # inline flux assignments into the main kernel and compare
        flux_values = {
            a.lhs: a.rhs for a in split.flux_kernel.main_assignments
        }
        # build shifted flux values too
        shifted = {}
        for acc, rhs in flux_values.items():
            for axis in range(2):
                s = acc.shifted(axis, 1)
                shifted[s] = rhs.xreplace(
                    {
                        fa: fa.shifted(axis, 1)
                        for fa in rhs.atoms(FieldAccess)
                    }
                )
        table = {**flux_values, **shifted}
        (main_a,) = split.main_kernel.main_assignments
        recombined = main_a.rhs.xreplace(table)
        (full_a,) = full.main_assignments
        assert sp.expand(recombined - full_a.rhs) == 0

    def test_relaxation_divides_rhs(self):
        f = Field("f", 2)
        f_dst = Field("f_dst", 2)
        tau = sp.Symbol("tau", positive=True)
        eq = EvolutionEquation(f.center(), div(grad(f.center())), relaxation=tau)
        disc = FiniteDifferenceDiscretization(dim=2)
        ac = discretize_system(PDESystem([eq]), f_dst, disc)
        (a,) = ac.main_assignments
        assert tau in a.rhs.free_symbols
