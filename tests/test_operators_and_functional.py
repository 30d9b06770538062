"""Tests for continuous operators and variational derivatives."""

import pytest
import sympy as sp

from repro.symbolic import (
    Diff,
    EnergyFunctional,
    Field,
    Transient,
    diff,
    div,
    expand_diff,
    functional_derivative,
    grad,
    gradient_norm,
    x_,
)
from repro.symbolic.operators import diff_depth


class TestDiff:
    def test_free_symbols_are_those_of_the_argument(self):
        f = Field("f", 2)
        a = sp.Symbol("a")
        d = Diff(a * f.center(), 1)
        assert d.free_symbols == {a, f.center()}

    def test_of_number_is_zero(self):
        assert Diff(5, 0) == 0
        assert Diff(sp.Rational(1, 2), 2) == 0

    def test_nested(self):
        f = Field("f", 2)
        d = diff(f.center(), 0, 1)
        assert isinstance(d, Diff)
        assert d.axis == 1
        assert isinstance(d.arg, Diff)
        assert d.arg.axis == 0

    def test_grad_dimension_from_field(self):
        f2 = Field("f2", 2)
        g = grad(f2.center())
        assert len(g) == 2

    def test_div_of_grad_depth(self):
        f = Field("f", 3)
        lap = div(grad(f.center()))
        assert diff_depth(lap) == 2

    def test_div_zero(self):
        assert div([0, 0, 0]) == 0

    def test_transient_requires_access(self):
        with pytest.raises(TypeError):
            Transient(sp.Symbol("a"))

    def test_gradient_norm_squared(self):
        f = Field("f", 2)
        gn2 = gradient_norm(f.center(), squared=True)
        assert gn2 == Diff(f.center(), 0) ** 2 + Diff(f.center(), 1) ** 2


class TestExpandDiff:
    def test_linearity(self):
        f, g = Field("f", 2), Field("g", 2)
        e = expand_diff(Diff(f.center() + 2 * g.center(), 0))
        assert e == Diff(f.center(), 0) + 2 * Diff(g.center(), 0)

    def test_product_rule(self):
        f, g = Field("f", 2), Field("g", 2)
        e = expand_diff(Diff(f.center() * g.center(), 1))
        expected = f.center() * Diff(g.center(), 1) + g.center() * Diff(f.center(), 1)
        assert sp.expand(e - expected) == 0

    def test_constant_is_zero(self):
        a = sp.Symbol("a")
        assert expand_diff(Diff(a**2 + 3, 0)) == 0

    def test_power_rule(self):
        f = Field("f", 2)
        e = expand_diff(Diff(f.center() ** 3, 0))
        assert sp.expand(e - 3 * f.center() ** 2 * Diff(f.center(), 0)) == 0

    def test_chain_rule_sqrt(self):
        f = Field("f", 2)
        e = expand_diff(Diff(sp.sqrt(f.center()), 0))
        assert sp.simplify(e - Diff(f.center(), 0) / (2 * sp.sqrt(f.center()))) == 0

    def test_coordinate_derivative(self):
        e = expand_diff(Diff(x_[0] ** 2, 0))
        assert e == 2 * x_[0] * Diff(x_[0], 0)


class TestFunctionalDerivative:
    def test_double_well_bulk(self):
        """δ/δφ of w φ²(1−φ)² has no divergence part."""
        phi = Field("phi", 3)
        w = sp.Symbol("w")
        c = phi.center()
        energy = w * c**2 * (1 - c) ** 2
        fd = functional_derivative(energy, c)
        assert not fd.atoms(Diff)
        assert sp.expand(fd - sp.diff(energy, c)) == 0

    def test_gradient_energy_gives_laplacian(self):
        """δ/δφ of κ/2 |∇φ|² = −κ ∇²φ (as nested Diff)."""
        phi = Field("phi", 3)
        kappa = sp.Symbol("kappa")
        c = phi.center()
        energy = kappa / 2 * gradient_norm(c, squared=True)
        fd = functional_derivative(energy, c)
        expected = -sp.Add(*[Diff(kappa * Diff(c, i), i) for i in range(3)])
        assert sp.expand(fd - expected) == 0

    def test_allen_cahn_full(self):
        """Standard Allen-Cahn functional reproduces textbook EL equation."""
        phi = Field("phi", 2)
        c = phi.center()
        kappa, w = sp.symbols("kappa w", positive=True)
        energy = kappa / 2 * gradient_norm(c, squared=True, dim=2) + w * c**2 * (1 - c) ** 2
        fd = functional_derivative(energy, c)
        bulk = fd.subs({Diff(kappa * Diff(c, i), i): 0 for i in range(2)})
        assert sp.expand(bulk - w * (2 * c - 6 * c**2 + 4 * c**3)) == 0

    def test_multiphase_coupling(self):
        """q_ab gradient energy couples distinct phase indices correctly."""
        phi = Field("phi", 2, (2,))
        a0, a1 = phi.center(0), phi.center(1)
        q = [a0 * Diff(a1, i) - a1 * Diff(a0, i) for i in range(2)]
        energy = sp.Add(*[qi**2 for qi in q])
        fd = functional_derivative(energy, a0)
        # bulk part: ∂/∂a0 Σ q_i² = Σ 2 q_i * Diff(a1, i)
        assert fd.atoms(Diff)
        # divergence part must carry the -a1 factor
        outer = [d for d in fd.atoms(Diff) if not isinstance(d.arg, (type(a0),))]
        assert outer

    def test_rejects_higher_derivatives_in_density(self):
        phi = Field("phi", 2)
        c = phi.center()
        with pytest.raises(ValueError):
            functional_derivative(diff(c, 0, 0), c)


class TestEnergyFunctional:
    def test_density_assembly(self):
        phi = Field("phi", 3, (2,))
        eps = sp.Symbol("epsilon", positive=True)
        a = gradient_norm(phi.center(0), squared=True)
        w = phi.center(0) * phi.center(1)
        F = EnergyFunctional(gradient_energy=a, potential=w, epsilon=eps)
        assert sp.expand(F.density - (eps * a + w / eps)) == 0

    def test_extra_terms(self):
        phi = Field("phi", 3, (2,))
        F = EnergyFunctional(potential=phi.center(0) ** 2)
        F.add_term(phi.center(1) ** 2)
        assert phi.center(1) ** 2 in F.density.args

    def test_variational_derivative_dispatch(self):
        phi = Field("phi", 3, (2,))
        c = phi.center(0)
        F = EnergyFunctional(potential=c**2, epsilon=sp.Integer(1))
        assert F.variational_derivative(c) == 2 * c
