"""BGK lattice Boltzmann kernels through the phase-field code pipeline.

A fused stream-pull + collide update:

.. math::

    f_i(x, t{+}1) = f_i^{pull} + \\omega \\big(f_i^{eq}(\\rho, u) - f_i^{pull}\\big),
    \\quad f_i^{pull} = f_i(x - c_i, t)

with the second-order equilibrium and Guo-style body forcing via an
equilibrium-velocity shift.  The kernel is an ordinary
:class:`AssignmentCollection`, so constant folding, CSE, operation counting,
the ECM model, and the NumPy/C/CUDA backends all apply unchanged — the
generalization promised in the paper's conclusion.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy as sp

from ..symbolic.assignment import Assignment, AssignmentCollection
from ..symbolic.field import Field
from .lattice import D2Q9, Lattice

__all__ = ["LBMethod", "create_lbm_update"]


@dataclass
class LBMethod:
    """Single-relaxation-time (BGK) method on a given lattice."""

    lattice: Lattice = D2Q9
    relaxation_rate: float | sp.Expr = 1.0     # ω = 1/τ
    force: tuple = ()                          # constant body force density

    @property
    def omega(self) -> sp.Expr:
        return sp.sympify(self.relaxation_rate)

    @property
    def viscosity(self) -> sp.Expr:
        """Lattice kinematic viscosity ν = cs²(1/ω − 1/2)."""
        return sp.Rational(1, 3) * (1 / self.omega - sp.Rational(1, 2))

    def equilibrium(self, i: int, rho: sp.Expr, u: list[sp.Expr]) -> sp.Expr:
        c = self.lattice.velocities[i]
        w = self.lattice.weights[i]
        cu = sp.Add(*[c[d] * u[d] for d in range(self.lattice.dim)])
        u2 = sp.Add(*[u[d] ** 2 for d in range(self.lattice.dim)])
        return w * rho * (
            1 + 3 * cu + sp.Rational(9, 2) * cu**2 - sp.Rational(3, 2) * u2
        )


def create_lbm_update(method: LBMethod) -> tuple[AssignmentCollection, Field, Field]:
    """Build the fused stream-collide assignment collection.

    Returns ``(assignments, src_field, dst_field)``, the fields ``pdf`` and
    ``pdf_dst`` with one inner index per lattice direction.
    """
    lat = method.lattice
    src = Field("pdf", lat.dim, (lat.q,))
    dst = Field("pdf_dst", lat.dim, (lat.q,))

    pulled = []
    subexpressions = []
    for i, c in enumerate(lat.velocities):
        sym = sp.Symbol(f"f_{i}", real=True)
        offsets = tuple(-cc for cc in c)  # pull scheme
        subexpressions.append(Assignment(sym, src[offsets](i)))
        pulled.append(sym)

    rho = sp.Symbol("rho", real=True)
    subexpressions.append(Assignment(rho, sp.Add(*pulled)))

    u_syms = [sp.Symbol(f"u_{d}", real=True) for d in range(lat.dim)]
    force = tuple(sp.sympify(f) for f in method.force) or (sp.S.Zero,) * lat.dim
    for d in range(lat.dim):
        momentum = sp.Add(
            *[lat.velocities[i][d] * pulled[i] for i in range(lat.q)]
        )
        # equilibrium-velocity shift: u_eq = (Σ c f + F/(2ω·...)·τ)/ρ — the
        # simple Shan-Chen style forcing u_eq = u + τ F / ρ
        shift = force[d] / method.omega
        subexpressions.append(Assignment(u_syms[d], (momentum + shift) / rho))

    omega = method.omega
    mains = []
    for i in range(lat.q):
        feq = method.equilibrium(i, rho, u_syms)
        mains.append(
            Assignment(dst.center(i), pulled[i] + omega * (feq - pulled[i]))
        )
    ac = AssignmentCollection(mains, subexpressions, name=f"lbm_{lat.name.lower()}")
    ac.validate()
    return ac, src, dst


def equilibrium_pdfs(method: LBMethod, rho: float = 1.0, u=(0.0, 0.0)) -> list[float]:
    """Numeric equilibrium distribution (for initialization)."""
    lat = method.lattice
    u = list(u) + [0.0] * (lat.dim - len(u))
    rho_s, u_s = sp.Float(rho), [sp.Float(v) for v in u[: lat.dim]]
    return [float(method.equilibrium(i, rho_s, u_s)) for i in range(lat.q)]
