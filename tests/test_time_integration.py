"""Time integrator tests: the generated Euler step is O(dt); Heun built from it is O(dt²)."""

import numpy as np

from repro.backends import compile_numpy_kernel, create_arrays
from repro.discretization import FiniteDifferenceDiscretization, discretize_system
from repro.ir import create_kernel
from repro.parallel import fill_ghosts
from repro.symbolic import EvolutionEquation, Field, PDESystem, div, grad


def _euler(name):
    """The heat equation's fields and its generated explicit Euler kernel."""
    f = Field(f"u_{name}", 1)
    f_dst = Field(f"u_dst_{name}", 1)
    eq = EvolutionEquation(f.center(), div(grad(f.center())))
    ac = discretize_system(PDESystem([eq], name=name), f_dst, FiniteDifferenceDiscretization(dim=1))
    return f, f_dst, compile_numpy_kernel(create_kernel(ac))


def _run(name, n, dt, steps, u0, stages):
    """*steps* steps of ``u <- (u + E^2(u)) / 2`` (Heun) or ``u <- E(u)`` (Euler).

    With ``s = E(u) = u + dt·f(u)``, ``(u + E(s)) / 2 = u + dt/2·(f(u) + f(s))``:
    the explicit trapezoidal rule, second order only if the generated kernel
    is exactly ``u + dt·rhs(u)``.
    """
    f, f_dst, kernel = _euler(name)
    arrays = create_arrays([f, f_dst], (n,), 1)
    arrays[f.name][1:-1] = u0
    for _ in range(steps):
        u = arrays[f.name][1:-1].copy()
        for _ in range(stages):
            fill_ghosts(arrays[f.name], 1, 1, mode="periodic")
            kernel(arrays, dt=dt, dx_0=1.0)
            arrays[f.name], arrays[f_dst.name] = arrays[f_dst.name], arrays[f.name]
        if stages == 2:
            arrays[f.name][1:-1] = (u + arrays[f.name][1:-1]) / 2
    return arrays[f.name][1:-1].copy()


def _run_euler(n, dt, steps, u0):
    return _run("eul", n, dt, steps, u0, stages=1)


def _run_heun(n, dt, steps, u0):
    return _run("heun", n, dt, steps, u0, stages=2)


class TestTemporalConvergence:
    """Heat equation with exact solution: Euler is O(dt), Heun is O(dt²).

    Spatial error is held fixed by comparing against the *semi-discrete*
    exact solution: the 3-point Laplacian has eigenvalue
    λ = −(2 − 2cos(k)) for the mode sin(kx), so the ODE solution is
    exp(λ t) independent of the time integrator.
    """

    n = 32
    total_time = 4.0

    def _setup(self):
        x = np.arange(self.n) + 0.5
        k = 2 * np.pi / self.n
        u0 = np.sin(k * x)
        lam = -(2.0 - 2.0 * np.cos(k))
        exact = np.exp(lam * self.total_time) * u0
        return u0, exact

    def _orders(self, runner):
        u0, exact = self._setup()
        errors = []
        for dt in (0.4, 0.2, 0.1):
            steps = int(round(self.total_time / dt))
            u = runner(self.n, dt, steps, u0)
            errors.append(np.abs(u - exact).max())
        return [np.log2(errors[i] / errors[i + 1]) for i in range(2)]

    def test_euler_first_order(self):
        orders = self._orders(_run_euler)
        assert all(0.8 < o < 1.3 for o in orders), orders

    def test_heun_second_order(self):
        orders = self._orders(_run_heun)
        assert all(1.8 < o < 2.3 for o in orders), orders

    def test_heun_more_accurate_than_euler(self):
        u0, exact = self._setup()
        dt, steps = 0.2, int(round(self.total_time / 0.2))
        err_euler = np.abs(_run_euler(self.n, dt, steps, u0) - exact).max()
        err_heun = np.abs(_run_heun(self.n, dt, steps, u0) - exact).max()
        assert err_heun < err_euler / 5
