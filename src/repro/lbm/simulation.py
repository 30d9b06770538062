"""LBM driver: boundary handling and the single-block sweep schedule."""

from __future__ import annotations

import numpy as np

from ..ir import KernelConfig, create_kernel
from ..parallel.blockforest import Block
from ..parallel.boundary import fill_ghosts
from ..profiling import compile_cached
from ..timeloop import TimeLoop
from .lattice import Lattice
from .method import LBMethod, create_lbm_update, equilibrium_pdfs

__all__ = ["LBMSimulation", "apply_bounce_back"]


def apply_bounce_back(
    arr: np.ndarray, lattice: Lattice, axis: int, side: int, gl: int = 1
) -> None:
    """Halfway bounce-back wall on one face (in place).

    The ghost layer receives the *opposite-direction* populations of the
    adjacent fluid cells; with pull streaming this realizes a no-slip wall
    located halfway between the last fluid cell and the ghost cell.
    """
    n = arr.shape[axis]
    ghost = [slice(None)] * (arr.ndim - 1)  # spatial dims; pdf index appended
    fluid = [slice(None)] * (arr.ndim - 1)
    if side < 0:
        ghost[axis] = slice(0, gl)
        fluid[axis] = slice(gl, 2 * gl)
    else:
        ghost[axis] = slice(n - gl, n)
        fluid[axis] = slice(n - 2 * gl, n - gl)
    for i in range(lattice.q):
        arr[tuple(ghost) + (i,)] = arr[tuple(fluid) + (lattice.opposite(i),)]


class LBMSimulation(TimeLoop):
    """A periodic-or-walled channel simulation on one block.

    ``walls`` lists (axis, side) faces with halfway bounce-back; all other
    faces are periodic.  One time step is the schedule ``[sync(src),
    sweep(update)]`` on the shared :class:`repro.timeloop.TimeLoop`, which
    also provides the kernel cache, the profiler and the recorder events.
    """

    kind = "lbm"
    fills_ghosts = True

    def __init__(
        self,
        method: LBMethod,
        shape: tuple[int, ...],
        walls: list[tuple[int, int]] = (),
        backend: str = "numpy",
    ):
        self.method = method
        self.lattice = method.lattice
        if len(shape) != self.lattice.dim:
            raise ValueError(
                f"{self.lattice.name} needs a {self.lattice.dim}D shape"
            )
        self.shape = tuple(int(s) for s in shape)
        self.walls = list(walls)

        ac, self.src_field, self.dst_field = create_lbm_update(method)
        self.kernel = create_kernel(ac, KernelConfig())
        src, dst = self.src_field.name, self.dst_field.name
        origin = (0,) * self.lattice.dim
        super().__init__(
            [self.kernel],
            [Block(origin, self.shape, origin)],
            [("sync", src), ("sweep", [self.kernel])],
            [(src, dst)],
            compile_cached,
            block_shape=self.shape,
            dt=1.0,
            backend=backend,
            state_fields=(src,),
            shape=list(self.shape),
        )
        self.arrays = self._owned[0].arrays
        self.arrays[src][...] = np.asarray(equilibrium_pdfs(method))

    # -- state -----------------------------------------------------------------

    @property
    def pdf(self) -> np.ndarray:
        return self.arrays[self.src_field.name][self._cut]

    def density(self) -> np.ndarray:
        return self.pdf.sum(axis=-1)

    def velocity(self) -> np.ndarray:
        """Macroscopic velocity (without forcing shift), shape (*spatial, dim)."""
        rho = self.density()
        c = np.asarray(self.lattice.velocities, dtype=float)  # (q, dim)
        mom = np.tensordot(self.pdf, c, axes=([-1], [0]))
        return mom / rho[..., None]

    def set_velocity(self, u: np.ndarray, rho: float = 1.0) -> None:
        """Initialize with the equilibrium of a given velocity field."""
        import sympy as sp

        u = np.asarray(u, dtype=float)
        lat = self.lattice
        pdf = self.pdf
        rho_s = sp.Symbol("r")
        u_s = [sp.Symbol(f"v{d}") for d in range(lat.dim)]
        for i in range(lat.q):
            expr = self.method.equilibrium(i, rho_s, u_s)
            f = sp.lambdify((rho_s, *u_s), expr, "numpy")
            pdf[..., i] = f(rho, *[u[..., d] for d in range(lat.dim)])

    # -- stepping ----------------------------------------------------------------

    def sync(self, name: str) -> None:
        """Boundary handling: periodic fill, then bounce-back on the walls."""
        arr = self.arrays[name]
        gl = self.ghost_layers
        with self._fills[name]:
            fill_ghosts(arr, gl, self.lattice.dim, mode="periodic", native=self._native_fill)
            for axis, side in self.walls:
                apply_bounce_back(arr, self.lattice, axis, side, gl)

    def _native_sync(self, arrays: dict, name: str) -> tuple | None:
        if self.walls:
            return None  # bounce-back runs in NumPy after the fill
        dim = self.lattice.dim
        return self._native_fill.prepare(arrays[name], self.ghost_layers, dim, ("periodic",) * dim)

    def total_mass(self) -> float:
        return float(self.density().sum())
