"""Ghost-layer boundary handling for single blocks.

Filling ghost layers axis by axis also populates edge/corner ghosts
correctly (each later axis copies already-filled ghost strips), which the
wide D3C19 stencils of the µ kernel rely on.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["fill_ghosts", "PERIODIC", "NEUMANN", "DIRICHLET", "DirichletValue"]

PERIODIC = "periodic"
NEUMANN = "neumann"
DIRICHLET = "dirichlet"


class DirichletValue:
    """Per-axis Dirichlet boundary: ghost cells mirror around a fixed value.

    Ghosts are set to ``2·value − interior`` so that the midpoint of the
    ghost/interior pair (the wall position of a cell-centred grid) holds
    exactly ``value`` — second-order accurate for the central stencils.
    ``value`` may be a scalar or an array broadcastable to the face slab
    (e.g. a per-component vector for a phase field).
    """

    def __init__(self, value, axis: int | None = None):
        self.value = value
        self.axis = axis

    def __repr__(self):
        return f"DirichletValue({self.value!r})"


@lru_cache(maxsize=256)
def _fill_plan(shape: tuple[int, ...], gl: int, dim: int, modes: tuple) -> tuple:
    """The ghost fill of one array shape as ``(ghost, source, dirichlet)`` copies.

    In execution order: axis by axis, low face before high face.  A
    ``dirichlet`` entry is the :class:`DirichletValue` whose value the
    ghost mirrors around (read at fill time), ``None`` for a plain copy.
    The cache is bounded: it keeps its keys' ``DirichletValue`` alive.
    """
    if len(modes) != dim:
        raise ValueError(f"need one mode per axis, got {modes}")
    plan = []
    for axis in range(dim):
        n = shape[axis]
        if n < 3 * gl:
            raise ValueError(
                f"axis {axis} too small ({n}) for ghost width {gl}"
            )
        m = modes[axis]

        def at(start, stop, step=None):
            return (slice(None),) * axis + (slice(start, stop, step),)

        if isinstance(m, DirichletValue):
            for layer in range(gl):
                # ghost layer `layer` mirrors interior layer `2gl-1-layer`
                plan.append((at(layer, layer + 1), at(2 * gl - 1 - layer, 2 * gl - layer), m))
                plan.append((
                    at(n - 1 - layer, n - layer),
                    at(n - 2 * gl + layer, n - 2 * gl + layer + 1), m,
                ))
        elif m == PERIODIC:
            plan.append((at(0, gl), at(n - 2 * gl, n - gl), None))
            plan.append((at(n - gl, n), at(gl, 2 * gl), None))
        elif m == NEUMANN:
            # zero-gradient via mirroring: ghost layer `layer` mirrors
            # interior layer `2gl-1-layer` (the interior slab read
            # backwards), matching the DirichletValue scheme (and the
            # block-level wall fill) for every ghost width; for gl=1 this
            # reduces to replicating the edge layer
            plan.append((at(0, gl), at(2 * gl - 1, gl - 1, -1), None))
            plan.append((at(n - gl, n), at(n - gl - 1, n - 2 * gl - 1, -1), None))
        else:
            raise ValueError(f"unknown boundary mode {m!r}")
    return tuple(plan)


def fill_ghosts(
    arr: np.ndarray,
    ghost_layers: int,
    dim: int,
    mode: str | tuple[str, ...] = PERIODIC,
) -> None:
    """Fill the ghost frame of *arr* in place.

    ``mode`` is a single mode or a per-axis tuple; supported modes are
    ``"periodic"`` (wrap-around) and ``"neumann"`` (zero-gradient,
    replicating the outermost interior layer).  The copies are planned
    once per ``(shape, ghost_layers, dim, mode)`` and replayed after.
    """
    gl = int(ghost_layers)
    if gl == 0:
        return
    modes = (mode,) * dim if isinstance(mode, str) else tuple(mode)
    for ghost, source, dirichlet in _fill_plan(arr.shape, gl, dim, modes):
        if dirichlet is None:
            arr[ghost] = arr[source]
        else:
            arr[ghost] = 2.0 * np.asarray(dirichlet.value) - arr[source]
