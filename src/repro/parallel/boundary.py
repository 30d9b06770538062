"""Ghost-layer boundary handling for single blocks.

Filling ghost layers axis by axis also populates edge/corner ghosts
correctly (each later axis copies already-filled ghost strips), which the
wide D3C19 stencils of the µ kernel rely on.

The fill of an array shape is planned once, as a list of slice copies
(:func:`_fill_plan`), and lowered two ways: replayed as NumPy slice
assignments, the reference, or — under the C backend — walked by one
native routine per call (:class:`repro.backends.c_backend.CompiledCFill`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "fill_ghosts", "neumann_wall", "PERIODIC", "NEUMANN", "DIRICHLET", "DirichletValue",
]

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

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return f"DirichletValue({self.value!r})"


def neumann_wall(n: int, axis: int, side: int, gl: int) -> tuple:
    """The zero-gradient wall of face *side* (-1, +1) of *axis* as a ``(ghost, source)`` copy.

    Ghost layer ``layer`` mirrors interior layer ``2gl-1-layer`` (the slab
    read backwards, as :class:`DirichletValue` mirrors) for every ghost
    width; *n* is the ghosted extent.  The fill plan and the block
    exchange's domain walls both use it.
    """
    lead = (slice(None),) * axis
    if side < 0:
        return lead + (slice(0, gl),), lead + (slice(2 * gl - 1, gl - 1, -1),)
    return lead + (slice(n - gl, n),), lead + (slice(n - gl - 1, n - 2 * gl - 1, -1),)


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
            for side in (-1, +1):
                plan.append((*neumann_wall(n, axis, side, gl), None))
        else:
            raise ValueError(f"unknown boundary mode {m!r}")
    return tuple(plan)


def fill_modes(mode, dim: int) -> tuple:
    """*mode* as one mode per axis (a single mode applies to every axis)."""
    return (mode,) * dim if isinstance(mode, str) else tuple(mode)


def fill_ghosts(
    arr: np.ndarray,
    ghost_layers: int,
    dim: int,
    mode: str | tuple[str, ...] = PERIODIC,
    native=None,
) -> None:
    """Fill the ghost frame of *arr* in place.

    ``mode`` is a single mode or a per-axis tuple; supported modes are
    ``"periodic"`` (wrap-around), ``"neumann"`` (zero-gradient,
    replicating the outermost interior layer) and a :class:`DirichletValue`.
    The copies are planned once per ``(shape, ghost_layers, dim, mode)``
    and replayed after.  *native* is the compiled fill of the C backend
    (:func:`repro.backends.c_backend.compile_c_fill`), which runs the same
    plan as one native call on every array it can address; NumPy slice
    copies fill the rest, and every array when *native* is ``None``.
    """
    gl = int(ghost_layers)
    if gl == 0:
        return
    modes = fill_modes(mode, dim)
    if native is not None and native(arr, gl, dim, modes):
        return
    for ghost, source, dirichlet in _fill_plan(arr.shape, gl, dim, modes):
        if dirichlet is None:
            arr[ghost] = arr[source]
        else:
            arr[ghost] = 2.0 * np.asarray(dirichlet.value) - arr[source]
