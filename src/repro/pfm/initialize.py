"""Initial conditions for phase-field simulations.

All helpers operate on interior-shaped arrays with the phase index last,
``phi[..., α]`` — the logical index order of every field array, whatever
its storage order (:meth:`repro.symbolic.field.Field.strides`).
The interface profile is the obstacle-potential equilibrium
``φ(d) = ½(1 − sin(d/ε))`` clamped to [0, 1] (interface width πε).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "interface_profile",
    "planar_front",
    "add_seed",
    "lamellar_front",
    "normalize_phases",
]


def interface_profile(distance: np.ndarray, epsilon: float) -> np.ndarray:
    """Equilibrium profile: 1 on the negative side, 0 on the positive side."""
    arg = np.clip(np.asarray(distance, dtype=float) / epsilon, -np.pi / 2, np.pi / 2)
    return 0.5 * (1.0 - np.sin(arg))


def _cell_centers(shape: tuple[int, ...], dx: float) -> list[np.ndarray]:
    grids = np.indices(shape, dtype=float)
    return [(g + 0.5) * dx for g in grids]


def normalize_phases(phi: np.ndarray) -> np.ndarray:
    """Clip to [0,1] and renormalize so that Σ_α φ_α = 1 everywhere."""
    phi = np.clip(phi, 0.0, 1.0)
    total = phi.sum(axis=-1, keepdims=True)
    total[total == 0] = 1.0
    return phi / total


def planar_front(
    shape: tuple[int, ...],
    n_phases: int,
    solid_phase: int,
    liquid_phase: int,
    position: float,
    epsilon: float,
    dx: float = 1.0,
    axis: int = 0,
) -> np.ndarray:
    """Solid below ``position`` along ``axis``, liquid above."""
    coords = _cell_centers(shape, dx)
    d = coords[axis] - position
    phi = np.zeros(shape + (n_phases,))
    solid = interface_profile(d, epsilon)
    phi[..., solid_phase] = solid
    phi[..., liquid_phase] = 1.0 - solid
    return normalize_phases(phi)


def lamellar_front(
    shape: tuple[int, ...],
    n_phases: int,
    solid_phases: list[int],
    liquid_phase: int,
    position: float,
    lamella_width: float,
    epsilon: float,
    dx: float = 1.0,
    growth_axis: int = 0,
    lamella_axis: int = 1,
) -> np.ndarray:
    """Alternating solid lamellae below a planar solid/liquid front.

    The classic ternary-eutectic starting condition (paper Fig. 4 left):
    stripes of the solid phases cycle along ``lamella_axis``.
    """
    coords = _cell_centers(shape, dx)
    d = coords[growth_axis] - position
    solid_frac = interface_profile(d, epsilon)
    stripe = np.floor(coords[lamella_axis] / lamella_width).astype(int) % len(
        solid_phases
    )
    phi = np.zeros(shape + (n_phases,))
    for i, p in enumerate(solid_phases):
        phi[..., p] = solid_frac * (stripe == i)
    phi[..., liquid_phase] = 1.0 - solid_frac
    return normalize_phases(phi)


def add_seed(
    phi: np.ndarray,
    center: tuple[float, ...],
    radius: float,
    phase: int,
    liquid_phase: int,
    epsilon: float,
    dx: float = 1.0,
) -> np.ndarray:
    """Plant a spherical solid seed into the liquid (in place, returned)."""
    shape = phi.shape[:-1]
    coords = _cell_centers(shape, dx)
    d = np.sqrt(
        sum((c - c0) ** 2 for c, c0 in zip(coords, center))
    ) - radius
    seed = interface_profile(d, epsilon)
    phi[..., phase] = np.maximum(phi[..., phase], seed)
    phi[..., liquid_phase] = np.clip(phi[..., liquid_phase] - seed, 0.0, 1.0)
    return normalize_phases(phi)
