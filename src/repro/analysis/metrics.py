"""In-situ analysis metrics for phase-field states (paper §4.1, §7).

All functions operate on interior arrays ``phi[..., α]`` (phase index last)
as produced by the solvers.  They quantify the microstructural features the
paper's Fig. 4 discusses: phase fractions, interfacial area, front position
and velocity.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "phase_fractions",
    "interface_fraction",
    "interfacial_area",
    "front_position",
    "front_velocity",
    "solid_fraction_profile",
]


def phase_fractions(phi: np.ndarray) -> np.ndarray:
    """Volume fraction of every phase."""
    n = phi.shape[-1]
    return phi.reshape(-1, n).mean(axis=0)


def interface_fraction(phi: np.ndarray, threshold: float = 0.05) -> float:
    """Fraction of cells inside any diffuse interface."""
    in_iface = np.any((phi > threshold) & (phi < 1 - threshold), axis=-1)
    return float(in_iface.mean())


def interfacial_area(phi: np.ndarray, phase: int, dx: float = 1.0) -> float:
    """Interfacial area (length in 2D) of one phase: ∫ |∇φ_α| dV.

    For the equilibrium profile this integral equals the sharp-interface
    area up to a constant close to one.
    """
    p = phi[..., phase]
    grads = np.gradient(p, dx)
    if p.ndim == 1:
        grads = [grads]
    norm = np.sqrt(sum(g**2 for g in grads))
    return float(norm.sum() * dx**p.ndim)


def front_position(phi: np.ndarray, solid_phases, axis: int = 0, level: float = 0.5) -> float:
    """Mean position of the solid/liquid front along *axis* (cell units).

    Defined through the solid fraction profile: the integral of the profile
    equals the front position for a sharp front.
    """
    profile = solid_fraction_profile(phi, solid_phases, axis)
    return float(profile.sum())


def solid_fraction_profile(phi: np.ndarray, solid_phases, axis: int = 0) -> np.ndarray:
    """Average solid fraction as a function of the coordinate along *axis*."""
    solid = phi[..., list(solid_phases)].sum(axis=-1)
    other_axes = tuple(a for a in range(solid.ndim) if a != axis)
    return solid.mean(axis=other_axes)


def front_velocity(
    positions: list[float], dt_between_samples: float
) -> np.ndarray:
    """Finite-difference front velocities from a position time series."""
    p = np.asarray(positions, dtype=float)
    if len(p) < 2:
        return np.zeros(0)
    return np.diff(p) / dt_between_samples
