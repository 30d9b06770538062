"""Runtime helpers shared by generated NumPy kernels.

Approximate operations emulate the reduced precision of the hardware
intrinsics (``rsqrt14``, ``__fdividef``) by a float32 round-trip, so their
numerical effect is observable and testable, while exact operations stay in
full double precision.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..rng.philox import philox_field

__all__ = [
    "fast_div",
    "fast_sqrt",
    "fast_rsqrt",
    "rng_uniform",
    "tile_sum",
    "RUNTIME_NAMESPACE",
]


def fast_div(a, b):
    """Approximate division via single precision (CUDA ``__fdividef`` analogue)."""
    return np.asarray(
        np.float32(a) / np.float32(b), dtype=np.float64
    ) if np.isscalar(a) and np.isscalar(b) else np.divide(
        np.asarray(a, dtype=np.float32), np.asarray(b, dtype=np.float32)
    ).astype(np.float64)


def fast_sqrt(x):
    """Approximate square root in single precision."""
    if np.isscalar(x):
        return float(np.sqrt(np.float32(x)))
    return np.sqrt(np.asarray(x, dtype=np.float32)).astype(np.float64)


def fast_rsqrt(x):
    """Approximate reciprocal square root (AVX-512 ``rsqrt14`` analogue)."""
    if np.isscalar(x):
        return float(np.float32(1.0) / np.sqrt(np.float32(x)))
    x32 = np.asarray(x, dtype=np.float32)
    return (np.float32(1.0) / np.sqrt(x32)).astype(np.float64)


def rng_uniform(shape, time_step, seed, stream, offset, low, high):
    """Uniform Philox field for fluctuation terms in generated kernels."""
    return philox_field(
        shape,
        time_step=int(time_step),
        seed=int(seed),
        stream=int(stream),
        offset=tuple(int(o) for o in offset),
        low=float(low),
        high=float(high),
    )


def tile_sum(values, tile_shape=None):
    """Sum *values* with a reproducible, partition-invariant operation order.

    ``tile_shape=None`` sums the whole array at once (fastest; the order is
    whatever NumPy's pairwise summation picks for that shape).  With a tile
    shape, the array is cut into a lexicographically ordered grid of tiles
    (edge tiles may be smaller) and each tile is summed independently, the
    per-tile partials being accumulated left to right in plain double adds.

    This is the fixed-order tree sum used for distributed diagnostics: a
    block-decomposed run sums each block interior separately and merges the
    partials in sorted block-coordinate order, which is *exactly* the
    operation sequence of ``tile_sum(whole_interior, block_shape)`` — so a
    single-process evaluation reproduces the distributed one bit for bit.
    """
    a = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    if tile_shape is None:
        return float(np.sum(a))
    tile_shape = tuple(int(t) for t in tile_shape)
    if len(tile_shape) > a.ndim or any(t < 1 for t in tile_shape):
        raise ValueError(
            f"tile shape {tile_shape} invalid for array of shape {a.shape}"
        )
    counts = [
        -(-a.shape[d] // tile_shape[d]) for d in range(len(tile_shape))
    ]
    total = 0.0
    for idx in itertools.product(*(range(c) for c in counts)):
        sl = tuple(
            slice(i * t, (i + 1) * t) for i, t in zip(idx, tile_shape)
        )
        total += float(np.sum(np.ascontiguousarray(a[sl])))
    return total


#: Namespace injected into every generated NumPy kernel.
RUNTIME_NAMESPACE = {
    "np": np,
    "_fast_div": fast_div,
    "_fast_sqrt": fast_sqrt,
    "_fast_rsqrt": fast_rsqrt,
    "_rng_uniform": rng_uniform,
}
