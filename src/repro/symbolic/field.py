"""Symbolic fields and relative-indexed field accesses.

A :class:`Field` represents a multidimensional array distributed over the
simulation domain.  Accessing a field produces a :class:`FieldAccess` — a
:class:`sympy.Symbol` subclass carrying the field, a tuple of *relative*
spatial offsets (integers, or half-integers for staggered positions) and an
optional index into the field's inner (non-spatial) dimensions.

Because accesses are plain sympy symbols, the whole sympy toolbox
(differentiation, substitution, CSE, printing) works on stencil expressions
unchanged.  Example::

    >>> phi = Field("phi", spatial_dimensions=2, index_shape=(3,))
    >>> acc = phi[1, 0](2)          # east neighbour, phase index 2
    >>> acc.offsets, acc.index
    ((1, 0), (2,))
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np
import sympy as sp

__all__ = ["Field", "FieldAccess", "fields"]

_DIRECTION_NAMES_3D = {
    (0, 0, 0): "C",
    (1, 0, 0): "E",
    (-1, 0, 0): "W",
    (0, 1, 0): "N",
    (0, -1, 0): "S",
    (0, 0, 1): "T",
    (0, 0, -1): "B",
}


def _offset_repr(off) -> str:
    off = sp.nsimplify(off)
    if off == sp.Rational(1, 2):
        return "h"
    if off == sp.Rational(-1, 2):
        return "mh"
    i = int(off)
    return str(i) if i >= 0 else f"m{-i}"


class Field:
    """A named, typed array over the structured grid.

    Parameters
    ----------
    name:
        Unique field name.  Field identity in sympy expressions is determined
        by name, so two fields of the same name must describe the same array.
    spatial_dimensions:
        Number of spatial axes (2 or 3).
    index_shape:
        Shape of the inner dimensions, e.g. ``(4,)`` for a 4-phase vector
        field or ``(2, 3)`` for a matrix-valued field.  Empty for scalars.
    dtype:
        Element type name understood by the backends ("double" or "float").
    staggered:
        Marks flux fields that live on cell faces (used by split kernels).
        The *first* index dimension of a staggered field enumerates the face
        normal direction.
    """

    def __init__(
        self,
        name: str,
        spatial_dimensions: int = 3,
        index_shape: Sequence[int] = (),
        dtype: str = "double",
        staggered: bool = False,
        slot_axes: Sequence[int] | None = None,
    ):
        if spatial_dimensions not in (1, 2, 3):
            raise ValueError("spatial_dimensions must be 1, 2 or 3")
        self.name = name
        self.spatial_dimensions = int(spatial_dimensions)
        self.index_shape = tuple(int(s) for s in index_shape)
        self.dtype = dtype
        self.staggered = bool(staggered)
        #: for staggered (flux) fields: face-normal axis of each slot of the
        #: first index dimension — drives the extended write regions
        self.slot_axes = tuple(slot_axes) if slot_axes is not None else None
        if self.slot_axes is not None and len(self.slot_axes) != (
            self.index_shape[0] if self.index_shape else 0
        ):
            raise ValueError("slot_axes length must match first index extent")

    # -- accessing ---------------------------------------------------------

    @property
    def index_dimensions(self) -> int:
        return len(self.index_shape)

    def center(self, *index) -> "FieldAccess":
        """Access the field at the current cell."""
        return FieldAccess(self, (0,) * self.spatial_dimensions, index)

    def __call__(self, *index) -> "FieldAccess":
        return self.center(*index)

    def __getitem__(self, offsets) -> "_OffsetView":
        if not isinstance(offsets, tuple):
            offsets = (offsets,)
        if len(offsets) != self.spatial_dimensions:
            raise ValueError(
                f"field {self.name} has {self.spatial_dimensions} spatial "
                f"dimensions, got {len(offsets)} offsets"
            )
        return _OffsetView(self, offsets)

    def neighbor(self, axis: int, distance: int = 1, index=()) -> "FieldAccess":
        """Access the neighbour ``distance`` cells along ``axis``."""
        off = [0] * self.spatial_dimensions
        off[axis] = distance
        return FieldAccess(self, tuple(off), index)

    def accesses(self) -> Iterable["FieldAccess"]:
        """Iterate over all center accesses (every inner index)."""
        if not self.index_shape:
            yield self.center()
            return
        for idx in itertools.product(*(range(s) for s in self.index_shape)):
            yield self.center(*idx)

    # -- memory layout ------------------------------------------------------

    def strides(self, spatial_shape: Sequence) -> tuple:
        """Element strides of the array of this field, per *logical* axis.

        The one layout rule of the package — structure of arrays, the
        paper's "fzyx": every component is one contiguous block holding the
        (ghosted) *spatial_shape* in C order, and the blocks follow each
        other in C order of the index shape.  Arrays are handed around as
        views of the logical shape ``spatial_shape + index_shape``, so the
        result lists the spatial strides first (the last one is 1) and the
        index strides behind them (the last one is the cell count).

        The extents may be integers (allocation, bind-time validation) or
        symbols (the C and CUDA emitters print the products).
        """
        strides, step = [], 1
        for extent in reversed((*self.index_shape, *spatial_shape)):
            strides.append(step)
            step = step * extent
        strides.reverse()
        n = self.index_dimensions
        return (*strides[n:], *strides[:n])

    def allocate(self, spatial_shape: Sequence[int], fill: float = 0.0) -> np.ndarray:
        """A ``float64`` array laid out by :meth:`strides`, as its logical view.

        Indexing, slicing and assignment work on ``spatial_shape +
        index_shape`` as on any NumPy array; only a compiled kernel, which
        computes addresses itself, depends on the storage order underneath.
        """
        storage = np.full((*self.index_shape, *spatial_shape), fill, dtype=np.float64)
        n = self.index_dimensions
        return np.moveaxis(storage, range(n), range(-n, 0))

    # -- misc ---------------------------------------------------------------

    def signature(self) -> str:
        """Deterministic short tag of the field's identity-defining data."""
        import zlib

        payload = repr(
            (self.spatial_dimensions, self.index_shape, self.dtype, self.staggered)
        ).encode()
        return format(zlib.crc32(payload) & 0xFFFF, "04x")

    def __repr__(self):
        idx = f", index_shape={self.index_shape}" if self.index_shape else ""
        return f"Field({self.name!r}, {self.spatial_dimensions}D{idx})"

    def __eq__(self, other):
        return isinstance(other, Field) and (
            self.name,
            self.spatial_dimensions,
            self.index_shape,
            self.dtype,
            self.staggered,
        ) == (
            other.name,
            other.spatial_dimensions,
            other.index_shape,
            other.dtype,
            other.staggered,
        )

    def __hash__(self):
        return hash((self.name, self.spatial_dimensions, self.index_shape))


class _OffsetView:
    """Intermediate of ``field[dx, dy, dz]`` awaiting an inner index call."""

    __slots__ = ("field", "offsets")

    def __init__(self, field: Field, offsets):
        self.field = field
        self.offsets = offsets

    def __call__(self, *index) -> "FieldAccess":
        return FieldAccess(self.field, self.offsets, index)

    # allow fields without index dims to be used directly as expression
    def _as_access(self) -> "FieldAccess":
        return FieldAccess(self.field, self.offsets, ())

    def _sympy_(self):
        return self._as_access()

    def __add__(self, other):
        return self._as_access() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self._as_access() - other

    def __rsub__(self, other):
        return other - self._as_access()

    def __mul__(self, other):
        return self._as_access() * other

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._as_access() / other

    def __rtruediv__(self, other):
        return other / self._as_access()

    def __pow__(self, other):
        return self._as_access() ** other

    def __neg__(self):
        return -self._as_access()


class FieldAccess(sp.Symbol):
    """A relative access into a :class:`Field` — a sympy symbol with payload.

    The symbol name encodes field, offsets and index, so identical accesses
    unify under sympy's symbol cache and distinct accesses stay distinct.
    """

    def __new__(cls, field: Field, offsets, index=()):
        offsets = tuple(sp.nsimplify(o) for o in offsets)
        index = tuple(int(i) for i in index)
        if len(index) != field.index_dimensions:
            raise ValueError(
                f"field {field.name} expects {field.index_dimensions} inner "
                f"indices, got {len(index)}"
            )
        for i, s in zip(index, field.index_shape):
            if not 0 <= i < s:
                raise IndexError(f"index {index} out of bounds for {field}")
        int_offsets = tuple(int(o) for o in offsets) if all(
            o == int(o) for o in offsets
        ) else None
        if int_offsets is not None and len(offsets) == 3 and int_offsets in _DIRECTION_NAMES_3D:
            pos = _DIRECTION_NAMES_3D[int_offsets]
        else:
            pos = "_".join(_offset_repr(o) for o in offsets)
        # the field signature in the name keeps two *different* fields that
        # happen to share a name (e.g. the 4-phase P1 and 3-phase P2 "phi")
        # from unifying in sympy's symbol cache
        name = f"{field.name}_{field.signature()}__{pos}"
        if index:
            name += "__" + "_".join(str(i) for i in index)
        obj = super().__new__(cls, name, real=True)
        cached_field = getattr(obj, "_field", None)
        if cached_field is not None and cached_field != field:
            raise RuntimeError(
                f"field access symbol cache collision for {name!r}"
            )  # pragma: no cover - signature should prevent this
        obj._field = field
        obj._offsets = offsets
        obj._index = index
        return obj

    @property
    def field(self) -> Field:
        return self._field

    @property
    def offsets(self) -> tuple:
        return tuple(self._offsets)

    @property
    def index(self) -> tuple:
        return tuple(self._index)

    @property
    def is_staggered_position(self) -> bool:
        """True when any offset is a half-integer (face position)."""
        return any(o != int(o) for o in self._offsets)

    def shifted(self, axis: int, distance) -> "FieldAccess":
        """Return the access displaced by ``distance`` cells along ``axis``."""
        off = list(self._offsets)
        off[axis] = off[axis] + sp.nsimplify(distance)
        return FieldAccess(self._field, tuple(off), self._index)

    def at_offset(self, offsets) -> "FieldAccess":
        """Return the same (field, index) access at absolute relative *offsets*."""
        return FieldAccess(self._field, tuple(offsets), self._index)

    def with_index(self, *index) -> "FieldAccess":
        return FieldAccess(self._field, self._offsets, index)

    @property
    def max_abs_offset(self) -> int:
        return max((abs(int(sp.ceiling(abs(o)))) for o in self._offsets), default=0)

    def __getnewargs_ex__(self):
        return (self._field, self._offsets, self._index), {}


def fields(spec: str, **kwargs) -> tuple:
    """Create several fields from a compact description string.

    The grammar follows the paper's DSL examples::

        phi, mu = fields("phi(4), mu(2): double[3D]")
        f = fields("f: double[2D]")

    ``name(n)`` gives an inner index dimension of extent *n*; the part after
    ``:`` fixes dtype and spatial dimensionality for all fields in the spec.
    """
    dtype = "double"
    dims = 3
    if ":" in spec:
        spec, rhs = spec.split(":")
        rhs = rhs.strip()
        if "[" in rhs:
            dtype, dim_part = rhs.split("[")
            dtype = dtype.strip() or "double"
            dims = int(dim_part.rstrip("]").rstrip("Dd"))
        elif rhs:
            dtype = rhs
    result = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "(" in part:
            name, idx_part = part.split("(")
            shape = tuple(
                int(v) for v in idx_part.rstrip(")").split(";") if v
            ) or (int(idx_part.rstrip(")")),)
            result.append(
                Field(name.strip(), spatial_dimensions=dims, index_shape=shape,
                      dtype=dtype, **kwargs)
            )
        else:
            result.append(
                Field(part, spatial_dimensions=dims, dtype=dtype, **kwargs)
            )
    return tuple(result) if len(result) != 1 else result[0]
