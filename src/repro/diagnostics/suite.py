"""Lowering diagnostic densities into reduction kernels and evaluating them.

All specs of a suite are fused into a single multi-output reduction kernel
(shared field reads and CSE across diagnostics), compiled through the
normal kernel cache.  Evaluation returns *raw interior sums*;
:meth:`DiagnosticsSuite.finalize` applies the ``dV`` / mean scaling once
the global sum and cell count are known — which is what makes the same
code path work for a single block and for a distributed merge.

Reproducibility: raw sums are combined with plain left-to-right double
adds in sorted block-coordinate order (:func:`merge_partials`), and the
single-process path can reproduce that exact operation order via
``tile_shape`` (see :func:`repro.backends.runtime.tile_sum`).  The numpy
backend is the bit-exact reference; the C backend's OpenMP reduction is
deterministic only for a fixed thread count.
"""

from __future__ import annotations

import numpy as np
import sympy as sp

from ..discretization.finite_differences import FiniteDifferenceDiscretization
from ..ir.kernel import KernelConfig, create_kernel
from ..profiling.cache import compile_cached
from ..symbolic.assignment import Assignment, AssignmentCollection
from ..symbolic.coordinates import spacing
from .derive import DiagnosticSpec, model_diagnostics

__all__ = ["DiagnosticsSuite", "merge_partials"]


def merge_partials(
    per_block: dict, n_outputs_hint: tuple[str, ...] | None = None
) -> tuple[dict[str, float], int]:
    """Combine per-block ``(raw_sums, n_cells)`` in sorted-coordinate order.

    The accumulation is a fixed sequence of scalar double additions, so the
    result is independent of how blocks were distributed over ranks — every
    rank merging the same allgathered partials gets bit-identical totals.
    """
    totals: dict[str, float] = (
        {name: 0.0 for name in n_outputs_hint} if n_outputs_hint else {}
    )
    n_total = 0
    for coords in sorted(per_block):
        raw, n_cells = per_block[coords]
        for name, value in raw.items():
            totals[name] = totals.get(name, 0.0) + float(value)
        n_total += int(n_cells)
    return totals, n_total


class DiagnosticsSuite:
    """A set of :class:`DiagnosticSpec` compiled into one reduction kernel."""

    def __init__(
        self,
        specs: list[DiagnosticSpec],
        dim: int,
        dx: float,
        backend: str = "numpy",
        name: str = "diagnostics",
        parameter_values: dict | None = None,
    ):
        if not specs:
            raise ValueError("diagnostics suite needs at least one spec")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate diagnostic names: {names}")
        self.specs = list(specs)
        self.dim = int(dim)
        self.dx = float(dx)
        self.backend = backend

        disc = FiniteDifferenceDiscretization(dim=self.dim, dst_map={})
        mains = []
        for spec in self.specs:
            sym = sp.Symbol(f"red_{spec.name}", real=True)
            mains.append(Assignment(sym, disc(spec.expr)))
        ac = AssignmentCollection(
            mains, name=name, reduction_symbols=[a.lhs.name for a in mains]
        )
        values = dict(parameter_values or {})
        for d in range(self.dim):
            values.setdefault(spacing(d), self.dx)
        self.kernel = create_kernel(
            ac, KernelConfig(parameter_values=values), name=name
        )
        self.compiled = compile_cached(self.kernel, backend)

    @classmethod
    def for_model(
        cls,
        model,
        backend: str = "numpy",
    ) -> "DiagnosticsSuite":
        """Standard suite (free energy, fractions, solute mass, interface)."""
        return cls(
            model_diagnostics(model),
            dim=model.params.dim,
            dx=model.params.dx,
            backend=backend,
            parameter_values=model.compile_time_constants(),
        )

    @property
    def names(self) -> list[str]:
        return [s.name for s in self.specs]

    def partial(
        self,
        arrays: dict[str, np.ndarray],
        ghost_layers: int | None = None,
        block_offset=(0, 0, 0),
        origin=(0.0, 0.0, 0.0),
        tile_shape: tuple[int, ...] | None = None,
        **params,
    ) -> tuple[dict[str, float], int]:
        """Raw interior sums and cell count of one (ghost-layered) block."""
        raw = self.compiled(
            arrays,
            block_offset=block_offset,
            origin=origin,
            ghost_layers=ghost_layers,
            tile_shape=tile_shape,
            **params,
        )
        gl = (
            self.kernel.ghost_layers if ghost_layers is None else int(ghost_layers)
        )
        ref = arrays[self.kernel.fields[0].name]
        n_cells = int(
            np.prod([ref.shape[d] - 2 * gl for d in range(self.dim)])
        )
        out = {
            spec.name: float(raw[f"red_{spec.name}"]) for spec in self.specs
        }
        return out, n_cells

    def finalize(
        self, totals: dict[str, float], n_cells: int
    ) -> dict[str, float]:
        """Apply the per-spec scaling to globally merged raw sums."""
        dv = self.dx**self.dim
        out = {}
        for spec in self.specs:
            value = totals[spec.name]
            out[spec.name] = value * dv if spec.scale == "integral" else value / n_cells
        return out

    def evaluate(
        self,
        arrays: dict[str, np.ndarray],
        ghost_layers: int | None = None,
        tile_shape: tuple[int, ...] | None = None,
        **params,
    ) -> dict[str, float]:
        """Single-block convenience: partial sums + finalize in one call."""
        raw, n_cells = self.partial(
            arrays, ghost_layers=ghost_layers, tile_shape=tile_shape, **params
        )
        return self.finalize(raw, n_cells)
