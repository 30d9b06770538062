"""Codegen-derived in-situ physics diagnostics.

The same symbolic functional that generates the PDEs also defines the
scalar observables of a run: total free energy, phase volume fractions,
solute mass, interface area.  This package derives those integrands
symbolically (:mod:`~repro.diagnostics.derive`), lowers them through the
standard discretization/IR pipeline into *reduction kernels*
(:mod:`~repro.diagnostics.suite`) and streams the per-step values into
CSV and trace counter tracks
(:mod:`~repro.diagnostics.series`).
"""

from .derive import (
    DiagnosticSpec,
    functional_diagnostics,
    invariant_names,
    model_diagnostics,
)
from .series import DiagnosticsSeries
from .suite import DiagnosticsSuite, merge_partials

__all__ = [
    "DiagnosticSpec",
    "DiagnosticsSeries",
    "DiagnosticsSuite",
    "functional_diagnostics",
    "invariant_names",
    "merge_partials",
    "model_diagnostics",
]
