"""Shared fixtures for the benchmark harness.

Kernel construction for the P1/P2 configurations is expensive (the 3D
anisotropic variational derivatives take ~30 s), so all benches share
session-scoped kernel sets.  Every bench writes its regenerated table to
``benchmarks/results/<experiment>.txt`` and also emits it to stdout, so
``pytest benchmarks/ --benchmark-only`` leaves the full set of
paper-comparison tables on disk.  Headline numbers go into
``benchmark.extra_info``, which ``--benchmark-json`` stores next to the
timing statistics.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def emit_table(experiment: str, lines: list[str]) -> str:
    """Write a result table to disk and stdout; return the text."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines) + "\n"
    (RESULTS_DIR / f"{experiment}.txt").write_text(text)
    sys.stdout.write(f"\n{'=' * 72}\n{text}{'=' * 72}\n")
    return text


@pytest.fixture(scope="session")
def p1_model():
    from repro.pfm import GrandPotentialModel, make_p1

    return GrandPotentialModel(make_p1(dim=3))


@pytest.fixture(scope="session")
def p2_model():
    from repro.pfm import GrandPotentialModel, make_p2

    return GrandPotentialModel(make_p2(dim=3))


@pytest.fixture(scope="session")
def p1_full(p1_model):
    return p1_model.create_kernels(variant_phi="full", variant_mu="full")


@pytest.fixture(scope="session")
def p1_split(p1_model):
    return p1_model.create_kernels(variant_phi="split", variant_mu="split")


@pytest.fixture(scope="session")
def p2_full(p2_model):
    return p2_model.create_kernels(variant_phi="full", variant_mu="full")


@pytest.fixture(scope="session")
def p2_split(p2_model):
    return p2_model.create_kernels(variant_phi="split", variant_mu="split")
