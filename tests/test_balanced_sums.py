"""The shared printer rule for long sums (``symbolic.ordering.BalancedSums``).

A sum of four or more terms prints as a pairwise tree over its canonical
term order, in the C and in the NumPy printer alike; two or three terms
still add left to right.  The tree is what the compiler must keep (no
reassociation), so the kernels' longest dependent chain of additions is
its depth, and both backends round the same way.
"""

import ast
import re
from functools import reduce
from operator import add

import numpy as np
import pytest
import sympy as sp

from repro.backends import compile_numpy_kernel, create_arrays
from repro.backends.c_backend import c_compiler_available, compile_c_kernel, generate_c_source
from repro.backends.numpy_backend import generate_numpy_source
from repro.ir import create_kernel
from repro.symbolic import Assignment, AssignmentCollection, Field
from repro.symbolic.ordering import ordered_terms


def _add_chain(expr: str) -> int:
    """The longest path of directly nested ``+``/``-`` in a C or Python expression."""

    def chain(node) -> int:
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            return 1 + max(chain(node.left), chain(node.right))
        return 0

    return max(chain(node) for node in ast.walk(ast.parse(expr, mode="eval")))


def _sum_kernel(n: int):
    """``g = a0 + … + a<n-1>`` over kernel parameters."""
    g = Field("g", 2)
    terms = sp.symbols(f"a0:{n}", real=True)
    collection = AssignmentCollection([Assignment(g.center(), sum(terms))], name=f"sum{n}")
    return create_kernel(collection)


def _rhs_of_g(kernel) -> tuple[str, str]:
    """The printed right-hand side of the store to ``g``: C (``p_`` names dropped), NumPy."""
    (c,) = [line for line in generate_c_source(kernel).splitlines() if "f_g[" in line]
    (py,) = [
        line for line in generate_numpy_source(kernel).splitlines() if "__arrays['g'][" in line
    ]
    return re.sub(r"\bp_", "", c.split(" = ", 1)[1].rstrip(";")), py.split(" = ", 1)[1]


def _tree(values):
    """The rule, on values: halves, the larger one left, down to left-to-right chains."""
    if len(values) < 4:
        return reduce(add, values)
    half = (len(values) + 1) // 2
    return _tree(values[:half]) + _tree(values[half:])


class TestPrintedTree:
    def test_nine_terms_print_one_tree_of_depth_four(self):
        c, py = _rhs_of_g(_sum_kernel(9))
        assert c == py == "a0 + a1 + a2 + (a3 + a4) + (a5 + a6 + (a7 + a8))"
        assert _add_chain(c) == 4

    def test_three_terms_add_left_to_right(self):
        """``(a0 + a1) + a2``, as ever: 1 + 1e16 rounds to 1e16 first, so the sum is 0."""
        kernel = _sum_kernel(3)
        c, py = _rhs_of_g(kernel)
        assert c == py == "a0 + a1 + a2"
        arrays = create_arrays(kernel.fields, (3, 4), 1)
        compile_numpy_kernel(kernel)(arrays, a0=1.0, a1=1e16, a2=-1e16)
        assert (1.0 + 1e16) - 1e16 == 0.0 != 1.0 + (1e16 - 1e16)
        assert np.all(arrays["g"][1:-1, 1:-1] == 0.0)

    def test_the_binary_2d_phi_update_adds_in_chains_of_at_most_five(self):
        """Its 18-term sum was a chain of 17 dependent adds; as a tree it is 5 deep."""
        from repro.pfm import GrandPotentialModel, make_two_phase_binary

        (phi,) = GrandPotentialModel(make_two_phase_binary(dim=2)).create_kernels().phi_kernels
        rhs = [
            m.group(1)
            for m in re.finditer(r"^\s*(?:const double \w+|f_\w+\[.*?\]) = (.*);$",
                                 generate_c_source(phi), re.M)
        ]
        assert len(rhs) > 20
        assert max(map(_add_chain, rhs)) == 5


def _cancelling_kernel():
    """``g`` = the sum of 16 components of ``f``, and inputs from ±1e8 down to 1e-8."""
    f, g = Field("f", 2, index_shape=(16,)), Field("g", 2)
    expr = sum(f.center(k) for k in range(16))
    kernel = create_kernel(AssignmentCollection([Assignment(g.center(), expr)], name="cancel16"))
    rng = np.random.default_rng(49)
    arrays = create_arrays(kernel.fields, (11, 9), 1)
    for k in range(16):
        scale = (-1.0) ** k * 10.0 ** (8 - 16 * k / 15)
        arrays["f"][..., k] = scale * (1 + rng.random(arrays["g"].shape))
    order = [int(str(t.index[0])) for t in ordered_terms(expr)]
    return kernel, arrays, order


class TestCancellingSum:
    """Here the grouping decides the last bits of a sum; both backends take the tree."""

    def test_numpy_evaluates_the_tree(self):
        kernel, arrays, order = _cancelling_kernel()
        compile_numpy_kernel(kernel)(arrays)
        terms = [arrays["f"][1:-1, 1:-1, k] for k in order]
        got = arrays["g"][1:-1, 1:-1]
        assert np.array_equal(got.view(np.uint64), _tree(terms).view(np.uint64))
        assert not np.array_equal(got, reduce(add, terms))  # the grouping shows

    @pytest.mark.skipif(not c_compiler_available(), reason="no C compiler available")
    def test_c_equals_numpy_bitwise(self):
        kernel, a_np, _ = _cancelling_kernel()
        a_c = {name: a.copy(order="K") for name, a in a_np.items()}
        compile_numpy_kernel(kernel)(a_np)
        compile_c_kernel(kernel)(a_c)
        assert np.array_equal(a_c["g"].view(np.uint64), a_np["g"].view(np.uint64))
