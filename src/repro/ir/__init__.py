"""Intermediate representation: typing, loops, hoisting, kernel objects."""

from .approximations import (
    APPROXIMABLE,
    fast_division,
    fast_rsqrt,
    fast_sqrt,
    insert_approximations,
)
from .kernel import Kernel, KernelConfig, create_kernel, split_interior_frontier
from .loops import (
    AxisInterval,
    IterationSpace,
    analytic_axes,
    choose_loop_order,
    classify_hoist_levels,
    frontier_spaces,
    interior_space,
)
from .types import DOUBLE, FLOAT, INT64, BasicType, infer_types, kernel_parameters

__all__ = [
    "APPROXIMABLE",
    "fast_division",
    "fast_rsqrt",
    "fast_sqrt",
    "insert_approximations",
    "Kernel",
    "KernelConfig",
    "create_kernel",
    "split_interior_frontier",
    "AxisInterval",
    "IterationSpace",
    "interior_space",
    "frontier_spaces",
    "analytic_axes",
    "choose_loop_order",
    "classify_hoist_levels",
    "BasicType",
    "DOUBLE",
    "FLOAT",
    "INT64",
    "infer_types",
    "kernel_parameters",
]
