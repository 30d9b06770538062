"""The seven workloads and the inputs generated for them.

Each workload stresses a different layer of the step (see README.md for
the reasons and the numbers behind them); ``BENCHMARK.json`` names, with
one-line reasons, the three the acceptance harness runs.  The solver only
ever sees the arrays :func:`initial_condition` returns — never the seed or
the name.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

#: samples stepped (and discarded) before the output check and the window
WARMUP_SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    model: str                        # "binary" or "p1"
    shape: tuple[int, ...]            # global interior cells
    steps_per_sample: int
    block: tuple[int, ...] | None = None  # forest block → DistributedSolver
    ranks: int = 0                    # 0: SingleBlockSolver in the worker itself
    overlap: bool = False
    observed: bool = False
    quick_shape: tuple[int, ...] = ()
    quick_block: tuple[int, ...] | None = None

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def check_steps(self) -> int:
        """Steps from the initial condition to the reference comparison.

        The set-up step plus the warm-up samples: the comparison runs on
        the state the measured window starts from, at a step count that
        does not depend on how fast the host is.
        """
        return 1 + WARMUP_SAMPLES * self.steps_per_sample

    def sized(self, quick: bool) -> "Workload":
        if not quick:
            return self
        return replace(self, shape=self.quick_shape, block=self.quick_block)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("binary2d_block", "binary", (1024, 1024), 1,
                 quick_shape=(128, 128)),
        Workload("p1_3d_block", "p1", (40, 40, 40), 1,
                 quick_shape=(12, 12, 12)),
        Workload("tiny2d_block", "binary", (64, 64), 50,
                 quick_shape=(32, 32)),
        Workload("binary2d_ranks2", "binary", (1024, 1024), 2,
                 block=(512, 512), ranks=2,
                 quick_shape=(128, 128), quick_block=(64, 64)),
        Workload("blocks3d_ranks2", "binary", (64, 64, 64), 2,
                 block=(32, 32, 32), ranks=2,
                 quick_shape=(16, 16, 16), quick_block=(8, 8, 8)),
        Workload("blocks3d_ranks2_overlap", "binary", (64, 64, 64), 2,
                 block=(32, 32, 32), ranks=2, overlap=True,
                 quick_shape=(16, 16, 16), quick_block=(8, 8, 8)),
        Workload("binary2d_observed", "binary", (256, 256), 50,
                 observed=True, quick_shape=(64, 64)),
    )
}

#: the overlap/sync sibling whose step time gives ``parallel.overlap_gain``
SIBLING = {
    "blocks3d_ranks2": "blocks3d_ranks2_overlap",
    "blocks3d_ranks2_overlap": "blocks3d_ranks2",
}



def not_applicable(w: Workload) -> set[str]:
    """Per-layer metrics *w* has nothing to measure for.

    ``BENCHMARK.json`` declares one list of per-layer metrics for all
    workloads and the harness wants a number for each; these are the ones
    whose 0 means "this workload does not run that layer", not a measurement.
    """
    names = set()
    if w.ranks:
        names.add("pfm.loop_self_ms")
    else:
        names |= {
            "parallel.exchange_ms.phi_dst", "parallel.exchange_ms.mu_dst",
            "parallel.exchange_pack_ms", "parallel.exchange_deliver_ms",
            "parallel.exchange_unpack_ms", "parallel.comm_wait_ms",
            "parallel.msgs_per_step", "parallel.bytes_per_step",
            "parallel.rank_speedup", "parallel.imbalance", "parallel.loop_self_ms",
        }
    if w.name not in SIBLING:
        names.add("parallel.overlap_gain")
    if not w.observed:
        names |= {
            "observability.tax_ratio", "observability.rundir_bytes",
            "observability.diagnostics_ms",
        }
    return names


def model_parameters(workload: Workload):
    from repro.pfm import make_p1, make_two_phase_binary

    if workload.model == "p1":
        return make_p1(dim=workload.dim)
    return make_two_phase_binary(dim=workload.dim)


def initial_condition(params, shape: tuple[int, ...], seed: int) -> np.ndarray:
    """A solid slab in melt, periodic-clean, with a one-mode front ripple.

    The seed moves the slab by up to ±4 cells along axis 0 and sets the
    phase of a 2-cell ripple along axis 1; nothing else depends on it.
    With more than one solid phase the slab is cut into lamellae along
    axis 1 (twice the solid count, so the pattern wraps).
    """
    from repro.pfm import interface_profile, normalize_phases

    rng = np.random.default_rng(seed)
    offset = rng.uniform(-4.0, 4.0)
    theta = rng.uniform(0.0, 2.0 * np.pi)

    n0, n1 = shape[0], shape[1]
    x = np.arange(n0) + 0.5
    y = np.arange(n1) + 0.5
    centre = n0 / 2 + offset + 2.0 * np.cos(2.0 * np.pi * y / n1 + theta)
    distance = np.abs(x[:, None] - centre[None, :]) - n0 / 4
    solid = interface_profile(distance, params.epsilon)

    liquid = params.liquid_phase
    solids = [a for a in range(params.n_phases) if a != liquid]
    stripe = np.floor(y / (n1 / (2 * len(solids)))).astype(int) % len(solids)
    plane = np.zeros((n0, n1, params.n_phases))
    for i, phase in enumerate(solids):
        plane[..., phase] = solid * (stripe == i)[None, :]
    plane[..., liquid] = 1.0 - solid
    plane = normalize_phases(plane)
    if len(shape) == 2:
        return plane
    return np.ascontiguousarray(
        np.broadcast_to(plane[:, :, None, :], shape + (params.n_phases,))
    )
