"""Evolutionary tuning of GPU transformation sequences (paper §3.5).

"The effects of multiple transformations do not add up linearly but can
decrease or amplify each other.  To deal with this non-convex,
multi-dimensional, non-smooth fitness landscape, we use an evolutionary
optimization algorithm to tune a sequence of transformations with their
parameters for each kernel."

Individuals encode (rematerialization on/off + thresholds, scheduling
on/off + beam width, fence interval); fitness is the modeled kernel runtime
on the target GPU.  Deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from ..ir.kernel import Kernel
from .fences import insert_fences
from .model import GPUKernelModel, GPUSpec, TESLA_P100, estimate_registers
from .rematerialize import rematerialize
from .scheduling import schedule_for_registers

__all__ = ["TransformationSequence", "apply_sequence", "evolutionary_tune", "TunedKernel"]


@dataclass(frozen=True)
class TransformationSequence:
    """One individual: a parameterized sequence of GPU transformations."""

    use_remat: bool = False
    remat_max_cost: float = 2.0
    remat_max_uses: int = 4
    use_scheduling: bool = False
    beam_width: int = 8
    fence_interval: int | None = None

    def describe(self) -> str:
        parts = []
        if self.use_remat:
            parts.append(f"dupl(cost≤{self.remat_max_cost:g},uses≤{self.remat_max_uses})")
        if self.use_scheduling:
            parts.append(f"sched(beam={self.beam_width})")
        if self.fence_interval:
            parts.append(f"fence(every {self.fence_interval})")
        return " + ".join(parts) if parts else "none"


@dataclass
class TunedKernel:
    """Result of applying a transformation sequence to a kernel body."""

    sequence: TransformationSequence
    registers: object
    model: GPUKernelModel
    time_per_lup_ns: float


def apply_sequence(
    kernel: Kernel,
    seq: TransformationSequence,
    spec: GPUSpec = TESLA_P100,
) -> TunedKernel:
    """Run the transformation sequence and evaluate the GPU model.

    A contracted split kernel is refused, as the CUDA emitter refuses it:
    the GPU runs its two stages, each of which is rated on its own.
    """
    if kernel.flux_field is not None:
        raise ValueError(
            f"the GPU model does not rate contracted split kernels ({kernel.name!r}): "
            "rate its two stages (Kernel.stages), the paper's flux and update kernels"
        )
    order = list(kernel.ac.all_assignments)
    if seq.use_remat:
        order = rematerialize(
            order, max_cost=seq.remat_max_cost, max_uses=seq.remat_max_uses
        )
    if seq.use_scheduling:
        order = schedule_for_registers(order, beam_width=seq.beam_width).order
    fences = insert_fences(order, seq.fence_interval)
    regs = estimate_registers(order, fences, spec, scheduled=seq.use_scheduling)
    model = GPUKernelModel(kernel=kernel, registers=regs, spec=spec)
    return TunedKernel(
        sequence=seq,
        registers=regs,
        model=model,
        time_per_lup_ns=model.time_per_lup_ns(),
    )


def _mutate(seq: TransformationSequence, rng: random.Random) -> TransformationSequence:
    choice = rng.randrange(6)
    if choice == 0:
        return replace(seq, use_remat=not seq.use_remat)
    if choice == 1:
        return replace(seq, remat_max_cost=rng.choice([1.0, 2.0, 3.0, 4.0]))
    if choice == 2:
        return replace(seq, remat_max_uses=rng.choice([2, 3, 4, 6, 8]))
    if choice == 3:
        return replace(seq, use_scheduling=not seq.use_scheduling)
    if choice == 4:
        return replace(seq, beam_width=rng.choice([1, 2, 4, 8, 16, 20]))
    return replace(seq, fence_interval=rng.choice([None, 16, 32, 64, 128]))


def _crossover(
    a: TransformationSequence, b: TransformationSequence, rng: random.Random
) -> TransformationSequence:
    pick = lambda x, y: x if rng.random() < 0.5 else y
    return TransformationSequence(
        use_remat=pick(a.use_remat, b.use_remat),
        remat_max_cost=pick(a.remat_max_cost, b.remat_max_cost),
        remat_max_uses=pick(a.remat_max_uses, b.remat_max_uses),
        use_scheduling=pick(a.use_scheduling, b.use_scheduling),
        beam_width=pick(a.beam_width, b.beam_width),
        fence_interval=pick(a.fence_interval, b.fence_interval),
    )


def evolutionary_tune(
    kernel: Kernel,
    spec: GPUSpec = TESLA_P100,
    population: int = 10,
    generations: int = 8,
    seed: int = 42,
) -> TunedKernel:
    """Evolve the best transformation sequence for *kernel* on *spec*.

    The search can discover "sequences that would have been elusive to
    reasoning and manual experiments"; with a fixed seed the result is
    reproducible.
    """
    rng = random.Random(seed)
    # seed with the paper's hand-picked sequences, then mutate outward
    pop = [
        TransformationSequence(),
        TransformationSequence(use_scheduling=True),
        TransformationSequence(
            use_remat=True, use_scheduling=True, fence_interval=32
        ),
    ][: max(1, population)]
    while len(pop) < population:
        pop.append(_mutate(rng.choice(pop), rng))

    cache: dict[TransformationSequence, TunedKernel] = {}

    def fitness(seq: TransformationSequence) -> TunedKernel:
        if seq not in cache:
            cache[seq] = apply_sequence(kernel, seq, spec)
        return cache[seq]

    for _gen in range(generations):
        ranked = sorted(pop, key=lambda s: fitness(s).time_per_lup_ns)
        elite = ranked[: max(2, population // 3)]
        children = [
            _mutate(_crossover(rng.choice(elite), rng.choice(elite), rng), rng)
            for _ in range(population - len(elite))
        ]
        pop = elite + children

    best = min(cache.values(), key=lambda t: t.time_per_lup_ns)
    return best
