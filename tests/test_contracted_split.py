"""The contracted split kernel: each staggered flux computed once, inside one kernel.

On the CPU a split system lowers to one kernel named after it
(:func:`repro.ir.kernel.contract`): per plane of its outermost loop it runs
the flux stage into buffers (per-thread planes in C, per-slab arrays in
NumPy), then the update that reads them.  Its oracle is the two-sweep pair
it replaced — a flux sweep writing a staggered field, an update sweep
reading it.  The SHA-256 digests below are that pair's results on fixed
inputs (P1 φ's re-taken when the φ rows came to read one shared Lagrange
multiplier).  The contracted kernel must reproduce them bitwise, and so
must its two stages (:attr:`repro.ir.kernel.Kernel.stages`, the kernels
the CUDA emitter and the GPU model take) run one after the other through
a staggered field: in C and in NumPy, at one and two ghost layers.
The rest checks what the buffers must not change: the restricted units of
the overlapped schedule, two simulated ranks, two threads, and memory
safety under AddressSanitizer and UBSan.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.backends.c_backend import c_compiler_available, generate_c_source
from repro.backends.numpy_backend import create_arrays
from repro.ir import split_interior_frontier
from repro.pfm import GrandPotentialModel, make_p1, make_two_phase_binary
from repro.profiling import compile_cached, kernel_fingerprint

needs_cc = pytest.mark.skipif(not c_compiler_available(), reason="no C compiler available")

#: label -> (parameters, interior shape of the oracle inputs)
SETS = {
    "binary2d": (lambda: make_two_phase_binary(dim=2), (13, 10)),
    "binary3d": (lambda: make_two_phase_binary(dim=3), (7, 6, 5)),
    "p1": (lambda: make_p1(dim=3), (6, 5, 7)),
}

#: (set, system) -> SHA-256 of the interior of ``<system>_dst`` after the
#: two-sweep split pair ran on :func:`_inputs`, C and NumPy alike
TWO_SWEEP = {
    ("binary2d", "phi"): "7633daa9f64768c563b796824931bcfdc816157512741d8b8de7d6236ebdd24e",
    ("binary2d", "mu"): "0e7a2f3f0de9b46b40470929f1bb001726c99622867c592c4f4c34dce5017627",
    ("binary3d", "phi"): "fc191b92b559dcb1bfd848480d2e3c71043d7ddb44cc69a1fd88f080cd18eb3e",
    ("binary3d", "mu"): "e2807c359b79cab9e1a6942d44ea3279911a56795f82d83067c24788e576af9a",
    ("p1", "phi"): "cdffc27225624810d17bd70fc61899103e08e6dcbeecbc01ca51f7125fa13c1b",
    ("p1", "mu"): "06fa2455ad6bc61b103ab11e57638ba592cdb9facaec05c75f5c2090235fe7d8",
}

#: what every kernel call of this module passes
_CALL = dict(t=0.25, time_step=3, seed=1)


def _inputs(fields, shape, gl) -> dict:
    """Fixed phase fractions (positive, summing to one) and chemical potentials.

    Drawn at two ghost layers; at one, the inner frame of the same values,
    so the stencils read the same numbers at either width.
    """
    rng = np.random.default_rng(2019)
    wide = create_arrays(fields, shape, 2)
    for name in sorted(wide):
        a = wide[name]
        if name.startswith("phi"):
            v = rng.random(a.shape) + 0.05
            a[...] = v / v.sum(axis=-1, keepdims=True)
        else:
            a[...] = 0.1 * rng.standard_normal(a.shape)
    if gl == 2:
        return wide
    out = create_arrays(fields, shape, gl)
    cut = (slice(2 - gl, -(2 - gl)),) * len(shape)
    for name, a in out.items():
        a[...] = wide[name][cut]
    return out


def _interior(a: np.ndarray, gl: int) -> np.ndarray:
    return a[(slice(gl, -gl),) * (a.ndim - 1)]


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def split_sets():
    return {
        label: GrandPotentialModel(make()).create_kernels(
            variant_phi="split", variant_mu="split"
        )
        for label, (make, _) in SETS.items()
    }


@pytest.fixture(scope="module")
def p1_default():
    return GrandPotentialModel(make_p1(dim=3)).create_kernels()


#: (set, system) -> pre-CSE flux FLOPs per buffered face value, and the form
#: the rule takes for it against ``SPLIT_FLOPS_PER_VALUE``
RULE = {
    ("binary2d", "phi"): (144.0, "full"),
    ("binary2d", "mu"): (25.0, "full"),
    ("binary3d", "phi"): (144.0, "full"),
    ("binary3d", "mu"): (25.0, "full"),
    ("p1", "phi"): (434.0, "split"),
    ("p1", "mu"): (9778 / 6, "split"),
}


class TestForms:
    @pytest.mark.parametrize("label, system", sorted(RULE))
    def test_the_rule_reads_the_flux_work_per_buffered_value(self, label, system):
        """The rule's input and form per system: only P1's fluxes pay for their buffers."""
        from repro.discretization import discretize_system
        from repro.discretization.staggered import SPLIT_FLOPS_PER_VALUE

        model = GrandPotentialModel(SETS[label][0]())
        equations, dst = (
            (model.phi_system(), model.phi_dst) if system == "phi"
            else (model.mu_system(), model.mu_dst)
        )
        split = discretize_system(equations, dst, model.discretizer(), variant="split")
        per_value, form = RULE[(label, system)]
        assert split.flops_per_buffered_value() == pytest.approx(per_value)
        assert split.buffering_pays() == (form == "split")
        # no set lies within 1.6x of the threshold
        assert not SPLIT_FLOPS_PER_VALUE / 1.6 < per_value < SPLIT_FLOPS_PER_VALUE * 1.6

    def test_the_default_p1_set_is_split_split(self, p1_default, split_sets):
        """Both P1 systems split, each flux field contracted: the explicit split set."""
        assert (p1_default.variant_phi, p1_default.variant_mu) == ("split", "split")
        assert [k.name for k in p1_default.all_kernels] == ["phi", "phi_project", "mu"]
        for system in ("phi", "mu"):
            (kernel,) = getattr(p1_default, f"{system}_kernels")
            assert kernel.flux_field is not None and kernel.flux_field.name == f"{system}_flux"
        assert not {"phi_flux", "mu_flux"} & {f.name for f in p1_default.fields}
        assert [kernel_fingerprint(k) for k in p1_default.all_kernels] == [
            kernel_fingerprint(k) for k in split_sets["p1"].all_kernels
        ]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_binary_sets_stay_full(self, dim):
        """The rule picks full for both systems: the explicit full set, kernel for kernel."""
        model = GrandPotentialModel(make_two_phase_binary(dim=dim))
        chosen = model.create_kernels()
        full = model.create_kernels(variant_phi="full", variant_mu="full")
        assert (chosen.variant_phi, chosen.variant_mu) == ("full", "full")
        assert [kernel_fingerprint(k) for k in chosen.all_kernels] == [
            kernel_fingerprint(k) for k in full.all_kernels
        ]

    def test_cuda_emits_both_stages_and_refuses_the_contracted_kernel(self, split_sets):
        from repro.backends.cuda_backend import generate_cuda_source

        (mu,) = split_sets["binary2d"].mu_kernels
        for stage in mu.stages:
            assert f"void {stage.c_name}(" in generate_cuda_source(stage).source
        with pytest.raises(ValueError, match=r"contracted split kernels.*Kernel\.stages"):
            generate_cuda_source(mu)

    def test_the_gpu_model_rates_the_stages_and_refuses_the_contracted_kernel(
        self, split_sets
    ):
        """A contracted kernel gets no GPU rate of its own; the report rates its stages."""
        from repro.gpu import TransformationSequence, apply_sequence
        from repro.perfmodel import performance_report

        (mu,) = split_sets["binary2d"].mu_kernels
        seq = TransformationSequence()
        assert all(apply_sequence(stage, seq).time_per_lup_ns > 0 for stage in mu.stages)
        with pytest.raises(ValueError, match=r"contracted split kernels.*Kernel\.stages"):
            apply_sequence(mu, seq)
        gpu = performance_report(mu, gpu=True).split("GPU (Tesla P100")[1]
        assert [line.split()[0] for line in gpu.splitlines() if "modeled rate" in line] == [
            "mu_flux", "mu_main"
        ]

    def test_stages_are_the_two_sweeps(self, split_sets):
        """``stages`` hands the paper's flux and update kernels to the models."""
        (mu,) = split_sets["p1"].mu_kernels
        flux, update = mu.stages
        assert (flux.name, update.name) == ("mu_flux", "mu_main")
        assert flux.has_staggered_writes and not update.has_staggered_writes
        assert {f.name for f in flux.fields} >= {"mu_flux"}
        ops = [s.operation_count() for s in mu.stages]
        assert mu.operation_count().normalized_flops() == sum(
            o.normalized_flops() for o in ops
        )


class TestTwoSweepOracle:
    @pytest.mark.parametrize("gl", [1, 2])
    @pytest.mark.parametrize("backend", ["c", "numpy"])
    @pytest.mark.parametrize("system", ["phi", "mu"])
    @pytest.mark.parametrize("label", sorted(SETS))
    def test_bitwise_the_two_sweep_result(self, split_sets, label, system, backend, gl):
        if backend == "c" and not c_compiler_available():
            pytest.skip("no C compiler available")
        ks = split_sets[label]
        (kernel,) = ks.phi_kernels if system == "phi" else ks.mu_kernels
        assert kernel.flux_field is not None
        arrays = _inputs(kernel.fields, SETS[label][1], gl)
        compile_cached(kernel, backend)(
            arrays, ghost_layers=gl, block_offset=(3,) * kernel.dim, **_CALL
        )
        got = _digest(_interior(arrays[f"{system}_dst"], gl))
        assert got == TWO_SWEEP[(label, system)]

    @pytest.mark.parametrize("gl", [1, 2])
    @pytest.mark.parametrize("backend", ["c", "numpy"])
    @pytest.mark.parametrize("system", ["phi", "mu"])
    @pytest.mark.parametrize("label", sorted(SETS))
    def test_stages_give_the_digest(self, split_sets, label, system, backend, gl):
        """``<system>_flux`` then ``<system>_main`` through a staggered field."""
        if backend == "c" and not c_compiler_available():
            pytest.skip("no C compiler available")
        ks = split_sets[label]
        (kernel,) = ks.phi_kernels if system == "phi" else ks.mu_kernels
        stages = kernel.stages
        assert [s.name for s in stages] == [f"{system}_flux", f"{system}_main"]
        shape = SETS[label][1]
        arrays = {
            **_inputs(kernel.fields, shape, gl), **create_arrays([kernel.flux_field], shape, gl)
        }
        for stage in stages:
            compile_cached(stage, backend)(
                arrays, ghost_layers=gl, block_offset=(3,) * kernel.dim, **_CALL
            )
        got = _digest(_interior(arrays[f"{system}_dst"], gl))
        assert got == TWO_SWEEP[(label, system)]


def _units_against_whole(kernel, fields, shape, backend):
    """Interior and frontier units run one after another == the whole kernel, bitwise."""
    interior, frontiers = split_interior_frontier(kernel)
    for gl in (kernel.ghost_layers, kernel.ghost_layers + 1):
        whole = _inputs(fields, shape, gl)
        parts = {name: a.copy(order="K") for name, a in whole.items()}
        kw = dict(ghost_layers=gl, block_offset=(2,) * kernel.dim, **_CALL)
        compile_cached(kernel, backend)(whole, **kw)
        for unit in (interior, *frontiers):
            compile_cached(unit, backend)(parts, **kw)
        for name in whole:
            np.testing.assert_array_equal(parts[name], whole[name], err_msg=name)


class TestRestrictedUnits:
    @pytest.mark.parametrize("backend", ["c", "numpy"])
    def test_binary_2d_with_fluctuations(self, backend):
        if backend == "c" and not c_compiler_available():
            pytest.skip("no C compiler available")
        params = make_two_phase_binary(dim=2)
        params.fluctuation_amplitude = 0.02  # Philox counters are global cells
        ks = GrandPotentialModel(params).create_kernels(variant_phi="split", variant_mu="split")
        for kernel in ks.phi_kernels + ks.mu_kernels:
            _units_against_whole(kernel, ks.fields, (10, 7), backend)

    @pytest.mark.parametrize("backend", ["c", "numpy"])
    def test_p1_mu(self, p1_default, backend):
        if backend == "c" and not c_compiler_available():
            pytest.skip("no C compiler available")
        (mu,) = p1_default.mu_kernels
        _units_against_whole(mu, p1_default.fields, (6, 5, 7), backend)


def _p1_initializer(params, shape):
    from repro.pfm import planar_front

    def init(offset, block_shape):
        full = planar_front(
            shape, params.n_phases, 0, params.liquid_phase, position=3.5,
            epsilon=params.epsilon,
        )
        sl = tuple(slice(o, o + s) for o, s in zip(offset, block_shape))
        return full[sl], 0.0

    return init


@needs_cc
def test_p1_on_two_ranks_overlap_sync_and_one_block_agree(p1_default):
    """The µ units of the overlapped schedule each compute the faces of their own range."""
    from repro.parallel import BlockForest, DistributedSolver, run_ranks
    from repro.pfm import SingleBlockSolver

    params = p1_default.model.params
    shape = (8, 6, 6)
    init = _p1_initializer(params, shape)
    single = SingleBlockSolver(p1_default, shape, backend="c", seed=7)
    single.set_state(init((0, 0, 0), shape)[0], mu=0.0)
    single.step(3)
    forest = BlockForest(shape, (4, 6, 6), periodic=True)

    def prog(comm, overlap):
        solver = DistributedSolver(
            p1_default, forest, comm=comm, seed=7, overlap=overlap, backend="c"
        )
        solver.set_state_from(init)
        solver.step(3)
        return solver.gather("phi"), solver.gather("mu")

    sync = run_ranks(2, prog, False)[0]
    over = run_ranks(2, prog, True)[0]
    for got_sync, got_over, ref in zip(sync, over, (single.phi, single.mu)):
        np.testing.assert_array_equal(got_over, got_sync)
        np.testing.assert_array_equal(got_sync, ref)


#: a few C steps of the P1 default set (both systems contracted) and of the
#: binary split set on odd extents, digested; run at several thread counts in
#: fresh interpreters
_THREADS_PROGRAM = """
import hashlib, sys
import numpy as np
from repro.pfm import GrandPotentialModel, SingleBlockSolver, make_p1, make_two_phase_binary
out = []
for params, variants, shape in (
    (make_p1(dim=3), {}, (9, 5, 7)),
    (make_two_phase_binary(dim=2), dict(variant_phi="split", variant_mu="split"), (11, 9)),
):
    ks = GrandPotentialModel(params).create_kernels(**variants)
    s = SingleBlockSolver(ks, shape, backend="c", seed=3)
    rng = np.random.default_rng(5)
    phi = rng.random(shape + (params.n_phases,)) + 0.05
    s.set_state(phi / phi.sum(axis=-1, keepdims=True), mu=0.0)
    s.step(3)
    out.append(hashlib.sha256(s.phi.tobytes() + s.mu.tobytes()).hexdigest())
print(" ".join(out))
"""


def _python(program: str, env: dict, *args: str) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", program, *args], env=env, capture_output=True, text=True,
        timeout=600,
    )


@needs_cc
def test_two_threads_compute_what_one_does(p1_default):
    """A thread whose chunk starts mid-block computes that plane's lower faces itself."""
    digests = []
    for threads in ("1", "2"):
        done = _python(_THREADS_PROGRAM, {"OMP_NUM_THREADS": threads})
        assert done.returncode == 0, done.stderr[-3000:]
        digests.append(done.stdout.split())
    assert digests[0] == digests[1]


#: builds the contracted kernels of the binary 2-D/3-D and P1 split sets,
#: with every restricted unit, under the sanitizers, and calls each through
#: its packed entry at interior extents 1 and 2 on every axis; a unit whose
#: subspace does not fit an extent must be refused by name before any C runs
_SANITIZED_PROGRAM = """
import ctypes, itertools, json, tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from repro.backends.c_backend import (
    _BASE_FLAGS, _PHILOX_C, CompiledCKernel, compile_attempts, generate_c_source,
    packed_entry,
)
from repro.backends.numpy_backend import create_arrays
from repro.ir import split_interior_frontier
from repro.pfm import GrandPotentialModel, make_p1, make_two_phase_binary

# -O0: the same addresses, a third of the -O1 build time
flags = (*_BASE_FLAGS, "-O0", "-fsanitize=address,undefined", "-fno-sanitize-recover=all")
families = []
for params in (make_two_phase_binary(dim=2), make_two_phase_binary(dim=3), make_p1(dim=3)):
    ks = GrandPotentialModel(params).create_kernels(variant_phi="split", variant_mu="split")
    for kernel in ks.phi_kernels + ks.mu_kernels:
        interior, frontiers = split_interior_frontier(kernel)
        units = (kernel, interior, *frontiers)
        # one translation unit: the shared preamble once, every unit's packed entry
        source = "".join(
            (generate_c_source(u) if i == 0 else generate_c_source(u).replace(_PHILOX_C, ""))
            + packed_entry(u)
            for i, u in enumerate(units)
        )
        families.append((ks, units, source))
with tempfile.TemporaryDirectory() as tmp:
    paths = [Path(tmp) / f"{i}.so" for i in range(len(families))]
    with ThreadPoolExecutor(2) as pool:
        list(pool.map(lambda f, p: compile_attempts(p, f[2], flags), families, paths))
    libs = [ctypes.CDLL(str(p)) for p in paths]
calls = refused = 0
for (ks, units, source), lib in zip(families, libs):
    for unit in units:
        compiled = CompiledCKernel(unit, source, lib)
        for shape in itertools.product((1, 2), repeat=unit.dim):
            for gl in (unit.ghost_layers, unit.ghost_layers + 1):
                arrays = create_arrays(ks.fields, shape, gl)
                for a in arrays.values():
                    a[...] = 0.25
                try:
                    if unit.subspace is not None:
                        unit.subspace.concrete(shape)
                except ValueError:
                    try:
                        compiled(arrays, ghost_layers=gl, t=0.0)
                    except ValueError:
                        refused += 1
                        continue
                    raise AssertionError(f"{unit.name} ran at {shape}")
                compiled(arrays, ghost_layers=gl, t=0.0)
                calls += 1
print(json.dumps({"calls": calls, "refused": refused}))
"""


@needs_cc
@pytest.mark.skipif(
    not shutil.which("gcc") or not Path(
        subprocess.run(["gcc", "-print-file-name=libasan.so"], capture_output=True,
                       text=True).stdout.strip()
    ).is_file(),
    reason="needs gcc and its AddressSanitizer runtime",
)
def test_sanitized_units_at_extents_one_and_two(split_sets):
    """No heap overflow of the buffers or the fields, no undefined behaviour, two threads."""
    libasan = subprocess.run(
        ["gcc", "-print-file-name=libasan.so"], capture_output=True, text=True
    ).stdout.strip()
    done = _python(
        _SANITIZED_PROGRAM,
        {
            "CC": "gcc",
            "LD_PRELOAD": libasan,
            "ASAN_OPTIONS": "detect_leaks=0",
            "OMP_NUM_THREADS": "2",
        },
    )
    assert done.returncode == 0, done.stderr[-5000:]
    counts = json.loads(done.stdout.splitlines()[-1])
    # 2-D: 4 shapes x 2 ghost widths x 6 units; 3-D: 8 x 2 x 8, per system
    assert counts["calls"] + counts["refused"] == 2 * (4 * 2 * 6 + 2 * 8 * 2 * 8)
    assert counts["refused"] > 0 and counts["calls"] > counts["refused"]


@needs_cc
def test_the_benchmark_harness_times_a_contracted_kernel(split_sets):
    """``measure_kernel`` (the model's measured rating) builds and runs it as is."""
    from repro.perfmodel import measure_kernel

    (mu,) = split_sets["binary2d"].mu_kernels
    assert measure_kernel(mu, (16, 12), iterations=1, repeats=1).mlups > 0


def test_the_emitted_kernel_allocates_its_planes_per_thread(split_sets):
    """One ``malloc`` inside the parallel region, freed there; no flux argument."""
    (mu,) = split_sets["p1"].mu_kernels
    source = generate_c_source(mu)
    start = source.index("void kernel_mu(")
    head = source[start:source.index("{", start)]
    assert "mu_flux" not in head
    body = source[source.index("#pragma omp parallel\n"):]
    assert body.count("malloc(") == 1 and body.count("free(buf)") == 1
    assert "#pragma omp for schedule(static)" in body
