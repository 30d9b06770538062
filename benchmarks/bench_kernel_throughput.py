"""Real measured kernel throughput on this host (pytest-benchmark proper).

Times the generated kernels of the P1 model through both execution
backends — vectorized NumPy and compiled C — on a 3D block.  These are the
genuinely *measured* numbers of the reproduction (the machine here has one
scalar core; the paper's AVX-512 socket numbers are reproduced by the ECM
model in the Fig. 2/3 benches).
"""

import numpy as np
import pytest


def _setup_arrays(kernels, n):
    from repro.backends.numpy_backend import create_arrays

    fields = sorted(set().union(*(k.fields for k in kernels)), key=lambda f: f.name)
    arrays = create_arrays(fields, (n, n, n), 1)
    rng = np.random.default_rng(0)
    for name in ("phi", "phi_dst"):
        if name in arrays:
            arrays[name][...] = rng.random(arrays[name].shape)
            arrays[name] /= arrays[name].sum(axis=-1, keepdims=True)
    return arrays


@pytest.fixture(scope="module", params=["numpy", "c"])
def backend(request):
    if request.param == "c":
        from repro.backends.c_backend import c_compiler_available

        if not c_compiler_available():
            pytest.skip("no C compiler")
    return request.param


def _compile(kernels, backend):
    # shared process-wide cache: re-parametrized benches reuse earlier builds
    from repro.profiling import compile_cached

    return [compile_cached(k, backend) for k in kernels]


def _attach_model_accuracy(benchmark, kernels, n):
    """Join the ECM prediction with the measured sweep time (Fig. 2 closure)."""
    from repro.observability import model_accuracy_rows
    from repro.profiling import SolverProfiler

    profiler = SolverProfiler()
    for k in kernels:
        profiler.record(k.name, benchmark.stats["mean"] / len(kernels), cells=n**3)
    rows = model_accuracy_rows(kernels, profiler, block_shape=(n, n, n))
    predicted_seconds = sum(n**3 / (r["predicted_mlups"] * 1e6) for r in rows)
    benchmark.extra_info["predicted MLUP/s"] = round(n**3 / predicted_seconds / 1e6, 3)
    benchmark.extra_info["model ratio"] = round(
        predicted_seconds / benchmark.stats["mean"], 4
    )


class TestPhiKernelThroughput:
    def test_phi_full(self, benchmark, p1_full, backend):
        n = 32
        kernels = [p1_full.phi_kernels[0]]
        compiled = _compile(kernels, backend)
        arrays = _setup_arrays(kernels, n)

        def sweep():
            for c in compiled:
                c(arrays, ghost_layers=1, t=0.0)

        benchmark(sweep)
        benchmark.extra_info["MLUP/s"] = round(n**3 / benchmark.stats["mean"] / 1e6, 3)
        benchmark.extra_info["backend"] = backend
        _attach_model_accuracy(benchmark, kernels, n)


class TestMuKernelThroughput:
    def test_mu_full(self, benchmark, p1_full, backend):
        n = 32
        kernels = p1_full.mu_kernels
        compiled = _compile(kernels, backend)
        arrays = _setup_arrays(kernels, n)

        def sweep():
            for c in compiled:
                c(arrays, ghost_layers=1, t=0.0)

        benchmark(sweep)
        benchmark.extra_info["MLUP/s"] = round(n**3 / benchmark.stats["mean"] / 1e6, 3)
        benchmark.extra_info["backend"] = backend
        _attach_model_accuracy(benchmark, kernels, n)

    def test_mu_split(self, benchmark, p1_split, backend):
        n = 32
        kernels = p1_split.mu_kernels
        compiled = _compile(kernels, backend)
        arrays = _setup_arrays(kernels, n)

        def sweep():
            for c in compiled:
                c(arrays, ghost_layers=1, t=0.0)

        benchmark(sweep)
        benchmark.extra_info["MLUP/s"] = round(n**3 / benchmark.stats["mean"] / 1e6, 3)
        benchmark.extra_info["backend"] = backend
        _attach_model_accuracy(benchmark, kernels, n)


class TestProjectionThroughput:
    def test_projection(self, benchmark, p1_full, backend):
        n = 32
        kernels = [p1_full.projection_kernel]
        compiled = _compile(kernels, backend)
        arrays = _setup_arrays(kernels, n)

        def sweep():
            compiled[0](arrays, ghost_layers=1)

        benchmark(sweep)
        benchmark.extra_info["MLUP/s"] = round(n**3 / benchmark.stats["mean"] / 1e6, 3)
        benchmark.extra_info["backend"] = backend
        _attach_model_accuracy(benchmark, kernels, n)
