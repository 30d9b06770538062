"""Fig. 2 (left & middle) — ECM model vs measurement, kernel variant choice.

Left panel: µ-split vs µ-full per-core MLUP/s over a Skylake socket.  The
paper's shapes: µ-split starts faster but is memory bound and its per-core
rate decays within the socket; µ-full is compute bound and stays flat; the
ECM curves cross at ~16 cores.

Middle panel: φ-split vs φ-full for P1 *and* P2 — the model configuration
flips the winner (P1 → full, P2 → split), demonstrating why an automatic,
model-driven variant choice is needed.

The "measurement" side of the original figure ran on real Skylake hardware;
here the compiled C kernels are *measured* single-core on this machine and
reported next to the model (absolute numbers differ — scalar C vs AVX-512 —
but the variant ordering is what the experiment is about).
"""

import numpy as np
import pytest

from conftest import emit_table


def _combined_mlups(predictions, cores):
    return 1.0 / sum(1.0 / p.mlups(cores) for p in predictions)


@pytest.fixture(scope="module")
def ecm():
    from repro.perfmodel import ECMModel, SKYLAKE_8174

    return ECMModel(SKYLAKE_8174)


def test_fig2_left_mu_variants(benchmark, ecm, p1_full, p1_split):
    p_full = [ecm.predict(k, (60, 60, 60)) for k in p1_full.mu_kernels]
    p_split = [ecm.predict(k, (60, 60, 60)) for k in p1_split.mu_kernels]

    lines = ["Fig. 2 left — ECM: µ kernel variants on one SKL socket (P1, 60³ blocks)", ""]
    for p in p_full + p_split:
        lines.append(f"  {p}")
    lines.append("")
    lines.append("  cores |  µ-full /core |  µ-split /core")
    crossover = None
    series = {}
    for n in range(1, 25):
        f = _combined_mlups(p_full, n) / n
        s = _combined_mlups(p_split, n) / n
        series[n] = (f, s)
        if n in (1, 4, 8, 12, 16, 20, 24):
            lines.append(f"  {n:5d} | {f:13.2f} | {s:14.2f}")
        if crossover is None and f > s:
            crossover = n
    lines.append("")
    lines.append(f"  ECM crossover (µ-full overtakes µ-split): {crossover} cores   (paper: 16)")
    emit_table("fig2_left_mu_scaling", lines)
    benchmark.extra_info["µ-full MLUP/s per core at 24"] = round(series[24][0], 3)
    benchmark.extra_info["µ-split MLUP/s per core at 24"] = round(series[24][1], 3)

    # paper shapes: split faster at 1 core, declining; full flat; crossover in-socket
    assert series[1][1] > series[1][0]
    assert series[24][1] < series[1][1] * 0.75, "µ-split must decline within the socket"
    assert abs(series[24][0] - series[1][0]) / series[1][0] < 0.05, "µ-full must stay flat"
    assert crossover is not None and 8 <= crossover <= 24

    benchmark(lambda: [ecm.predict(k, (60, 60, 60)) for k in p1_full.mu_kernels])


def test_fig2_middle_phi_variants(benchmark, ecm, p1_full, p1_split, p2_full, p2_split):
    rows = {}
    for label, ks_full, ks_split in (
        ("P1", p1_full, p1_split),
        ("P2", p2_full, p2_split),
    ):
        pf = [ecm.predict(k, (60, 60, 60)) for k in ks_full.phi_kernels]
        ps = [ecm.predict(k, (60, 60, 60)) for k in ks_split.phi_kernels]
        rows[label] = (pf, ps)

    lines = ["Fig. 2 middle — ECM: φ kernel variants, P1 vs P2 (60³ blocks)", ""]
    lines.append("  cores | P1 φ-full | P1 φ-split | P2 φ-full | P2 φ-split   (MLUP/s per core)")
    for n in (1, 4, 8, 12, 16, 20, 24):
        p1f = _combined_mlups(rows["P1"][0], n) / n
        p1s = _combined_mlups(rows["P1"][1], n) / n
        p2f = _combined_mlups(rows["P2"][0], n) / n
        p2s = _combined_mlups(rows["P2"][1], n) / n
        lines.append(f"  {n:5d} | {p1f:9.2f} | {p1s:10.2f} | {p2f:9.2f} | {p2s:10.2f}")
    p1_full_wins = _combined_mlups(rows["P1"][0], 24) > _combined_mlups(rows["P1"][1], 24)
    p2_split_wins = _combined_mlups(rows["P2"][1], 24) > _combined_mlups(rows["P2"][0], 24)
    lines.append("")
    lines.append(f"  full-socket winner P1: {'φ-full' if p1_full_wins else 'φ-split'}   (paper: φ-full)")
    lines.append(f"  full-socket winner P2: {'φ-split' if p2_split_wins else 'φ-full'}   (paper: φ-split)")
    emit_table("fig2_middle_phi_scaling", lines)

    assert p1_full_wins, "for P1 the φ-full variant must win (paper Fig. 2 middle)"
    assert p2_split_wins, "for P2 the φ-split variant must win (paper Fig. 2 middle)"

    benchmark(lambda: [ecm.predict(k, (60, 60, 60)) for k in p2_full.phi_kernels])


def test_fig2_measured_single_core(benchmark, p1_full, p1_split):
    """Measured C-kernel rates on this machine (the 'Bench' curves)."""
    from repro.backends.c_backend import c_compiler_available, compile_c_kernel
    from repro.backends.numpy_backend import create_arrays

    if not c_compiler_available():
        pytest.skip("no C compiler")

    n = 48
    results = {}
    for label, kernels in (
        ("mu-full", p1_full.mu_kernels),
        ("mu-split", p1_split.mu_kernels),
    ):
        fields = sorted(set().union(*(k.fields for k in kernels)), key=lambda f: f.name)
        arrays = create_arrays(fields, (n, n, n), 1)
        rng = np.random.default_rng(0)
        arrays["phi"][...] = rng.random(arrays["phi"].shape)
        arrays["phi"] /= arrays["phi"].sum(axis=-1, keepdims=True)
        arrays["phi_dst"][...] = arrays["phi"]
        compiled = [compile_c_kernel(k) for k in kernels]

        import time

        def sweep():
            for c in compiled:
                c(arrays, ghost_layers=1, t=0.0)

        sweep()  # warm up
        t0 = time.perf_counter()
        reps = 3
        for _ in range(reps):
            sweep()
        dt = (time.perf_counter() - t0) / reps
        results[label] = n**3 / dt / 1e6

    lines = [
        "Fig. 2 'Bench' stand-in — measured single-core C kernels on this host",
        "",
        *(f"  {k:9s}: {v:7.2f} MLUP/s" for k, v in results.items()),
        "",
        f"  µ-split / µ-full measured speedup at 1 core: "
        f"{results['mu-split'] / results['mu-full']:.2f}x  (ECM predicts ~1.2x; "
        "split must not be slower single-core)",
    ]
    emit_table("fig2_measured_single_core", lines)
    for label, mlups in results.items():
        benchmark.extra_info[f"{label} MLUP/s"] = round(mlups, 3)
    assert results["mu-split"] > 0.85 * results["mu-full"]

    mu_full_kernels = [compile_c_kernel(k) for k in p1_full.mu_kernels]
    fields = sorted(set().union(*(k.fields for k in p1_full.mu_kernels)), key=lambda f: f.name)
    arrays = create_arrays(fields, (24, 24, 24), 1)

    def one_sweep():
        for c in mu_full_kernels:
            c(arrays, ghost_layers=1, t=0.0)

    benchmark(one_sweep)
