"""Fig. 2 (left & middle) — ECM model vs measurement, kernel variant choice.

Left panel: µ-split vs µ-full per-core MLUP/s over a Skylake socket.  The
paper's shapes: µ-split starts faster but is memory bound and its per-core
rate decays within the socket; µ-full is compute bound and stays flat; the
ECM curves cross at ~16 cores.  The paper's µ-split is two sweeps, rated
here as the two stages of the contracted kernel; one more column rates the
contracted kernel itself, which keeps the split's FLOPs without the flux
field's traffic.

Middle panel: φ-split vs φ-full for P1 *and* P2 — the model configuration
flips the winner (P1 → full, P2 → split), demonstrating why an automatic,
model-driven variant choice is needed.

Both panels rate the paper's two sweeps on Skylake, as published.  The
default CPU set of this code takes the contracted split for both P1
systems (``SplitKernels.buffering_pays``): without the flux field's
traffic, φ-split wins for P1 too.

The "measurement" side of the original figure ran on real Skylake hardware;
here the compiled C kernels are *measured* single-core on this machine and
reported next to the model (absolute numbers differ — scalar C vs AVX-512 —
but the variant ordering is what the experiment is about).
"""

import pytest

from conftest import emit_table


def _combined_mlups(predictions, cores):
    return 1.0 / sum(1.0 / p.mlups(cores) for p in predictions)


@pytest.fixture(scope="module")
def ecm():
    from repro.perfmodel import ECMModel, SKYLAKE_8174

    return ECMModel(SKYLAKE_8174)


def _stages(kernels):
    """The paper's kernels: a contracted split kernel as its two sweeps."""
    return [s for k in kernels for s in k.stages]


def test_fig2_left_mu_variants(benchmark, ecm, p1_full, p1_split):
    p_full = [ecm.predict(k, (60, 60, 60)) for k in p1_full.mu_kernels]
    p_split = [ecm.predict(k, (60, 60, 60)) for k in _stages(p1_split.mu_kernels)]
    # the contracted form the CPU runs: the split's FLOPs, no flux-field traffic
    p_contracted = [ecm.predict(k, (60, 60, 60)) for k in p1_split.mu_kernels]

    lines = ["Fig. 2 left — ECM: µ kernel variants on one SKL socket (P1, 60³ blocks)", ""]
    for p in p_full + p_split + p_contracted:
        lines.append(f"  {p}")
    lines.append("")
    lines.append("  cores |  µ-full /core |  µ-split /core | contracted /core")
    crossover = None
    series = {}
    for n in range(1, 25):
        f = _combined_mlups(p_full, n) / n
        s = _combined_mlups(p_split, n) / n
        c = _combined_mlups(p_contracted, n) / n
        series[n] = (f, s, c)
        if n in (1, 4, 8, 12, 16, 20, 24):
            lines.append(f"  {n:5d} | {f:13.2f} | {s:14.2f} | {c:16.2f}")
        if crossover is None and f > s:
            crossover = n
    lines.append("")
    lines.append(f"  ECM crossover (µ-full overtakes µ-split): {crossover} cores   (paper: 16)")
    emit_table("fig2_left_mu_scaling", lines)
    benchmark.extra_info["µ-full MLUP/s per core at 24"] = round(series[24][0], 3)
    benchmark.extra_info["µ-split MLUP/s per core at 24"] = round(series[24][1], 3)
    benchmark.extra_info["µ-split contracted MLUP/s per core at 24"] = round(series[24][2], 3)

    # paper shapes: split faster at 1 core, declining; full flat; crossover in-socket
    assert series[1][1] > series[1][0]
    assert series[24][1] < series[1][1] * 0.75, "µ-split must decline within the socket"
    assert abs(series[24][0] - series[1][0]) / series[1][0] < 0.05, "µ-full must stay flat"
    assert crossover is not None and 8 <= crossover <= 24
    assert series[24][2] > series[24][0], "contracted µ-split must beat µ-full in the socket"

    benchmark(lambda: [ecm.predict(k, (60, 60, 60)) for k in p1_full.mu_kernels])


def test_fig2_middle_phi_variants(benchmark, ecm, p1_full, p1_split, p2_full, p2_split):
    rows = {}
    for label, ks_full, ks_split in (
        ("P1", p1_full, p1_split),
        ("P2", p2_full, p2_split),
    ):
        pf = [ecm.predict(k, (60, 60, 60)) for k in ks_full.phi_kernels]
        ps = [ecm.predict(k, (60, 60, 60)) for k in _stages(ks_split.phi_kernels)]
        pc = [ecm.predict(k, (60, 60, 60)) for k in ks_split.phi_kernels]
        rows[label] = (pf, ps, pc)

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
    lines.append(
        "  φ-split contracted (one kernel) at 24 cores: "
        f"P1 {_combined_mlups(rows['P1'][2], 24) / 24:.2f}, "
        f"P2 {_combined_mlups(rows['P2'][2], 24) / 24:.2f} MLUP/s per core"
    )
    emit_table("fig2_middle_phi_scaling", lines)

    assert p1_full_wins, "for P1 the φ-full variant must win (paper Fig. 2 middle)"
    assert p2_split_wins, "for P2 the φ-split variant must win (paper Fig. 2 middle)"

    benchmark(lambda: [ecm.predict(k, (60, 60, 60)) for k in p2_full.phi_kernels])


def test_fig2_measured_single_core(benchmark, p1_full, p1_split):
    """Measured C-kernel rates on this machine (the 'Bench' curves)."""
    from repro.backends.c_backend import c_compiler_available
    from repro.perfmodel import measure_kernel

    if not c_compiler_available():
        pytest.skip("no C compiler")

    n = 48
    # µ-split is the contracted kernel: the two sweeps run as one
    (mu_full,), (mu_split,) = p1_full.mu_kernels, p1_split.mu_kernels
    results = {
        label: measure_kernel(k, (n, n, n), iterations=3, repeats=1).mlups
        for label, k in (("mu-full", mu_full), ("mu-split", mu_split))
    }

    lines = [
        "Fig. 2 'Bench' stand-in — measured single-core C kernels on this host",
        "",
        *(f"  {k:9s}: {v:7.2f} MLUP/s" for k, v in results.items()),
        "",
        f"  µ-split / µ-full measured speedup at 1 core: "
        f"{results['mu-split'] / results['mu-full']:.2f}x  (ECM predicts "
        f"{mu_split.operation_count().normalized_flops():.0f} against "
        f"{mu_full.operation_count().normalized_flops():.0f} normalized "
        "FLOPs; split must not be slower single-core)",
    ]
    emit_table("fig2_measured_single_core", lines)
    for label, mlups in results.items():
        benchmark.extra_info[f"{label} MLUP/s"] = round(mlups, 3)
    assert results["mu-split"] > 0.85 * results["mu-full"]

    benchmark(measure_kernel, mu_full, (24, 24, 24), iterations=1, repeats=1)
