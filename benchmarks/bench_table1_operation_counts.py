"""Table 1 — operation counts of all compute kernels (paper §5.1).

Regenerates the paper's Table 1 for the P1 and P2 parameterizations: loads,
stores, adds, muls, divs, sqrts, rsqrts and the normalized FLOP count for
the µ-full / µ-split / φ-full / φ-split kernel variants.

A split column is the paper's pair of kernels: the two stages of the
contracted kernel the CPU runs (:attr:`repro.ir.kernel.Kernel.stages`).

Reproduction quality: the load/store counts (which are fixed by the model's
stencil structure) match the paper EXACTLY for all sixteen kernel columns;
the arithmetic counts match in shape (split ≈ half of full for µ, the P2
anisotropy blowing up φ, µ as the only kernel with irrational ops).
"""


from conftest import emit_table

# (loads, stores) per kernel column as printed in Table 1 of the paper
PAPER_LOADS_STORES = {
    ("P1", "mu", "full"): [(112, 2)],
    ("P1", "mu", "split"): [(84, 6), (22, 2)],
    ("P1", "phi", "full"): [(30, 4)],
    ("P1", "phi", "split"): [(16, 12), (54, 4)],
    ("P2", "mu", "full"): [(79, 1)],
    ("P2", "mu", "split"): [(60, 3), (13, 1)],
    ("P2", "phi", "full"): [(58, 3)],
    ("P2", "phi", "split"): [(48, 9), (40, 3)],
}

PAPER_NORM_FLOPS = {
    ("P1", "mu", "full"): 2126,
    ("P1", "mu", "split"): 1328,
    ("P1", "phi", "full"): 1004,
    ("P1", "phi", "split"): 818,
    ("P2", "mu", "full"): 1177,
    ("P2", "mu", "split"): 756,
    ("P2", "phi", "full"): 3968,
    ("P2", "phi", "split"): 2593,
}


def _columns(kernel_sets):
    """Table 1's kernels per column: a split one is the paper's two, the stages."""
    for setup, ks_full, ks_split in kernel_sets:
        for variant, ks in (("full", ks_full), ("split", ks_split)):
            yield (setup, "mu", variant), [s for k in ks.mu_kernels for s in k.stages]
            yield (setup, "phi", variant), [s for k in ks.phi_kernels for s in k.stages]


def test_table1(benchmark, p1_full, p1_split, p2_full, p2_split):
    from repro.perfmodel import count_operations

    kernel_sets = [("P1", p1_full, p1_split), ("P2", p2_full, p2_split)]

    lines = [
        "Table 1 — per-cell operation counts (ours vs paper)",
        "",
        f"{'kernel':22s} {'loads':>12} {'stores':>10} {'adds':>6} {'muls':>6} "
        f"{'divs':>5} {'sqrt':>5} {'rsqrt':>6} {'norm':>7} {'paper':>7}",
    ]
    mismatches = []
    ratios = {}
    for key, kernels in _columns(kernel_sets):
        setup, field, variant = key
        ocs = [k.operation_count() for k in kernels]
        ls = [(oc.loads, oc.stores) for oc in ocs]
        total = ocs[0]
        for oc in ocs[1:]:
            total = total + oc
        norm = total.normalized_flops()
        ratios[key] = norm
        loads_str = " + ".join(str(ld) for ld, _ in ls)
        stores_str = " + ".join(str(s) for _, s in ls)
        lines.append(
            f"{setup + ' ' + field + '-' + variant:22s} {loads_str:>12} {stores_str:>10} "
            f"{total.adds:6d} {total.muls:6d} {total.divs:5d} {total.sqrts:5d} "
            f"{total.rsqrts:6d} {norm:7.0f} {PAPER_NORM_FLOPS[key]:7d}"
        )
        if ls != PAPER_LOADS_STORES[key]:
            mismatches.append((key, ls, PAPER_LOADS_STORES[key]))

    lines.append("")
    lines.append(
        "load/store counts vs paper: "
        + ("EXACT MATCH for all 8 kernel variants" if not mismatches else f"MISMATCH {mismatches}")
    )
    # headline shape claims of §5.1
    mu_ratio = ratios[("P1", "mu", "split")] / ratios[("P1", "mu", "full")]
    lines.append(f"µ-split / µ-full FLOP ratio (P1): {mu_ratio:.2f}   (paper: 0.62 — 'almost half')")
    p2_blowup = ratios[("P2", "phi", "full")] / ratios[("P1", "phi", "full")]
    lines.append(f"P2/P1 φ-full FLOP ratio: {p2_blowup:.2f}   (paper: 3.95 — anisotropy blow-up)")
    # what runs on the CPU: the split stages in one kernel, no flux-field traffic
    (mu,) = p1_split.mu_kernels
    oc = mu.operation_count()
    lines.append(
        f"P1 µ-split contracted (one kernel): loads {oc.loads}, stores {oc.stores}, "
        f"norm {oc.normalized_flops():.0f}"
    )
    emit_table("table1_operation_counts", lines)

    # assertions: exact structural match + qualitative arithmetic shape
    assert not mismatches, f"load/store mismatch: {mismatches}"
    assert 0.4 < mu_ratio < 0.75
    assert p2_blowup > 1.8
    assert ratios[("P1", "phi", "split")] < ratios[("P1", "phi", "full")]
    assert ratios[("P2", "phi", "split")] < ratios[("P2", "phi", "full")]

    mu_kernel = p1_full.mu_kernels[0]
    benchmark(lambda: count_operations(mu_kernel.ac))
