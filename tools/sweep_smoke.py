#!/usr/bin/env python3
"""Cold→warm sweep smoke test: the persistent kernel cache earns its keep.

Runs the same small scenario sweep twice against a *fresh* disk cache
rooted inside the output directory:

* pass 1 (cold) must actually build kernels (``disk_builds > 0`` when a
  C compiler is present) and finish every scenario;
* pass 2 (warm) must compile **nothing** — ``disk_builds == 0`` and
  ``disk_hits > 0`` in its own ``sweep.json`` totals, i.e. every kernel
  of every worker process came off disk — and derive nothing:
  ``ir_derivations == 0``, every kernel set was loaded from the IR tier.

Both sweep directories get merged HTML reports; CI uploads them and then
cross-checks the warm manifest with
``tools/check_observability.py SWEEPDIR/warm``.

Usage::

    python tools/sweep_smoke.py --out SWEEPDIR [--scenarios 4] [--workers 2]
        [--steps 5] [--backend c|numpy]
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--scenarios", type=int, default=4)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--steps", type=int, default=5)
    parser.add_argument("--backend", default=None,
                        help="force backend (default auto: c if available)")
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # a fresh, private disk cache: the whole point is to watch it fill
    os.environ["REPRO_CACHE_DIR"] = str(out / "kernel-cache")

    from repro.backends.c_backend import c_compiler_available
    from repro.service.sweep import demo_specs, run_sweep

    backend = args.backend or ("c" if c_compiler_available() else "numpy")
    specs = demo_specs(args.scenarios, steps=args.steps)
    failures: list[str] = []

    cold = run_sweep(specs, out / "cold", workers=args.workers, backend=backend)
    ct = cold["totals"]
    print(
        f"sweep_smoke: cold pass: {ct['ok']} ok / {ct['failed']} failed, "
        f"{ct['disk_builds']} builds, {ct['disk_hits']} hits, "
        f"{ct['ir_derivations']} kernel sets derived, {ct['ir_hits']} loaded"
    )
    if ct["failed"]:
        failures.append(f"cold pass: {ct['failed']} scenario(s) failed")
    if backend == "c" and ct["disk_builds"] == 0:
        failures.append("cold pass compiled nothing — cache dir not fresh?")
    if ct["ir_derivations"] == 0:
        failures.append("cold pass derived no kernel set — cache dir not fresh?")

    warm = run_sweep(specs, out / "warm", workers=args.workers, backend=backend)
    wt = warm["totals"]
    print(
        f"sweep_smoke: warm pass: {wt['ok']} ok / {wt['failed']} failed, "
        f"{wt['disk_builds']} builds, {wt['disk_hits']} hits, "
        f"{wt['ir_derivations']} kernel sets derived, {wt['ir_hits']} loaded"
    )
    if wt["failed"]:
        failures.append(f"warm pass: {wt['failed']} scenario(s) failed")
    if wt["ir_derivations"] != 0:
        failures.append(
            f"warm pass derived {wt['ir_derivations']} kernel set(s) — the IR "
            f"tier failed to serve them"
        )
    if backend == "c":
        if wt["disk_builds"] != 0:
            failures.append(
                f"warm pass built {wt['disk_builds']} kernel(s) — the disk "
                f"cache failed to serve them"
            )
        if wt["disk_hits"] == 0:
            failures.append("warm pass recorded no disk-cache hits")

    # merged HTML reports for both passes (uploaded as CI artifacts)
    from run_report import main as report_main

    for tag in ("cold", "warm"):
        if report_main([str(out / tag)]) != 0:
            failures.append(f"report rendering failed for the {tag} pass")

    if failures:
        for f in failures:
            print(f"sweep_smoke: FAIL: {f}", file=sys.stderr)
        return 1
    print("sweep_smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
