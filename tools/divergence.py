#!/usr/bin/env python3
"""Diff two ``repro-fingerprint/1`` ledgers and localize the divergence.

Usage::

    python tools/divergence.py A B [--json PATH] [--context N]
        [--checkpoints] [--heatmap N]

``A`` and ``B`` are fingerprint ledger files or run directories (the
canonical ``fingerprints.jsonl`` inside).  The tool

* aligns the two streams by step and reports the **first divergent
  record**, localized to the first mismatching ``(step, field, block)``
  in the fixed traversal order, with a few context records around it;
* when both sides are run directories (or ``--checkpoints`` is given),
  finds the **nearest common checkpoint at or before** the divergent
  step and produces an **ulp-level field diff** of the checkpointed
  states — max/mean ulp distance, mismatch count and a coarse spatial
  heatmap per field (both single-block ``stepNNNNNNNN.npz`` and
  distributed ``stepNNNNNNNN.block_i_j.npz`` checkpoints are handled);
* writes the whole analysis as a ``repro-divergence/1`` JSON document
  (``--json PATH``, defaulting to ``<A>/divergence.json`` when ``A`` is
  a run directory) which ``tools/run_report.py`` embeds into the HTML
  run report.

Exit codes: 0 = streams identical, 1 = divergence found, 2 = error.

The checkpoint comparison diffs the *stored* states.  For a live
bisection — replaying both configurations forward from the checkpoint —
use :func:`replay_compare` with two restored solvers; it steps them in
lockstep and ulp-diffs the resulting fields.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.observability.fingerprint import find_mismatches, load_reference  # noqa: E402

DIVERGENCE_SCHEMA = "repro-divergence/1"

_CHECKPOINT_RE = re.compile(r"^step(\d{8})(?:\.block_[\d_]+)?\.npz$")


# -- ledger alignment ----------------------------------------------------------


def first_divergence(records_a, records_b) -> dict | None:
    """The first common step whose records differ, localized; else ``None``.

    Steps present on only one side are inventoried but do not count as
    divergence — a shorter run is a prefix, not a contradiction.
    """
    by_a = {r["step"]: r for r in records_a}
    by_b = {r["step"]: r for r in records_b}
    common = sorted(set(by_a) & set(by_b))
    for step in common:
        ra, rb = by_a[step], by_b[step]
        if ra["digest"] == rb["digest"]:
            continue
        mismatches = find_mismatches(ra, rb)
        first = mismatches[0]
        return {
            "step": step,
            "time": ra["time"],
            "field": first["field"],
            "block": first["block"],
            "actual": first["actual"],
            "expected": first["expected"],
            "n_mismatches": len(mismatches),
            "mismatches": mismatches,
        }
    return None


def context_rows(records_a, records_b, step: int, context: int = 3) -> list[dict]:
    """Common-step digest pairs around *step*, for the human report."""
    by_a = {r["step"]: r for r in records_a}
    by_b = {r["step"]: r for r in records_b}
    common = sorted(set(by_a) & set(by_b))
    if step in common:
        i = common.index(step)
    else:
        i = len(common)
    rows = []
    for s in common[max(0, i - context): i + context + 1]:
        rows.append(
            {
                "step": s,
                "digest_a": by_a[s]["digest"],
                "digest_b": by_b[s]["digest"],
                "match": by_a[s]["digest"] == by_b[s]["digest"],
            }
        )
    return rows


# -- ulp-level field comparison ------------------------------------------------


def _ordered_bits(a: np.ndarray) -> np.ndarray:
    """Map float64 bit patterns to a monotone int64 ordering.

    Negative floats have descending int64 patterns; reflecting them
    (``-2**63 - i``) makes the integer order match the float order, so
    the difference of two mapped values counts representable doubles
    between them — the ulp distance.
    """
    i = np.ascontiguousarray(a, dtype=np.float64).view(np.int64)
    return np.where(i < 0, np.int64(-(2**63)) - i, i)


def _coarse_max(u: np.ndarray, shape: tuple[int, int]) -> list[list[int]]:
    """Max-pool a 2D ulp field down to at most *shape* cells."""
    n0, n1 = u.shape
    r = min(n0, shape[0])
    c = min(n1, shape[1])
    t0, t1 = -(-n0 // r), -(-n1 // c)
    out = []
    for i in range(r):
        row = []
        for j in range(c):
            tile = u[i * t0:(i + 1) * t0, j * t1:(j + 1) * t1]
            row.append(int(tile.max()) if tile.size else 0)
        out.append(row)
    return out


def ulp_diff(a, b, heatmap_shape: tuple[int, int] = (16, 16)) -> dict:
    """Ulp-level comparison of two same-shape float64 arrays.

    The ulp distance is computed on the int64-mapped bit patterns — never
    after a float conversion, which would round away single-ulp
    differences.  Positions where either side is non-finite are excluded
    from the ulp statistics and counted separately.  The heatmap
    max-pools the ulp field over the first two (spatial) axes down to at
    most *heatmap_shape* cells.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    finite = np.isfinite(a) & np.isfinite(b)
    nonfinite_mismatch = int(
        np.count_nonzero(~finite & (a.view(np.int64) != b.view(np.int64)))
    )
    with np.errstate(over="ignore"):
        ulp = np.abs(_ordered_bits(a) - _ordered_bits(b))
    ulp[~finite] = 0
    compared = int(np.count_nonzero(finite))
    mismatch = int(np.count_nonzero(ulp))
    u2 = ulp
    if u2.ndim == 1:
        u2 = u2[:, None]
    while u2.ndim > 2:
        u2 = u2.max(axis=-1)
    return {
        "max_ulp": int(ulp.max()) if ulp.size else 0,
        "mean_ulp": float(ulp.sum() / compared) if compared else 0.0,
        "mismatch_count": mismatch,
        "compared": compared,
        "nonfinite_mismatches": nonfinite_mismatch,
        "heatmap": _coarse_max(u2, heatmap_shape),
    }


# -- checkpoint bisection ------------------------------------------------------


def list_checkpoints(rundir) -> dict[int, list[Path]]:
    """Checkpoint files under ``<rundir>/checkpoints``, grouped by step."""
    out: dict[int, list[Path]] = {}
    cpdir = Path(rundir) / "checkpoints"
    if not cpdir.is_dir():
        return out
    for p in sorted(cpdir.iterdir()):
        m = _CHECKPOINT_RE.match(p.name)
        if m:
            out.setdefault(int(m.group(1)), []).append(p)
    return out


def nearest_checkpoint(rundir, step: int) -> int | None:
    """The newest checkpointed step at or before *step*, or ``None``."""
    steps = [s for s in list_checkpoints(rundir) if s <= step]
    return max(steps) if steps else None


def compare_checkpoints(
    rundir_a, rundir_b, step: int, heatmap_shape=(16, 16)
) -> dict:
    """Ulp-diff the two runs' checkpointed states at *step*, per field.

    Matching checkpoint files (same name: the single ``.npz`` or the
    per-block shards) are compared pairwise; per-field statistics are
    aggregated across shards and the heatmap kept from the worst shard.
    """
    files_a = {p.name: p for p in list_checkpoints(rundir_a).get(step, [])}
    files_b = {p.name: p for p in list_checkpoints(rundir_b).get(step, [])}
    common = sorted(set(files_a) & set(files_b))
    if not common:
        raise FileNotFoundError(
            f"no matching step-{step} checkpoint files under both run dirs"
        )
    fields: dict[str, dict] = {}
    for name in common:
        with np.load(files_a[name]) as da, np.load(files_b[name]) as db:
            for key in sorted(set(da.files) & set(db.files)):
                arr_a, arr_b = da[key], db[key]
                if arr_a.dtype.kind != "f" or arr_a.shape != arr_b.shape:
                    continue
                d = ulp_diff(arr_a, arr_b, heatmap_shape)
                agg = fields.get(key)
                if agg is None:
                    fields[key] = {**d, "worst_file": name, "files": 1}
                else:
                    agg["files"] += 1
                    total = agg["compared"] + d["compared"]
                    if total:
                        agg["mean_ulp"] = (
                            agg["mean_ulp"] * agg["compared"]
                            + d["mean_ulp"] * d["compared"]
                        ) / total
                    agg["compared"] = total
                    agg["mismatch_count"] += d["mismatch_count"]
                    agg["nonfinite_mismatches"] += d["nonfinite_mismatches"]
                    if d["max_ulp"] > agg["max_ulp"]:
                        agg["max_ulp"] = d["max_ulp"]
                        agg["heatmap"] = d["heatmap"]
                        agg["worst_file"] = name
    return {"step": step, "files": common, "fields": fields}


def replay_compare(solver_a, solver_b, n_steps: int, fields=("phi", "mu")) -> dict:
    """Step two checkpoint-restored solvers in lockstep and ulp-diff them.

    This is the live half of the bisection flow: restore both
    configurations from the nearest common checkpoint before the first
    divergent step, replay up to (or past) it, and see exactly which
    cells disagree and by how many ulp.  Works across solver kinds —
    a :class:`DistributedSolver` contributes its gathered global field,
    a :class:`SingleBlockSolver` its interior, so a 1-rank run can be
    replayed against an N-rank one.
    """
    if n_steps:
        solver_a.step(n_steps)
        solver_b.step(n_steps)
    return {
        name: ulp_diff(_field_state(solver_a, name), _field_state(solver_b, name))
        for name in fields
    }


def _field_state(solver, name: str) -> np.ndarray:
    if hasattr(solver, "gather"):
        return solver.gather(name)
    return solver._interior(name)


# -- the report document -------------------------------------------------------


def divergence_document(
    path_a, path_b, context: int = 3, checkpoints: bool = False,
    heatmap_shape=(16, 16),
) -> dict:
    """The full ``repro-divergence/1`` analysis of two ledgers."""
    ledger_a, by_step_a = load_reference(path_a)
    ledger_b, by_step_b = load_reference(path_b)
    records_a, records_b = list(by_step_a.values()), list(by_step_b.values())
    steps_a, steps_b = set(by_step_a), set(by_step_b)
    div = first_divergence(records_a, records_b)
    doc = {
        "schema": DIVERGENCE_SCHEMA,
        "a": str(ledger_a),
        "b": str(ledger_b),
        "records": {"a": len(records_a), "b": len(records_b)},
        "common_steps": len(steps_a & steps_b),
        "only_a": sorted(steps_a - steps_b),
        "only_b": sorted(steps_b - steps_a),
        "first_divergence": div,
        "context": (
            context_rows(records_a, records_b, div["step"], context)
            if div
            else []
        ),
        "checkpoint": None,
    }
    if div and checkpoints:
        rundir_a, rundir_b = Path(path_a), Path(path_b)
        if rundir_a.is_dir() and rundir_b.is_dir():
            steps = set(list_checkpoints(rundir_a)) & set(
                list_checkpoints(rundir_b)
            )
            eligible = [s for s in steps if s <= div["step"]]
            if eligible:
                doc["checkpoint"] = compare_checkpoints(
                    rundir_a, rundir_b, max(eligible), heatmap_shape
                )
    return doc


def print_report(doc: dict) -> None:
    div = doc["first_divergence"]
    print(f"ledger A: {doc['a']} ({doc['records']['a']} records)")
    print(f"ledger B: {doc['b']} ({doc['records']['b']} records)")
    print(
        f"common steps: {doc['common_steps']}"
        + (f", only in A: {len(doc['only_a'])}" if doc["only_a"] else "")
        + (f", only in B: {len(doc['only_b'])}" if doc["only_b"] else "")
    )
    if div is None:
        print("no divergence: all common-step records are identical")
        return
    print(
        f"\nFIRST DIVERGENCE at step {div['step']} (t={div['time']:g}): "
        f"field {div['field']} block ({div['block']})"
    )
    print(f"  A: {div['actual']}\n  B: {div['expected']}")
    print(f"  {div['n_mismatches']} (field, block) pair(s) differ at this step")
    if doc["context"]:
        print("\n  step   A digest          B digest")
        for row in doc["context"]:
            mark = " " if row["match"] else "<-- diverged"
            print(
                f"  {row['step']:5d}  {row['digest_a'][:16]}  "
                f"{row['digest_b'][:16]}  {mark}"
            )
    cp = doc.get("checkpoint")
    if cp:
        print(f"\nulp diff at nearest common checkpoint (step {cp['step']}):")
        for name, st in cp["fields"].items():
            print(
                f"  {name}: max {st['max_ulp']} ulp, mean {st['mean_ulp']:.3g} "
                f"ulp, {st['mismatch_count']}/{st['compared']} cells differ"
                + (
                    f", {st['nonfinite_mismatches']} non-finite mismatches"
                    if st["nonfinite_mismatches"]
                    else ""
                )
            )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="fingerprint ledger file or run directory")
    ap.add_argument("b", help="reference ledger file or run directory")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="write the repro-divergence/1 document here "
                         "(default: <A>/divergence.json when A is a rundir)")
    ap.add_argument("--context", type=int, default=3, metavar="N",
                    help="context records around the divergence (default 3)")
    ap.add_argument("--checkpoints", action="store_true",
                    help="also ulp-diff the nearest common checkpoint "
                         "(implied when both sides are run directories)")
    ap.add_argument("--heatmap", type=int, default=16, metavar="N",
                    help="max heatmap cells per spatial axis (default 16)")
    args = ap.parse_args(argv)

    try:
        doc = divergence_document(
            args.a,
            args.b,
            context=args.context,
            checkpoints=args.checkpoints
            or (Path(args.a).is_dir() and Path(args.b).is_dir()),
            heatmap_shape=(args.heatmap, args.heatmap),
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print_report(doc)
    json_path = args.json
    if json_path is None and Path(args.a).is_dir():
        json_path = Path(args.a) / "divergence.json"
    if json_path is not None:
        with open(json_path, "w") as fh:
            json.dump(doc, fh, indent=1)
        print(f"\ndivergence document written to {json_path}")
    return 1 if doc["first_divergence"] else 0


if __name__ == "__main__":
    sys.exit(main())
