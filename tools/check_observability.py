#!/usr/bin/env python3
"""Validate the artifacts of an instrumented run, driven by its manifest.

Usage::

    python tools/check_observability.py DIR [--require KEY[,KEY...]]

A *DIR* holding ``sweep.json`` is validated as a ``repro-sweep/1`` sweep
(its totals account for every scenario and equal the sum of the
scenarios' own cache counts, and every successful scenario's run
directory passes the manifest check).  Any other
*DIR* is a run directory: its ``manifest.json`` must be a complete
``repro-run/1`` document whose listed artifacts all exist, and every
artifact it lists that has a validator in :data:`VALIDATORS` is checked:

``trace``
    valid Chrome-trace JSON, every event carries the required keys
    (duration ``"X"`` spans and counter ``"C"`` tracks), process/thread
    metadata is present and the span categories cover the seven pipeline
    layers (functional … backend, plus the runtime loop);
``diagnostics``
    a physics-diagnostics series with a monotonically non-increasing
    ``free_energy`` column — the variational-structure invariant for
    isothermal noise-free runs;
``perf``
    ``perf/perf.jsonl`` holds at least one valid ``repro-perf/1`` record;
``fingerprints``
    ``fingerprints.jsonl`` validates against ``repro-fingerprint/1`` with
    strictly increasing step numbers;
``journal``
    ``journal.jsonl`` is a flight-recorder event stream with strictly
    increasing sequence numbers;
``overhead``
    the manifest's ``recorder_overhead`` — what the flight recorder's
    events cost this run, measured by the recorder itself — counts at
    least one event and a positive cost.

``--require`` names the keys that must be present (an artifact that is
merely absent is otherwise not an error).  A new artifact is one more
entry of the table, not a new flag.

Exits non-zero with a message on the first violation, so it can gate CI.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.observability.recorder import PIPELINE_LAYERS, load_journal  # noqa: E402
from repro.observability.rundir import load_manifest  # noqa: E402

REQUIRED_CATEGORIES = set(PIPELINE_LAYERS)
REQUIRED_EVENT_KEYS = {"name", "cat", "ph", "ts", "pid", "tid"}


def fail(msg: str) -> None:
    print(f"check_observability: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_trace(path: Path) -> None:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"{path}: not readable as JSON ({exc})")
    all_events = doc.get("traceEvents")
    if not isinstance(all_events, list) or not all_events:
        fail(f"{path}: traceEvents missing or empty")
    meta = [ev for ev in all_events if ev.get("ph") == "M"]
    meta_names = {ev.get("name") for ev in meta}
    if "process_name" not in meta_names or "thread_name" not in meta_names:
        fail(
            f"{path}: process_name/thread_name metadata events missing "
            f"(Perfetto would show bare numeric tracks)"
        )
    for i, ev in enumerate(meta):
        if "pid" not in ev or "args" not in ev:
            fail(f"{path}: metadata event {i} missing pid/args")
    events = [ev for ev in all_events if ev.get("ph") != "M"]
    if not events:
        fail(f"{path}: no duration events (only metadata)")
    counters = 0
    for i, ev in enumerate(events):
        missing = REQUIRED_EVENT_KEYS - set(ev)
        if missing:
            fail(f"{path}: event {i} missing keys {sorted(missing)}")
        if ev["ph"] == "X":
            if "dur" not in ev:
                fail(f"{path}: duration event {i} missing 'dur'")
            if ev["dur"] < 0 or ev["ts"] < 0:
                fail(f"{path}: event {i} has negative ts/dur")
        elif ev["ph"] == "C":
            counters += 1
            args = ev.get("args")
            if not isinstance(args, dict) or not args:
                fail(f"{path}: counter event {i} has no args values")
            if ev["ts"] < 0:
                fail(f"{path}: counter event {i} has negative ts")
        else:
            fail(
                f"{path}: event {i} has phase {ev['ph']!r}, "
                f"expected 'X', 'C' or 'M'"
            )
    seen = {ev["cat"] for ev in events if ev["ph"] == "X"}
    missing = REQUIRED_CATEGORIES - seen
    if missing:
        fail(f"{path}: span categories missing: {sorted(missing)} (saw {sorted(seen)})")
    tracks = sorted(ev["args"].get("name") for ev in meta if ev["name"] == "process_name")
    print(
        f"check_observability: {path}: {len(events)} events "
        f"({counters} counters, +{len(meta)} metadata), "
        f"process tracks {tracks}, categories {sorted(seen)}"
    )


#: manifest keys a complete repro-run/1 document must carry
REQUIRED_MANIFEST_KEYS = {
    "schema", "status", "started_at", "wall_seconds",
    "host", "config", "artifacts",
}


def check_manifest(rundir: Path) -> dict:
    """Require a complete repro-run/1 manifest whose artifacts exist; returns it."""
    try:
        manifest = load_manifest(rundir)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        fail(f"{rundir}: manifest not loadable ({exc})")
    missing = REQUIRED_MANIFEST_KEYS - set(manifest)
    if missing:
        fail(f"{rundir}: manifest keys missing: {sorted(missing)}")
    if manifest["status"] not in ("ok", "crashed", "running"):
        fail(f"{rundir}: unexpected manifest status {manifest['status']!r}")
    host = manifest["host"]
    if not isinstance(host, dict) or not {"hostname", "platform", "python"} <= set(host):
        fail(f"{rundir}: manifest host block incomplete ({host!r})")
    base = rundir if rundir.is_dir() else rundir.parent
    stale = []
    for key, value in manifest["artifacts"].items():
        names = value if isinstance(value, list) else [value]
        for name in names:
            if key in ("checkpoints", "perf"):
                target = base / key / name
            else:
                target = base / name
            if not target.exists():
                stale.append(f"{key} -> {name}")
    if stale:
        fail(f"{rundir}: manifest lists artifacts that do not exist: {stale}")
    print(
        f"check_observability: {rundir}: manifest ok "
        f"(status={manifest['status']}, "
        f"{len(manifest['artifacts'])} artifacts, "
        f"wall {manifest['wall_seconds']:.2f}s)"
    )
    return manifest


def check_perf(rundir: Path) -> None:
    """Require a non-empty, valid repro-perf/1 ledger in the run dir."""
    from repro.perfmodel.ledger import PerfLedger, PerfSchemaError

    base = rundir if rundir.is_dir() else rundir.parent
    path = base / "perf" / "perf.jsonl"
    if not path.exists():
        fail(f"{rundir}: perf/perf.jsonl missing")
    try:
        records = PerfLedger(path).load(strict=True)
    except PerfSchemaError as exc:
        fail(f"{path}: invalid repro-perf/1 ledger ({exc})")
    if not records:
        fail(f"{path}: perf ledger holds no records")
    sources = {r["measured"].get("counter_source") for r in records}
    print(
        f"check_observability: {path}: {len(records)} repro-perf/1 record(s), "
        f"counter source(s) {sorted(str(s) for s in sources)}"
    )


def check_fingerprints(rundir: Path) -> None:
    """Require a valid repro-fingerprint/1 ledger in the run dir."""
    from repro.observability.fingerprint import (
        FingerprintLedger,
        FingerprintSchemaError,
    )

    base = rundir if rundir.is_dir() else rundir.parent
    path = base / "fingerprints.jsonl"
    if not path.exists():
        fail(f"{rundir}: fingerprints.jsonl missing")
    try:
        records = FingerprintLedger(path).load(strict=True)
    except FingerprintSchemaError as exc:
        fail(f"{path}: invalid repro-fingerprint/1 ledger ({exc})")
    if not records:
        fail(f"{path}: fingerprint ledger holds no records")
    steps = [r["step"] for r in records]
    if any(b <= a for a, b in zip(steps, steps[1:])):
        fail(f"{path}: step numbers are not strictly increasing")
    fields = sorted(records[0]["fields"])
    print(
        f"check_observability: {path}: {len(records)} repro-fingerprint/1 "
        f"record(s), steps {steps[0]}..{steps[-1]}, fields {fields}"
    )


#: summary keys every sweep scenario entry must carry when it succeeded
REQUIRED_SCENARIO_KEYS = {
    "spec", "status", "wall_seconds", "codegen_seconds", "cache", "rundir",
}


def check_sweep(sweep_dir: Path) -> None:
    """Validate a repro-sweep/1 manifest and its per-scenario run dirs."""
    from repro.service.sweep import load_sweep_manifest

    try:
        manifest = load_sweep_manifest(sweep_dir)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        fail(f"{sweep_dir}: sweep manifest not loadable ({exc})")
    scenarios = manifest.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        fail(f"{sweep_dir}: sweep manifest lists no scenarios")
    totals = manifest.get("totals")
    if not isinstance(totals, dict):
        fail(f"{sweep_dir}: sweep manifest has no totals block")
    for key in ("ok", "failed", "disk_hits", "disk_builds", "throughput_mlups"):
        if key not in totals:
            fail(f"{sweep_dir}: sweep totals missing {key!r}")
    if totals["ok"] + totals["failed"] != len(scenarios):
        fail(
            f"{sweep_dir}: totals ({totals['ok']} ok + {totals['failed']} "
            f"failed) do not account for {len(scenarios)} scenarios"
        )
    for entry in scenarios:
        name = entry.get("name") or entry.get("spec", {}).get("name", "?")
        if entry.get("status") == "ok":
            missing = REQUIRED_SCENARIO_KEYS - set(entry)
            if missing:
                fail(f"{sweep_dir}: scenario {name}: keys missing {sorted(missing)}")
            rundir = Path(entry["rundir"])
            if not rundir.is_absolute():
                rundir = sweep_dir / rundir
            check_manifest(rundir)
        elif "error" not in entry:
            fail(f"{sweep_dir}: failed scenario {name} carries no error")
    # the totals are this sweep's own: the sum of its scenarios' counts
    for key in ("disk_hits", "disk_builds"):
        own = sum(e["cache"][key] for e in scenarios if e.get("status") == "ok")
        if totals[key] != own:
            fail(f"{sweep_dir}: totals[{key!r}] = {totals[key]}, but its "
                 f"scenarios count {own}")
    print(
        f"check_observability: {sweep_dir}: sweep manifest ok "
        f"({totals['ok']} ok / {totals['failed']} failed, "
        f"disk cache {totals['disk_hits']} hits / {totals['disk_builds']} builds)"
    )


def check_diagnostics(path: Path) -> None:
    import csv

    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        fail(f"{path}: not readable ({exc})")
    if not rows:
        fail(f"{path}: diagnostics CSV has no data rows")
    if "free_energy" not in rows[0]:
        fail(
            f"{path}: no free_energy column "
            f"(have {sorted(rows[0])})"
        )
    try:
        energy = [float(r["free_energy"]) for r in rows]
    except ValueError as exc:
        fail(f"{path}: non-numeric free_energy value ({exc})")
    for i in range(len(energy) - 1):
        if not energy[i + 1] <= energy[i]:
            fail(
                f"{path}: free energy INCREASED between rows {i} and {i + 1}: "
                f"{energy[i]:.17g} -> {energy[i + 1]:.17g} "
                f"(dPsi/dt <= 0 violated)"
            )
    print(
        f"check_observability: {path}: {len(rows)} rows, free energy "
        f"monotone non-increasing ({energy[0]:.6g} -> {energy[-1]:.6g})"
    )


def check_journal(path: Path) -> None:
    """Require a non-empty event stream with strictly increasing seq."""
    try:
        events = load_journal(path).events
    except (OSError, KeyError, TypeError) as exc:
        fail(f"{path}: not a flight-recorder journal ({exc!r})")
    if not events:
        fail(f"{path}: journal holds no events")
    if any(b.seq <= a.seq for a, b in zip(events, events[1:])):
        fail(f"{path}: event sequence numbers are not strictly increasing")
    kinds = sorted({e.kind for e in events})
    print(f"check_observability: {path}: {len(events)} events, kinds {kinds}")


def check_overhead(rundir: Path, overhead) -> None:
    """Require the recorder's self-measured cost of this run in the manifest."""
    if not isinstance(overhead, dict) or not {"seconds", "events"} <= set(overhead):
        fail(f"{rundir}: manifest recorder_overhead malformed ({overhead!r})")
    if overhead["events"] <= 0 or overhead["seconds"] <= 0:
        fail(f"{rundir}: the flight recorder measured no cost "
             f"({overhead['events']} events, {overhead['seconds']} s)")
    print(
        f"check_observability: {rundir}: recorder overhead "
        f"{overhead['seconds'] * 1e3:.3f} ms over {overhead['events']} events "
        f"({overhead['seconds'] / overhead['events'] * 1e6:.2f} us/event)"
    )


#: key -> validator(rundir, manifest); a key without an entry (checkpoints,
#: report, …) is covered by check_manifest's existence check alone
VALIDATORS = {
    "trace": lambda rundir, manifest: check_trace(rundir / "trace.json"),
    "diagnostics": lambda rundir, manifest: check_diagnostics(rundir / "diagnostics.csv"),
    "perf": lambda rundir, manifest: check_perf(rundir),
    "fingerprints": lambda rundir, manifest: check_fingerprints(rundir),
    "journal": lambda rundir, manifest: check_journal(rundir / "journal.jsonl"),
    "overhead": lambda rundir, manifest: check_overhead(
        rundir, manifest["recorder_overhead"]
    ),
}


def check_rundir(rundir: Path, require: set[str]) -> None:
    """Validate everything the manifest holds; *require* must be among it."""
    unknown = require - set(VALIDATORS)
    if unknown:
        fail(f"--require {sorted(unknown)}: no such validator (have {sorted(VALIDATORS)})")
    manifest = check_manifest(rundir)
    present = set(manifest["artifacts"])
    if "recorder_overhead" in manifest:
        present.add("overhead")
    missing = require - present
    if missing:
        fail(f"{rundir}: required but not in the manifest: {sorted(missing)}")
    for key in sorted(present & set(VALIDATORS)):
        VALIDATORS[key](rundir, manifest)


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", type=Path,
                        help="run directory (manifest.json) or sweep directory (sweep.json)")
    parser.add_argument("--require", default="", metavar="KEY[,KEY...]",
                        help=f"keys that must be present: {', '.join(VALIDATORS)}")
    args = parser.parse_args(argv)
    if (args.dir / "sweep.json").exists():
        check_sweep(args.dir)
    else:
        check_rundir(args.dir, {key for key in args.require.split(",") if key})
    print("check_observability: OK")


if __name__ == "__main__":
    main(sys.argv[1:])
