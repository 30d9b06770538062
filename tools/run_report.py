#!/usr/bin/env python3
"""Render a RunDir manifest into one self-contained HTML run report.

Usage::

    python tools/run_report.py <rundir-or-manifest.json> [--out report.html]

Every section renders only when its artifact exists, so the same tool
covers a minimal trace-only run and a full multi-rank bundle:

* run summary (status, config, git rev, host, backend, ranks, wall time)
* step-time sparkline from the flight-recorder journals (``step_end``
  events; falls back to the ``step`` spans of a trace-only bundle)
* physics diagnostics series (``diagnostics.csv``) as inline SVG charts
* model-accuracy closure and counters (measured vs predicted per kernel,
  from ``perf/perf.jsonl``) and the flight recorder's self-measured cost
  (``manifest.json``)
* health events (the ``health`` events of the journals)
* crash post-mortems (``postmortem.json``) — rank, step, last kernel,
  field stats, traceback

The output is a single HTML file with inline CSS and SVG — no external
assets, so it can be attached to a CI run or mailed around as-is.
"""

from __future__ import annotations

import argparse
import csv
import html
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.observability.fingerprint import FingerprintLedger  # noqa: E402
from repro.observability.rundir import RunDir, load_manifest  # noqa: E402
from repro.perfmodel.ledger import PerfLedger  # noqa: E402

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 70rem; color: #1a1a2e; }
h1 { border-bottom: 2px solid #16324f; padding-bottom: .3rem; }
h2 { color: #16324f; margin-top: 2rem; }
table { border-collapse: collapse; margin: .5rem 0; }
th, td { border: 1px solid #c8d1dc; padding: .25rem .6rem; text-align: right; }
th { background: #eef2f7; }
td.l, th.l { text-align: left; }
.ok { color: #15803d; font-weight: 600; }
.bad { color: #b91c1c; font-weight: 600; }
.crashed { color: #b91c1c; font-weight: 600; }
.running { color: #b45309; font-weight: 600; }
.muted { color: #6b7280; font-size: .9rem; }
pre { background: #f6f8fa; padding: .75rem; overflow-x: auto;
      border: 1px solid #c8d1dc; font-size: .85rem; }
svg { background: #fbfcfe; border: 1px solid #c8d1dc; }
.section-missing { color: #9ca3af; font-style: italic; }
"""


def esc(value) -> str:
    return html.escape(str(value))


def fmt(value, digits: int = 3) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}g}" if abs(value) < 1e-3 or abs(value) >= 1e4 \
            else f"{value:.{digits}f}"
    return str(value)


def table(headers, rows, left: set | None = None) -> str:
    left = left or {0}
    out = ["<table><tr>"]
    for i, h in enumerate(headers):
        cls = ' class="l"' if i in left else ""
        out.append(f"<th{cls}>{esc(h)}</th>")
    out.append("</tr>")
    for row in rows:
        out.append("<tr>")
        for i, cell in enumerate(row):
            cls = ' class="l"' if i in left else ""
            out.append(f"<td{cls}>{esc(cell)}</td>")
        out.append("</tr>")
    out.append("</table>")
    return "".join(out)


def svg_line_chart(series, width=640, height=120, label="") -> str:
    """Inline SVG polyline of one numeric series (a sparkline with axes)."""
    points = [float(v) for v in series if v is not None]
    if len(points) < 2:
        return '<p class="section-missing">(not enough points to chart)</p>'
    lo, hi = min(points), max(points)
    span = (hi - lo) or 1.0
    pad = 6
    n = len(points)
    coords = []
    for i, v in enumerate(points):
        x = pad + i * (width - 2 * pad) / (n - 1)
        y = height - pad - (v - lo) * (height - 2 * pad) / span
        coords.append(f"{x:.1f},{y:.1f}")
    return (
        f'<svg width="{width}" height="{height}" role="img" aria-label="{esc(label)}">'
        f'<polyline fill="none" stroke="#16324f" stroke-width="1.5" '
        f'points="{" ".join(coords)}"/>'
        f'<text x="{pad}" y="12" font-size="10" fill="#6b7280">'
        f"{esc(label)} — min {fmt(lo)}, max {fmt(hi)}, last {fmt(points[-1])}</text>"
        "</svg>"
    )


# -- artifact loaders (every one returns None when the artifact is absent) -------


def load_step_seconds(journals, rundir: Path) -> list[float] | None:
    """Per-step wall times: ``step_end`` events of the first journal that has
    any, else the ``step`` spans of ``trace.json``.  One that closes a
    native batch of ``steps`` steps counts as that many equal steps."""
    for journal in journals:
        seconds = [
            per_step
            for e in journal.events
            if e.kind == "step_end" and "seconds" in e.data
            for per_step in _split(e.data["seconds"], e.data.get("steps", 1))
        ]
        if seconds:
            return seconds
    trace = rundir / "trace.json"
    if trace.exists():
        try:
            doc = json.loads(trace.read_text())
        except json.JSONDecodeError:
            return None
        seconds = [
            per_step
            for e in doc.get("traceEvents", [])
            if e.get("ph") == "X" and e.get("name") == "step"
            for per_step in _split(e["dur"] / 1e6, e.get("args", {}).get("steps", 1))
        ]
        if seconds:
            return seconds
    return None


def _split(seconds: float, steps: int) -> list[float]:
    return [float(seconds) / steps] * steps


def load_diagnostics(rundir: Path) -> tuple[list[str], dict] | None:
    path = rundir / "diagnostics.csv"
    if not path.exists():
        return None
    with open(path) as fh:
        reader = csv.DictReader(fh)
        names = [n for n in (reader.fieldnames or []) if n not in ("time_step", "time")]
        columns: dict[str, list] = {n: [] for n in names}
        steps = []
        for row in reader:
            steps.append(row.get("time_step"))
            for n in names:
                try:
                    columns[n].append(float(row[n]))
                except (KeyError, TypeError, ValueError):
                    columns[n].append(None)
    if not steps:
        return None
    return names, columns


def load_json(path: Path):
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError:
        return None


def load_health(journals) -> list[dict] | None:
    """The ``health`` events of every journal (``None``: nothing journaled)."""
    if not journals:
        return None
    return [
        {"check": e.name, **e.data}
        for journal in journals
        for e in journal.events
        if e.kind == "health"
    ]


# -- sections --------------------------------------------------------------------


def section_summary(manifest: dict) -> str:
    status = manifest.get("status", "unknown")
    host = manifest.get("host", {})
    rows = [
        ("status", f'<span class="{esc(status)}">{esc(status)}</span>'),
        ("wall time", f"{manifest.get('wall_seconds', 0):.2f} s"),
        ("git sha", (manifest.get("git_sha") or "-")[:12]),
        ("host", host.get("hostname", "-")),
        ("platform", host.get("platform", "-")),
        ("python", host.get("python", "-")),
        ("started",
         time.strftime("%Y-%m-%d %H:%M:%S UTC",
                       time.gmtime(manifest.get("started_at", 0)))),
    ]
    for key in ("solver", "backend", "ranks", "overlap", "example", "forest", "shape"):
        if key in manifest:
            rows.append((key, esc(manifest[key])))
    if manifest.get("error"):
        rows.append(("error", esc(manifest["error"])))
    body = "".join(
        f'<tr><th class="l">{k}</th><td class="l">{v}</td></tr>' for k, v in rows
    )
    config = manifest.get("config") or {}
    config_html = (
        f"<pre>{esc(json.dumps(config, indent=2))}</pre>" if config else ""
    )
    return f"<h2>Run summary</h2><table>{body}</table>{config_html}"


def section_steps(step_seconds) -> str:
    out = ["<h2>Step time</h2>"]
    if not step_seconds:
        out.append('<p class="section-missing">(no step timings recorded)</p>')
        return "".join(out)
    total = sum(step_seconds)
    mean = total / len(step_seconds)
    out.append(
        f'<p class="muted">{len(step_seconds)} steps, mean '
        f"{mean * 1e3:.3f} ms, total {total:.3f} s</p>"
    )
    out.append(svg_line_chart(
        [s * 1e3 for s in step_seconds], label="step wall time (ms)"
    ))
    return "".join(out)


def section_diagnostics(diag) -> str:
    out = ["<h2>Physics diagnostics</h2>"]
    if diag is None:
        out.append('<p class="section-missing">(no diagnostics.csv)</p>')
        return "".join(out)
    names, columns = diag
    for name in names:
        out.append(svg_line_chart(columns[name], label=name))
        out.append("<br>")
    return "".join(out)


def section_overhead(manifest: dict) -> str:
    overhead = manifest.get("recorder_overhead")
    if not overhead:
        return ""
    return (
        f'<p class="muted">flight-recorder overhead (self-measured): '
        f"{overhead['seconds'] * 1e3:.3f} ms over {overhead['events']} events</p>"
    )


def load_perf_records(rundir: Path) -> list[dict] | None:
    path = rundir / "perf" / "perf.jsonl"
    return PerfLedger(path).load() if path.exists() else None


def section_perf(records) -> str:
    out = ["<h2>Model accuracy and counters (measured vs predicted)</h2>"]
    if not records:
        out.append('<p class="section-missing">(no perf/perf.jsonl — '
                   "run with a RunDir and call export_perf)</p>")
        return "".join(out)
    sources = sorted({
        str(r.get("measured", {}).get("counter_source", "?")) for r in records
    })
    out.append(f'<p class="muted">counter source(s): {esc(", ".join(sources))}, '
               f"{len(records)} record(s)</p>")
    rows = []
    for r in records:
        m = r.get("measured", {})
        p = r.get("predicted") or {}
        ratio = m["mlups"] / p["mlups"] if m.get("mlups") and p.get("mlups") else None
        rows.append((
            r.get("name", "-"),
            fmt(m.get("mlups")), fmt(p.get("mlups")), fmt(ratio),
            fmt(m.get("cycles_per_lup")), fmt(p.get("cycles_per_lup")),
            fmt(m.get("bytes_per_lup")), fmt(p.get("bytes_per_lup")),
            fmt(m.get("ipc")),
        ))
    out.append(table(
        ["series", "MLUP/s", "pred MLUP/s", "measured/predicted", "cy/LUP", "pred cy/LUP",
         "B/LUP", "pred B/LUP", "IPC"], rows
    ))
    return "".join(out)


def load_fingerprints(rundir: Path) -> list[dict] | None:
    path = rundir / "fingerprints.jsonl"
    return FingerprintLedger(path).load() if path.exists() else None


def svg_heatmap(grid, width=320, label="") -> str:
    """Inline SVG of a coarse 2D max-ulp grid (darker = larger ulp)."""
    rows = len(grid)
    cols = len(grid[0]) if rows else 0
    if not rows or not cols:
        return '<p class="section-missing">(empty heatmap)</p>'
    peak = max(max(r) for r in grid) or 1
    cell = max(6, min(24, width // cols))
    w, h = cols * cell, rows * cell
    out = [
        f'<svg width="{w}" height="{h + 16}" role="img" '
        f'aria-label="{esc(label)}">'
    ]
    for i, row in enumerate(grid):
        for j, v in enumerate(row):
            # log-ish shading so a single-ulp cell is still visible
            alpha = 0.08 + 0.92 * ((v / peak) ** 0.4 if v else 0.0)
            fill = f"rgba(153, 27, 27, {alpha:.2f})" if v else "#eef2f7"
            out.append(
                f'<rect x="{j * cell}" y="{i * cell}" width="{cell - 1}" '
                f'height="{cell - 1}" fill="{fill}"><title>'
                f"({i},{j}): {v} ulp</title></rect>"
            )
    out.append(
        f'<text x="0" y="{h + 12}" font-size="10" fill="#6b7280">'
        f"{esc(label)} — peak {peak} ulp</text></svg>"
    )
    return "".join(out)


def section_determinism(records, divergence) -> str:
    out = ["<h2>Determinism</h2>"]
    if records is None and divergence is None:
        out.append('<p class="section-missing">(no fingerprints.jsonl — '
                   "fingerprinting disabled)</p>")
        return "".join(out)
    if records:
        steps = [r.get("step", 0) for r in records]
        fields = sorted((records[0].get("fields") or {}).keys())
        blocks = sum(len(b) for b in (records[0].get("fields") or {}).values())
        out.append(
            f"<p>{len(records)} <code>repro-fingerprint/1</code> records, "
            f"steps {min(steps)}..{max(steps)}, fields "
            f"{esc(', '.join(fields))} ({blocks} (field, block) digests per "
            f"record); last combined digest "
            f"<code>{esc(records[-1].get('digest', '?'))}</code></p>"
        )
    elif records is not None:
        out.append('<p class="section-missing">(fingerprints.jsonl is empty)</p>')
    if divergence is None:
        return "".join(out)
    div = divergence.get("first_divergence")
    if div is None:
        out.append(
            f'<p class="ok">divergence analysis vs '
            f"<code>{esc(divergence.get('b', '?'))}</code>: all "
            f"{divergence.get('common_steps', 0)} common-step records "
            "identical</p>"
        )
        return "".join(out)
    out.append(
        f'<p class="bad">FIRST DIVERGENCE vs '
        f"<code>{esc(divergence.get('b', '?'))}</code> at step "
        f"<b>{div.get('step')}</b>, field <b>{esc(str(div.get('field')))}</b>, "
        f"block <b>({esc(str(div.get('block')))})</b> — "
        f"{div.get('n_mismatches', '?')} (field, block) pair(s) differ</p>"
    )
    context = divergence.get("context") or []
    if context:
        out.append(table(
            ["step", "this run", "reference", "match"],
            [(c.get("step"), c.get("digest_a", "")[:16],
              c.get("digest_b", "")[:16], "ok" if c.get("match") else "DIVERGED")
             for c in context],
            left={1, 2, 3},
        ))
    cp = divergence.get("checkpoint")
    if cp:
        out.append(
            f"<h3>Ulp diff at nearest common checkpoint "
            f"(step {cp.get('step')})</h3>"
        )
        rows = [
            (name, st.get("max_ulp"), fmt(st.get("mean_ulp", 0.0)),
             f"{st.get('mismatch_count')}/{st.get('compared')}",
             st.get("nonfinite_mismatches", 0))
            for name, st in sorted((cp.get("fields") or {}).items())
        ]
        out.append(table(
            ["field", "max ulp", "mean ulp", "cells differing", "non-finite"],
            rows,
        ))
        for name, st in sorted((cp.get("fields") or {}).items()):
            grid = st.get("heatmap")
            if grid and st.get("max_ulp"):
                out.append(svg_heatmap(
                    grid, label=f"{name}: coarse spatial max-ulp map"
                ))
    return "".join(out)


def section_health(events) -> str:
    out = ["<h2>Health events</h2>"]
    if events is None:
        out.append('<p class="section-missing">(no journal — health events '
                   "are journal lines)</p>")
        return "".join(out)
    if not events:
        out.append('<p class="ok">no failed health checks</p>')
        return "".join(out)
    rows = [
        (e.get("time_step"), e.get("check"), e.get("field"),
         e.get("message"), e.get("where") or "-")
        for e in events
    ]
    out.append(table(["step", "check", "field", "message", "where"],
                     rows, left={1, 2, 3, 4}))
    return "".join(out)


def _bundle_rows(bundle: dict) -> str:
    exc = bundle.get("exception") or {}
    last = bundle.get("last_kernel") or {}
    rows = [
        ("rank", bundle.get("rank", "-")),
        ("step", (bundle.get("position") or {}).get("time_step", "-")),
        ("exception", f"{exc.get('type', '-')}: {exc.get('message', '')}"),
        ("last kernel", last.get("name", "-")),
        ("events captured", len(bundle.get("last_events") or [])),
        ("pid / host", f"{bundle.get('pid', '-')} / {bundle.get('host', '-')}"),
    ]
    body = "".join(
        f'<tr><th class="l">{esc(k)}</th><td class="l">{esc(v)}</td></tr>'
        for k, v in rows
    )
    parts = [f"<table>{body}</table>"]
    fields = bundle.get("fields") or {}
    if fields and "error" not in fields:
        frows = []
        for name, st in sorted(fields.items()):
            if not isinstance(st, dict):
                continue
            frows.append((
                name, fmt(st.get("min")), fmt(st.get("max")), fmt(st.get("mean")),
                st.get("nan_count", "-"), st.get("inf_count", "-"),
            ))
        if frows:
            parts.append("<h4>Field state at death</h4>")
            parts.append(table(
                ["field", "min", "max", "mean", "NaN", "Inf"], frows
            ))
    tail = bundle.get("last_events") or []
    if tail:
        shown = tail[-15:]
        lines = [
            f"#{e.get('seq', '?'):>6}  {e.get('kind', ''):<12} "
            f"{e.get('name', '')}  {json.dumps(e.get('data', {}))}"
            for e in shown
        ]
        parts.append(f"<h4>Last {len(shown)} events</h4>"
                     f"<pre>{esc(chr(10).join(lines))}</pre>")
    if exc.get("traceback"):
        parts.append(f"<h4>Traceback</h4><pre>{esc(exc['traceback'])}</pre>")
    return "".join(parts)


def section_postmortem(postmortem) -> str:
    out = ["<h2>Crash post-mortem</h2>"]
    if postmortem is None:
        out.append('<p class="ok">no post-mortems — the run did not crash</p>')
        return "".join(out)
    if "ranks" in postmortem:
        for rank, bundle in sorted(postmortem["ranks"].items()):
            out.append(f"<h3>Rank {esc(rank)}</h3>")
            out.append(_bundle_rows(bundle))
    else:
        out.append(_bundle_rows(postmortem))
    return "".join(out)


def render_report(rundir: Path, manifest: dict) -> str:
    journals = RunDir(rundir, create=False).journals()
    title = f"run report — {rundir.name}"
    sections = [
        section_summary(manifest),
        section_steps(load_step_seconds(journals, rundir)),
        section_overhead(manifest),
        section_diagnostics(load_diagnostics(rundir)),
        section_perf(load_perf_records(rundir)),
        section_determinism(
            load_fingerprints(rundir), load_json(rundir / "divergence.json")
        ),
        section_health(load_health(journals)),
        section_postmortem(load_json(rundir / "postmortem.json")),
    ]
    artifacts = manifest.get("artifacts") or {}
    inventory = table(
        ["artifact", "file"],
        [(k, v if isinstance(v, str) else f"{len(v)} files")
         for k, v in sorted(artifacts.items())],
        left={0, 1},
    )
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{esc(title)}</title><style>{_CSS}</style></head><body>"
        f"<h1>{esc(title)}</h1>"
        + "".join(sections)
        + f"<h2>Artifact inventory</h2>{inventory}"
        + f'<p class="muted">generated by tools/run_report.py — '
        f"manifest schema {esc(manifest.get('schema', '?'))}</p>"
        "</body></html>"
    )


# -- sweep reports (repro-sweep/1 manifests from repro.service.sweep) ----------


def section_sweep_summary(manifest: dict) -> str:
    totals = manifest.get("totals", {})
    cls = "ok" if not totals.get("failed") else "bad"
    rows = [
        ("scenarios ok", totals.get("ok", 0)),
        ("scenarios failed", totals.get("failed", 0)),
        ("workers", manifest.get("workers")),
        ("backend", manifest.get("backend")),
        ("sweep wall (s)", fmt(totals.get("wall_seconds"))),
        ("codegen total (s)", fmt(totals.get("codegen_seconds"))),
        ("throughput (MLUP/s)", fmt(totals.get("throughput_mlups"))),
        ("disk-cache hits / builds",
         f"{totals.get('disk_hits', 0)} / {totals.get('disk_builds', 0)}"),
        ("memory-cache hits / misses",
         f"{totals.get('memory_hits', 0)} / {totals.get('memory_misses', 0)}"),
        ("health events", totals.get("health_events", 0)),
    ]
    status = "ok" if not totals.get("failed") else f"{totals.get('failed')} failed"
    return (
        f'<h2>Sweep summary — <span class="{cls}">{esc(status)}</span></h2>'
        + table(["item", "value"], rows, left={0})
    )


def section_sweep_queue(manifest: dict) -> str:
    samples = manifest.get("queue_depth_samples") or []
    chart = svg_line_chart(
        [s.get("depth") for s in samples], label="task-queue depth over the sweep"
    )
    return "<h2>Queue depth</h2>" + chart


def section_sweep_scenarios(sweep_dir: Path, manifest: dict) -> str:
    rows = []
    charts = []
    for entry in manifest.get("scenarios", []):
        spec = entry.get("spec", {})
        name = entry.get("name") or spec.get("name", "?")
        status = entry.get("status", "?")
        cache = entry.get("cache", {})
        rows.append((
            name,
            spec.get("model", "?"),
            "×".join(str(s) for s in spec.get("shape", [])),
            spec.get("steps", "?"),
            status,
            fmt(entry.get("wall_seconds")),
            fmt(entry.get("codegen_seconds")),
            fmt(entry.get("mlups")),
            f"{cache.get('disk_hits', 0)}/{cache.get('disk_builds', 0)}",
            entry.get("health_events", "-"),
        ))
        if status == "ok" and entry.get("rundir"):
            rundir = Path(entry["rundir"])
            if not rundir.is_absolute():
                rundir = sweep_dir / rundir
            diag = load_diagnostics(rundir)
            if diag:
                names, columns = diag
                interesting = [n for n in names if n not in ("time_step", "time")]
                if interesting:
                    charts.append(
                        f"<h3>{esc(name)}</h3>"
                        + svg_line_chart(
                            columns[interesting[0]],
                            width=420,
                            height=90,
                            label=f"{name}: {interesting[0]}",
                        )
                    )
        elif status != "ok":
            charts.append(
                f"<h3>{esc(name)}</h3><pre>{esc(entry.get('error', 'failed'))}</pre>"
            )
    return (
        "<h2>Scenarios</h2>"
        + table(
            ["scenario", "model", "shape", "steps", "status", "wall s",
             "codegen s", "MLUP/s", "disk hit/build", "health"],
            rows,
        )
        + "".join(charts)
    )


def render_sweep_report(sweep_dir: Path, manifest: dict) -> str:
    title = f"sweep report — {sweep_dir.name}"
    sections = [
        section_sweep_summary(manifest),
        section_sweep_queue(manifest),
        section_sweep_scenarios(sweep_dir, manifest),
    ]
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{esc(title)}</title><style>{_CSS}</style></head><body>"
        f"<h1>{esc(title)}</h1>"
        + "".join(sections)
        + '<p class="muted">generated by tools/run_report.py — '
        f"manifest schema {esc(manifest.get('schema', '?'))}</p>"
        "</body></html>"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("rundir", help="run directory, sweep directory, or manifest")
    ap.add_argument("--out", metavar="PATH",
                    help="output HTML path (default <rundir>/report.html)")
    args = ap.parse_args(argv)

    path = Path(args.rundir)
    if path.is_file():
        path = path.parent
    if (path / "sweep.json").exists():
        from repro.service.sweep import load_sweep_manifest

        try:
            manifest = load_sweep_manifest(path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        out = Path(args.out) if args.out else path / "report.html"
        out.write_text(render_sweep_report(path, manifest))
        print(f"sweep report written to {out}")
        return 0
    try:
        manifest = load_manifest(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else path / "report.html"
    out.write_text(render_report(path, manifest))
    print(f"report written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
