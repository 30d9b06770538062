"""Structured benchmark trajectory: machine-readable BENCH JSON documents.

The scaling and kernel benchmarks used to emit only human-readable
``benchmarks/results/*.txt`` tables — no machine-readable trajectory to
track regressions against.  This module defines the shared schema and
writer behind ``BENCH_scaling.json`` / ``BENCH_kernels.json`` at the repo
root, consumed by ``tools/bench_regress.py``.

Document schema (``repro-bench/1``)::

    {
      "schema": "repro-bench/1",
      "suite": "scaling",                  # or "kernels"
      "git_sha": "abc123..." | null,
      "timestamp": "2026-08-05T12:00:00+00:00",
      "host": {"platform": ..., "python": ..., "machine": ...},
      "records": [
        {
          "name": "fig3_right_strong_scaling/cores=48",
          "params": {"cores": 48, "domain": "512x256x256"},
          "metrics": {"mlups": 123.4, "parallel_efficiency": 0.97}
        },
        ...
      ]
    }

``metrics`` values must be finite numbers; by convention names containing
``seconds``/``time``/``latency``/``_ms``/``_us``/``_ns`` are
lower-is-better, everything else (MLUP/s, efficiencies, speedups)
higher-is-better — the convention
``tools/bench_regress.py`` uses to decide the direction of a regression.
"""

from __future__ import annotations

import json
import math
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

__all__ = [
    "BENCH_SCHEMA",
    "BenchSchemaError",
    "BenchWriter",
    "git_sha",
    "load_bench_document",
    "validate_bench_document",
    "lower_is_better",
]

BENCH_SCHEMA = "repro-bench/1"

#: metric-name substrings that flip the regression direction
_LOWER_BETTER_MARKERS = ("seconds", "time", "latency", "_ms", "_us", "_ns")


class BenchSchemaError(ValueError):
    """A BENCH document does not conform to the ``repro-bench/1`` schema."""


def lower_is_better(metric_name: str) -> bool:
    """Whether smaller values of *metric_name* are improvements."""
    name = metric_name.lower()
    return any(marker in name for marker in _LOWER_BETTER_MARKERS)


def git_sha(repo_root=None) -> str | None:
    """The current git commit sha, or ``None`` outside a work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_root or Path(__file__).resolve().parents[3],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


class BenchWriter:
    """Collects named benchmark records and writes one BENCH JSON document."""

    def __init__(self, suite: str, repo_root=None):
        if not suite or not isinstance(suite, str):
            raise ValueError("suite must be a non-empty string")
        self.suite = suite
        self.repo_root = repo_root
        self.records: list[dict] = []

    def add(self, name: str, params: dict | None = None, **metrics) -> dict:
        """Append one record; *metrics* must be finite numbers.

        Re-adding an existing *name* replaces the old record, so reruns
        within one session stay idempotent.
        """
        if not name:
            raise ValueError("record needs a name")
        if not metrics:
            raise ValueError(f"record {name!r} needs at least one metric")
        clean = {}
        for key, value in metrics.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"metric {key}={value!r} is not a number")
            if not math.isfinite(value):
                raise ValueError(f"metric {key}={value!r} is not finite")
            clean[key] = float(value)
        record = {"name": name, "params": dict(params or {}), "metrics": clean}
        self.records = [r for r in self.records if r["name"] != name]
        self.records.append(record)
        return record

    def document(self) -> dict:
        return {
            "schema": BENCH_SCHEMA,
            "suite": self.suite,
            "git_sha": git_sha(self.repo_root),
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "host": {
                "platform": platform.platform(),
                "python": sys.version.split()[0],
                "machine": platform.machine(),
            },
            "records": self.records,
        }

    def write(self, path) -> str:
        """Write the document (validated) to *path*; returns the path."""
        doc = self.document()
        validate_bench_document(doc)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return str(path)


def validate_bench_document(doc) -> dict:
    """Raise :class:`BenchSchemaError` unless *doc* is a valid document."""
    if not isinstance(doc, dict):
        raise BenchSchemaError(f"document is {type(doc).__name__}, expected object")
    if doc.get("schema") != BENCH_SCHEMA:
        raise BenchSchemaError(
            f"schema is {doc.get('schema')!r}, expected {BENCH_SCHEMA!r}"
        )
    if not isinstance(doc.get("suite"), str) or not doc["suite"]:
        raise BenchSchemaError("suite missing or not a string")
    records = doc.get("records")
    if not isinstance(records, list):
        raise BenchSchemaError("records missing or not a list")
    seen = set()
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise BenchSchemaError(f"record {i} is not an object")
        name = rec.get("name")
        if not isinstance(name, str) or not name:
            raise BenchSchemaError(f"record {i} has no name")
        if name in seen:
            raise BenchSchemaError(f"duplicate record name {name!r}")
        seen.add(name)
        metrics = rec.get("metrics")
        if not isinstance(metrics, dict) or not metrics:
            raise BenchSchemaError(f"record {name!r} has no metrics")
        for key, value in metrics.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool) \
                    or not math.isfinite(value):
                raise BenchSchemaError(
                    f"record {name!r} metric {key}={value!r} is not a finite number"
                )
        if "params" in rec and not isinstance(rec["params"], dict):
            raise BenchSchemaError(f"record {name!r} params is not an object")
    return doc


def load_bench_document(path) -> dict:
    """Load and validate a BENCH JSON document from *path*."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise BenchSchemaError(f"{path}: unreadable ({exc})") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BenchSchemaError(f"{path}: invalid JSON ({exc})") from exc
    return validate_bench_document(doc)
