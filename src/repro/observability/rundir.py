"""Per-run artifact bundles: one directory, one manifest, every artifact.

Every run used to scatter its outputs across ad-hoc paths — a trace here,
a metrics dump there, checkpoints wherever the caller pointed them.
:class:`RunDir` gives a run a single home::

    run-2026-08-08/
      manifest.json        # config, git rev, host, backend, ranks, wall
      trace.json           # Chrome-trace rendering of the journals
      metrics.prom         # Prometheus text-format metrics snapshot
      metrics.json         # same registry, JSON form
      diagnostics.csv      # in-situ physics diagnostics series
      fingerprints.jsonl   # repro-fingerprint/1 determinism ledger
      journal.jsonl        # flight-recorder event journal: every span,
                           # step, op, counter, fingerprint, health event
      journal.rank3.jsonl  # per-rank journals under launch_ranks
      postmortem.json      # crash bundles, when a run dies
      checkpoints/         # solver checkpoints
      perf/                # repro-perf/1 kernel counter/closure records
      report.html          # tools/run_report.py output

``manifest.json`` (schema ``repro-run/1``) is the index: what the run
was (config, git sha, host, backend, ranks), how it went (status,
wall-clock), and which artifacts exist.  ``tools/run_report.py`` renders
a manifest into a self-contained HTML report; the sweep driver
(ROADMAP item 3) will treat a directory of RunDirs as its job store.

Use it as a context manager for automatic status tracking::

    with RunDir("runs/demo", config={"steps": 100}) as rundir:
        solver = SingleBlockSolver(..., rundir=rundir)
        ...
    # manifest.json now says status="ok" (or "crashed" + postmortem.json)
"""

from __future__ import annotations

import functools
import json
import os
import platform
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from .recorder import get_recorder, load_journal

__all__ = [
    "MANIFEST_SCHEMA",
    "RunDir",
    "get_rundir",
    "git_sha",
    "set_rundir",
    "load_manifest",
]

MANIFEST_SCHEMA = "repro-run/1"

#: canonical artifact names, also the manifest's inventory keys
_ARTIFACTS = {
    "trace": "trace.json",
    "metrics_prom": "metrics.prom",
    "metrics_json": "metrics.json",
    "diagnostics": "diagnostics.csv",
    "fingerprints": "fingerprints.jsonl",
    "journal": "journal.jsonl",
    "postmortem": "postmortem.json",
    "report": "report.html",
}


@functools.cache
def git_sha() -> str | None:
    """The repo's git commit sha, or ``None`` outside a work tree.

    Cached: one ``git`` process per run, shared by the manifest and every
    perf-ledger record.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parents[3],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


class RunDir:
    """One run's artifact directory plus its ``manifest.json``."""

    def __init__(self, path, config: dict | None = None, create: bool = True):
        self.path = Path(path)
        self.config = dict(config or {})
        self._started = time.time()
        self._notes: dict = {}
        self._lock = threading.Lock()
        self._previous_rundir = None
        if create:
            self.path.mkdir(parents=True, exist_ok=True)
            self.checkpoint_dir.mkdir(exist_ok=True)

    # -- canonical paths -------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.path / "manifest.json"

    @property
    def trace_path(self) -> Path:
        return self.path / _ARTIFACTS["trace"]

    @property
    def metrics_path(self) -> Path:
        return self.path / _ARTIFACTS["metrics_prom"]

    @property
    def metrics_json_path(self) -> Path:
        return self.path / _ARTIFACTS["metrics_json"]

    @property
    def diagnostics_path(self) -> Path:
        return self.path / _ARTIFACTS["diagnostics"]

    @property
    def fingerprint_path(self) -> Path:
        """The run's ``repro-fingerprint/1`` determinism ledger."""
        return self.path / _ARTIFACTS["fingerprints"]

    @property
    def postmortem_path(self) -> Path:
        return self.path / _ARTIFACTS["postmortem"]

    @property
    def report_path(self) -> Path:
        return self.path / _ARTIFACTS["report"]

    @property
    def checkpoint_dir(self) -> Path:
        return self.path / "checkpoints"

    @property
    def perf_dir(self) -> Path:
        return self.path / "perf"

    @property
    def perf_path(self) -> Path:
        """The run's ``repro-perf/1`` ledger (kernel counters + closure)."""
        return self.perf_dir / "perf.jsonl"

    def journal_path(self, rank: int | None = None) -> Path:
        """The JSONL journal path; rank-suffixed under multi-rank launches."""
        if rank is None:
            return self.path / _ARTIFACTS["journal"]
        return self.path / f"journal.rank{int(rank)}.jsonl"

    def journals(self) -> list:
        """Every journal of the run, read back as rank-tagged recorders.

        The main-process journal first (``rank=None``), then the per-rank
        ones by rank — the input of
        :func:`~repro.observability.recorder.chrome_trace`.
        """
        found = []
        if self.journal_path().exists():
            found.append(load_journal(self.journal_path()))
        ranked = {
            int(p.name.split(".")[1].removeprefix("rank")): p
            for p in self.path.glob("journal.rank*.jsonl")
        }
        return found + [load_journal(ranked[rank], rank) for rank in sorted(ranked)]

    # -- manifest --------------------------------------------------------------

    def note(self, **fields) -> None:
        """Merge free-form metadata (backend, ranks, …) into the manifest."""
        with self._lock:
            self._notes.update(fields)

    def artifacts(self) -> dict:
        """Inventory of the canonical artifacts that exist right now."""
        found = {}
        for key, filename in _ARTIFACTS.items():
            if (self.path / filename).exists():
                found[key] = filename
        journals = sorted(
            p.name for p in self.path.glob("journal.rank*.jsonl")
        )
        if journals:
            found["rank_journals"] = journals
        checkpoints = sorted(p.name for p in self.checkpoint_dir.glob("*"))
        if checkpoints:
            found["checkpoints"] = checkpoints
        perf = sorted(p.name for p in self.perf_dir.glob("*")) \
            if self.perf_dir.is_dir() else []
        if perf:
            found["perf"] = perf
        return found

    def write_manifest(self, status: str = "running", **extra) -> dict:
        """Write ``manifest.json``; returns the manifest dict."""
        with self._lock:
            notes = dict(self._notes)
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "status": status,
            "started_at": self._started,
            "wall_seconds": time.time() - self._started,
            "git_sha": git_sha(),
            "host": {
                "hostname": socket.gethostname(),
                "platform": platform.platform(),
                "python": sys.version.split()[0],
                "machine": platform.machine(),
                "pid": os.getpid(),
            },
            "config": self.config,
            "artifacts": self.artifacts(),
        }
        manifest.update(notes)
        manifest.update(extra)
        with open(self.manifest_path, "w") as handle:
            json.dump(manifest, handle, indent=2, default=repr)
            handle.write("\n")
        return manifest

    # -- context manager -------------------------------------------------------

    def __enter__(self):
        self._previous_rundir = set_rundir(self)
        self.write_manifest(status="running")
        return self

    def __exit__(self, exc_type, exc, tb):
        # the run is over: left open, its journal would keep receiving the
        # events of every later run in this process, at the journal price
        recorder = get_recorder()
        journal = recorder.journal_path
        if journal is not None and Path(journal).parent == self.path:
            recorder.close_journal()
        try:
            if exc is not None:
                # a RankError arrives with the per-rank bundles already on
                # disk (written by the rank runtime, with positions and
                # field stats captured IN the dying ranks) — don't clobber
                # that richer document with a parent-side capture
                if not self.postmortem_path.exists():
                    from .postmortem import capture_postmortem, write_postmortem

                    try:
                        bundle = capture_postmortem(exc)
                        write_postmortem(bundle, self.postmortem_path)
                    except Exception:
                        pass  # forensics must not mask the original exception
                self.write_manifest(status="crashed", error=f"{exc_type.__name__}: {exc}")
            else:
                self.write_manifest(status="ok")
        finally:
            set_rundir(self._previous_rundir)
        return False

    def __repr__(self):
        return f"RunDir({str(self.path)!r})"


_CURRENT_RUNDIR: RunDir | None = None


def get_rundir() -> RunDir | None:
    """The active :class:`RunDir`, or ``None`` outside a run context."""
    return _CURRENT_RUNDIR


def set_rundir(rundir: RunDir | None) -> RunDir | None:
    """Install *rundir* as the active one; returns the previous."""
    global _CURRENT_RUNDIR
    previous = _CURRENT_RUNDIR
    _CURRENT_RUNDIR = rundir
    return previous


def load_manifest(path) -> dict:
    """Load ``manifest.json`` given either its path or the run directory."""
    path = Path(path)
    if path.is_dir():
        path = path / "manifest.json"
    with open(path) as handle:
        manifest = json.load(handle)
    if manifest.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(
            f"{path}: schema is {manifest.get('schema')!r}, expected {MANIFEST_SCHEMA!r}"
        )
    return manifest
