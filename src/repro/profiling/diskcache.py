"""Persistent cross-process compiled-kernel cache (content-addressed store).

The paper's premise is that code-generation cost is paid *once* and
amortized over massive runs — yet the in-memory kernel cache
(:mod:`repro.profiling.cache`) dies with the process, so every new worker
in a parameter study pays the full sympy→CSE→C→gcc latency again.  This
module is the missing tier: an on-disk, content-addressed ``.so`` store
shared by every process of every run.

Layout (one directory per cache key)::

    <cache_root>/
      <key[:2]>/<key>/
        kernel.so      # the published artifact — appears ATOMICALLY
        kernel.c       # generated source (provenance, reused on hits)
        meta.json      # key inputs: fingerprint, compiler, flags, revision
        builds.jsonl   # one line per actual build (the exactly-once sentinel)
        lock           # fcntl.flock advisory lock file

Key schema — a key names the *exact* binary that any conforming process
would build, so a hit can never hand back a stale or wrong-ISA artifact::

    key = sha256(schema | backend | content digest (kernel IR fingerprint
                 or source digest) | codegen revision (hash of the emitter
                 and every module it imports, :func:`codegen_sources`) |
                 compiler identity (path + --version banner) | flag list)

Publication protocol (concurrent processes compile each kernel at most
once, and **no** code path can ever load a partial ``.so``):

1. lock-free fast path: if ``kernel.so`` exists it is complete (it only
   ever appears via ``os.replace``) — hit;
2. take an exclusive ``flock`` on ``<entry>/lock`` (a killed holder's
   lock is released by the kernel when its fd closes);
3. re-check ``kernel.so`` — a racer may have published while we waited;
4. build into ``.tmp.<pid>.<nonce>`` *inside the entry directory* (same
   filesystem), fsync, then ``os.replace`` onto ``kernel.so``;
5. append one line to ``builds.jsonl`` while still holding the lock.

A process killed mid-compile leaves only a ``.tmp.*`` orphan (swept by
the next lock holder) — never a readable ``kernel.so``.

The cache lives in a per-user XDG directory (``$XDG_CACHE_HOME/repro/
kernels``), **not** world-writable ``/tmp``: no cross-user collisions, no
hostile sibling pre-planting a binary at a predictable path.  Override
with ``REPRO_CACHE_DIR`` (tests point it at a tmpdir; clusters point it
at a node-local scratch).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from ..observability.log import get_logger, kv
from ..observability.metrics import get_registry

try:  # pragma: no cover - fcntl exists on every POSIX platform we target
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

__all__ = [
    "CACHE_SCHEMA",
    "DiskCacheStats",
    "KernelDiskCache",
    "cache_key",
    "cache_root",
    "codegen_revision",
    "codegen_sources",
    "compiler_identity",
    "disk_cache_stats",
    "reset_disk_cache_stats",
]

CACHE_SCHEMA = "repro-kernel-cache/1"

#: where the emitted C text is made: the emitter, and the kernel IR it prints
_CODEGEN_ROOTS = ("backends/c_backend.py", "ir/kernel.py")
#: ... and how far their imports are followed.  What the other packages do
#: to a kernel (discretization, simplification) is in its assignments, which
#: the kernel fingerprint hashes
_CODEGEN_PACKAGES = ("symbolic", "ir", "backends")
_SRC_ROOT = Path(__file__).resolve().parents[1]
_RELATIVE_IMPORT = re.compile(rb"^\s*from (\.+)([\w.]*) import ", re.MULTILINE)

_log = get_logger("profiling.diskcache")

_LOCK = threading.Lock()
_HITS = 0
_MISSES = 0
_BUILDS = 0

_IDENTITY_CACHE: dict[str, dict] = {}
_REVISION: str | None = None


@dataclass(frozen=True)
class DiskCacheStats:
    """Snapshot of this process's disk-tier counters."""

    hits: int
    misses: int
    builds: int

    def __str__(self):
        return (
            f"kernel disk cache: {self.hits} hits, {self.misses} misses, "
            f"{self.builds} builds"
        )


def disk_cache_stats() -> DiskCacheStats:
    with _LOCK:
        return DiskCacheStats(hits=_HITS, misses=_MISSES, builds=_BUILDS)


def reset_disk_cache_stats() -> None:
    global _HITS, _MISSES, _BUILDS
    with _LOCK:
        _HITS = _MISSES = _BUILDS = 0


def cache_root() -> Path:
    """The persistent cache directory (``REPRO_CACHE_DIR`` overrides XDG).

    Defaults to ``$XDG_CACHE_HOME/repro/kernels`` (``~/.cache/repro/
    kernels``) — per-user, so two users on one host never collide and
    nobody else can pre-plant artifacts at a predictable shared path.
    """
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "kernels"


def compiler_identity(cc: str | None = None) -> dict:
    """Identity of the compiler a build would use: path + version banner.

    Cached per compiler path for the life of the process; folded into
    every cache key so switching ``CC``, upgrading the toolchain, or
    moving a shared cache to a host with a different compiler never
    silently reuses a stale (or wrong-ISA, under ``-march=native``)
    binary.
    """
    cc = cc or os.environ.get("CC", "cc")
    cached = _IDENTITY_CACHE.get(cc)
    if cached is not None:
        return cached
    try:
        out = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=30
        )
        version = (out.stdout or out.stderr).splitlines()[0].strip() if (
            out.stdout or out.stderr
        ) else "unknown"
    except (OSError, subprocess.TimeoutExpired, IndexError):
        version = "unavailable"
    identity = {"cc": cc, "version": version}
    _IDENTITY_CACHE[cc] = identity
    return identity


def codegen_sources() -> dict[str, bytes]:
    """The modules whose bytes define the codegen revision, by relative path.

    Derived, not listed: :data:`_CODEGEN_ROOTS` and every module they
    import, transitively, inside :data:`_CODEGEN_PACKAGES` — the layout
    rule the emitter prints (``symbolic/field.py``) and the printer mixins
    (``symbolic/ordering.py``) are in it because ``c_backend`` imports
    them.  An import that names a package stands for its ``__init__``.
    """
    sources: dict[str, bytes] = {}
    todo = list(_CODEGEN_ROOTS)
    while todo:
        rel = todo.pop()
        if rel in sources:
            continue
        sources[rel] = text = (_SRC_ROOT / rel).read_bytes()
        package = rel.split("/")[:-1]
        for dots, module in _RELATIVE_IMPORT.findall(text):
            # one dot is the module's own package, every further dot one up
            parts = package[: len(package) + 1 - len(dots)]
            parts += filter(None, module.decode().split("."))
            if not parts or parts[0] not in _CODEGEN_PACKAGES:
                continue
            target = "/".join(parts)
            if not (_SRC_ROOT / f"{target}.py").is_file():
                target += "/__init__"
            todo.append(f"{target}.py")
    return dict(sorted(sources.items()))


def codegen_revision() -> str:
    """Hash of the codegen sources — bumps automatically on any edit.

    Covers :func:`codegen_sources`: a change to any of them may change the
    emitted program, so every cached binary built under the old revision
    is invalidated.
    """
    global _REVISION
    if _REVISION is not None:
        return _REVISION
    h = hashlib.sha256()
    for rel, text in codegen_sources().items():
        h.update(rel.encode() + b"\x00" + text + b"\x00")
    _REVISION = h.hexdigest()[:16]
    return _REVISION


def cache_key(
    content_digest: str,
    *,
    flags: tuple[str, ...] | list[str] = (),
    backend: str = "c",
    cc: str | None = None,
) -> str:
    """Content-addressed key for one compiled artifact.

    *content_digest* is the structural kernel-IR fingerprint
    (:func:`repro.profiling.kernel_fingerprint`) — or a raw source digest
    for artifacts built outside the kernel pipeline.  The key additionally
    folds the cache schema, backend, codegen revision, compiler identity
    and the exact flag list, so any input that could change the binary
    changes the key.
    """
    identity = compiler_identity(cc)
    h = hashlib.sha256()
    for part in (
        CACHE_SCHEMA,
        backend,
        content_digest,
        codegen_revision(),
        identity["cc"],
        identity["version"],
        "|".join(flags),
    ):
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


class _FileLock:
    """Exclusive advisory flock with a deadline; released on process death."""

    def __init__(self, path: Path, timeout: float = 600.0):
        self.path = path
        self.timeout = timeout
        self._fd: int | None = None

    def __enter__(self):
        self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            return self
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                fcntl.flock(self._fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                return self
            except OSError:
                if time.monotonic() >= deadline:
                    os.close(self._fd)
                    self._fd = None
                    raise TimeoutError(
                        f"could not acquire kernel-cache lock {self.path} "
                        f"within {self.timeout}s (another process stuck "
                        f"compiling?)"
                    ) from None
                time.sleep(0.02)

    def __exit__(self, *exc):
        if self._fd is not None:
            if fcntl is not None:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
            os.close(self._fd)
            self._fd = None
        return False


class KernelDiskCache:
    """Content-addressed artifact store with locked, atomic publication."""

    #: name of the published artifact inside an entry directory
    ARTIFACT = "kernel.so"

    def __init__(self, root=None, lock_timeout: float = 600.0):
        self.root = Path(root) if root is not None else cache_root()
        self.lock_timeout = lock_timeout

    # -- paths -----------------------------------------------------------------

    def entry_dir(self, key: str) -> Path:
        return self.root / key[:2] / key

    def artifact_path(self, key: str, artifact: str | None = None) -> Path:
        return self.entry_dir(key) / (artifact or self.ARTIFACT)

    # -- read side -------------------------------------------------------------

    def lookup(self, key: str, artifact: str | None = None) -> Path | None:
        """The published artifact path, or ``None`` — never a partial file."""
        path = self.artifact_path(key, artifact)
        return path if path.exists() else None

    def load_source(self, key: str) -> str | None:
        """The generated source stored beside the artifact, if present."""
        path = self.entry_dir(key) / "kernel.c"
        try:
            return path.read_text()
        except OSError:
            return None

    def load_meta(self, key: str) -> dict | None:
        try:
            return json.loads((self.entry_dir(key) / "meta.json").read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def build_count(self, key: str) -> int:
        """How many actual builds ever published into this entry."""
        try:
            text = (self.entry_dir(key) / "builds.jsonl").read_text()
        except OSError:
            return 0
        return sum(1 for line in text.splitlines() if line.strip())

    # -- write side ------------------------------------------------------------

    def get_or_build(
        self,
        key: str,
        build,
        *,
        source: str | None = None,
        meta: dict | None = None,
        artifact: str | None = None,
    ) -> tuple[Path, bool]:
        """Return ``(path, hit)`` for the artifact under *key*.

        On a miss, ``build(tmp_path)`` must write the complete artifact at
        *tmp_path* (or raise — a failed build publishes nothing).  The
        temp file lives in the entry directory, so the final
        ``os.replace`` is an atomic same-filesystem rename: concurrent
        readers either see the complete artifact or none at all.
        """
        global _HITS, _MISSES, _BUILDS
        registry = get_registry()
        final = self.artifact_path(key, artifact)
        if final.exists():
            self._count_hit(registry)
            return final, True
        entry = self.entry_dir(key)
        entry.mkdir(parents=True, exist_ok=True)
        with _FileLock(entry / "lock", timeout=self.lock_timeout):
            if final.exists():
                # a racer published while we waited for the lock
                self._count_hit(registry)
                return final, True
            self._sweep_orphans(entry)
            tmp = entry / f".tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
            try:
                build(tmp)
                if not tmp.exists():
                    raise RuntimeError(
                        f"builder for {key[:12]} produced no artifact"
                    )
                if source is not None:
                    self._write_atomic(entry / "kernel.c", source)
                record = dict(meta or {})
                record.setdefault("schema", CACHE_SCHEMA)
                record["key"] = key
                record["size_bytes"] = tmp.stat().st_size
                record["created"] = time.time()
                self._write_atomic(
                    entry / "meta.json", json.dumps(record, indent=1, default=repr)
                )
                os.replace(tmp, final)  # ATOMIC publication
            finally:
                tmp.unlink(missing_ok=True)
            # the exactly-once sentinel: one line per actual build, appended
            # under the same lock that serialized the build itself
            with open(entry / "builds.jsonl", "a") as fh:
                fh.write(json.dumps({"pid": os.getpid(), "time": time.time()}) + "\n")
        with _LOCK:
            _MISSES += 1
            _BUILDS += 1
        registry.counter(
            "repro_kernel_cache_disk_misses_total",
            "persistent kernel-cache misses (artifact built)",
        ).inc()
        registry.gauge(
            "repro_kernel_cache_disk_bytes",
            "total bytes of published artifacts in the persistent cache",
        ).set(self.total_bytes())
        _log.info(
            kv(
                "disk_cache_built",
                key=key[:12],
                bytes=final.stat().st_size,
                root=str(self.root),
            )
        )
        return final, False

    def _count_hit(self, registry) -> None:
        global _HITS
        with _LOCK:
            _HITS += 1
        registry.counter(
            "repro_kernel_cache_disk_hits_total",
            "persistent kernel-cache hits (compile skipped)",
        ).inc()

    @staticmethod
    def _write_atomic(path: Path, text: str) -> None:
        tmp = path.with_name(f".tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}")
        tmp.write_text(text)
        os.replace(tmp, path)

    @staticmethod
    def _sweep_orphans(entry: Path) -> None:
        """Drop temp files left by builders that were killed mid-compile."""
        for orphan in entry.glob(".tmp.*"):
            try:
                orphan.unlink()
            except OSError:
                pass

    # -- maintenance -----------------------------------------------------------

    def entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(
            p for p in self.root.glob("??/*") if p.is_dir()
        )

    def total_bytes(self) -> int:
        """Bytes of *published* artifacts (temp orphans excluded)."""
        total = 0
        for entry in self.entries():
            for name in (self.ARTIFACT, "bench"):
                path = entry / name
                try:
                    total += path.stat().st_size
                except OSError:
                    pass
        return total

    def purge(self) -> int:
        """Remove every cache entry; returns how many were dropped."""
        import shutil

        dropped = 0
        for entry in self.entries():
            shutil.rmtree(entry, ignore_errors=True)
            dropped += 1
        get_registry().gauge(
            "repro_kernel_cache_disk_bytes",
            "total bytes of published artifacts in the persistent cache",
        ).set(0)
        if dropped:
            _log.info(kv("disk_cache_purged", entries=dropped, root=str(self.root)))
        return dropped

    def __repr__(self):
        return f"KernelDiskCache({str(self.root)!r})"
