"""Persistent cross-process kernel cache (content-addressed store).

The paper's premise is that code-generation cost is paid *once* and
amortized over massive runs — yet the in-memory kernel cache
(:mod:`repro.profiling.cache`) dies with the process, so every new worker
in a parameter study pays the full sympy→CSE→C→gcc latency again.  This
module is the missing tier: an on-disk store shared by every process of
every run, holding two kinds of artifact:

* ``kernel.so`` — a compiled kernel (or the native fill and runner),
  keyed by its content: :func:`cache_key`;
* ``kernels.pickle`` — the IR tier: a model's derived kernel set
  (:meth:`repro.pfm.GrandPotentialModel.create_kernels`), keyed by the
  derivation's inputs: :func:`ir_cache_key`.  A warm process loads it
  instead of re-deriving it with sympy (:meth:`KernelDiskCache.load_or_derive`).

Layout (one directory per cache key, one artifact kind per entry)::

    <cache_root>/
      <key[:2]>/<key>/
        kernel.so      # the published artifact — appears ATOMICALLY
        kernel.c       # generated source (provenance, reused on hits)
        kernels.pickle # ... or, in an IR entry, the pickled kernel set
        meta.json      # key inputs: fingerprint, compiler, flags, revision
        builds.jsonl   # one line per actual build (the exactly-once sentinel)
        lock           # fcntl.flock advisory lock file

Key schemas — a key names the *exact* artifact that any conforming process
would build, so a hit can never hand back a stale or wrong-ISA artifact::

    key = sha256(schema | backend | content digest (kernel IR fingerprint
                 or source digest) | codegen revision (hash of the emitter
                 and every module it imports, :func:`codegen_sources`) |
                 compiler identity (path + --version banner) | flag list)

    ir key = sha256(schema | "ir" | IR revision (hash of ``pfm/model.py``,
                    ``profiling/cache.py`` and every module they import
                    inside the packages that shape a kernel's IR,
                    :func:`ir_revision`) | python,
                    sympy and numpy versions | pickle protocol | the
                    derivation's inputs: parameter digest and arguments)

The IR key carries no string-hash seed: a derived kernel set is the same
under any ``PYTHONHASHSEED`` (``tests/test_codegen_ledger.py`` pins it).
Unpickling an IR entry runs code named by the file, so the cache directory
is trusted exactly as far as ``dlopen``-ing one of its ``kernel.so``.

Publication protocol (concurrent processes build each artifact at most
once, and **no** code path can ever load a partial one):

1. lock-free fast path: if ``kernel.so`` exists it is complete (it only
   ever appears via ``os.replace``) — hit;
2. take an exclusive ``flock`` on ``<entry>/lock`` (a killed holder's
   lock is released by the kernel when its fd closes);
3. re-check ``kernel.so`` — a racer may have published while we waited;
4. build into ``.tmp.<pid>.<nonce>`` *inside the entry directory* (same
   filesystem), fsync, then ``os.replace`` onto ``kernel.so``;
5. append one line to ``builds.jsonl`` while still holding the lock.

A process killed mid-compile leaves only a ``.tmp.*`` orphan (swept by
the next lock holder) — never a readable ``kernel.so``.  An IR entry that
does not unpickle to a kernel set (truncated, garbled, another shape) is
never fatal: it is logged as ``disk_cache_entry_unusable``, evicted under
the lock, derived again and republished.

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
import pickle
import re
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from ..observability.log import get_logger, kv

try:  # pragma: no cover - fcntl exists on every POSIX platform we target
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

__all__ = [
    "CACHE_SCHEMA",
    "DiskCacheStats",
    "KernelDiskCache",
    "add_disk_cache_stats",
    "cache_key",
    "cache_root",
    "codegen_revision",
    "codegen_sources",
    "compiler_identity",
    "disk_cache_stats",
    "ir_cache_key",
    "ir_revision",
    "reset_disk_cache_stats",
]

CACHE_SCHEMA = "repro-kernel-cache/1"

#: where the emitted C text is made: the emitter, and the kernel IR it prints
_CODEGEN_ROOTS = ("backends/c_backend.py", "ir/kernel.py")
#: ... and how far their imports are followed.  What the other packages do
#: to a kernel (discretization, simplification) is in its assignments, which
#: the kernel fingerprint hashes
_CODEGEN_PACKAGES = ("symbolic", "ir", "backends")
#: where a model's kernel set is derived (the IR tier), the module of
#: ``kernel_fingerprint``, whose memo a set derived with its binaries carries,
#: and the operation weights the choice of a system's kernel form reads ...
_IR_ROOTS = ("pfm/model.py", "profiling/cache.py", "perfmodel/flops.py")
#: ... and the packages whose modules shape it: the model's physics, the
#: symbolic layer, discretization, the simplification passes and the IR
_IR_PACKAGES = ("pfm", "symbolic", "discretization", "simplification", "ir")
#: how an IR artifact is pickled (a key input: another protocol, another key)
_IR_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL
_SRC_ROOT = Path(__file__).resolve().parents[1]
_RELATIVE_IMPORT = re.compile(rb"^\s*from (\.+)([\w.]*) import ", re.MULTILINE)

_log = get_logger("profiling.diskcache")

_LOCK = threading.Lock()
_HITS = 0
_MISSES = 0
_BUILDS = 0
_IR_HITS = 0
_IR_DERIVATIONS = 0

_IDENTITY_CACHE: dict[str, dict] = {}
_REVISION: str | None = None
_IR_REVISION: str | None = None


@dataclass(frozen=True)
class DiskCacheStats:
    """Snapshot of this process's disk-tier counters.

    ``hits`` / ``misses`` / ``builds`` count compiled artifacts only;
    ``ir_hits`` / ``ir_derivations`` count kernel sets loaded from the IR
    tier and kernel sets derived (with sympy) because none was there.
    """

    hits: int
    misses: int
    builds: int
    ir_hits: int
    ir_derivations: int

    def __str__(self):
        return (
            f"kernel disk cache: {self.hits} hits, {self.misses} misses, "
            f"{self.builds} builds; kernel sets: {self.ir_hits} loaded, "
            f"{self.ir_derivations} derived"
        )


def disk_cache_stats() -> DiskCacheStats:
    with _LOCK:
        return DiskCacheStats(
            hits=_HITS, misses=_MISSES, builds=_BUILDS,
            ir_hits=_IR_HITS, ir_derivations=_IR_DERIVATIONS,
        )


def add_disk_cache_stats(stats: DiskCacheStats) -> None:
    """Count *stats* — another process's, a forked child's — as this process's too."""
    global _HITS, _MISSES, _BUILDS, _IR_HITS, _IR_DERIVATIONS
    with _LOCK:
        _HITS += stats.hits
        _MISSES += stats.misses
        _BUILDS += stats.builds
        _IR_HITS += stats.ir_hits
        _IR_DERIVATIONS += stats.ir_derivations


def reset_disk_cache_stats() -> None:
    global _HITS, _MISSES, _BUILDS, _IR_HITS, _IR_DERIVATIONS
    with _LOCK:
        _HITS = _MISSES = _BUILDS = _IR_HITS = _IR_DERIVATIONS = 0


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

    ``gcc`` says whether it is GCC (see ``c_backend._GCC_FLAGS``).
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
        banner = out.stdout or out.stderr
        version = banner.splitlines()[0].strip() if banner else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        banner, version = "", "unavailable"
    # GCC's banner, under any name it is installed as, carries its
    # copyright line; clang's and other compilers' do not
    identity = {"cc": cc, "version": version, "gcc": "Free Software Foundation" in banner}
    _IDENTITY_CACHE[cc] = identity
    return identity


def codegen_sources(
    roots: tuple[str, ...] = _CODEGEN_ROOTS,
    packages: tuple[str, ...] = _CODEGEN_PACKAGES,
) -> dict[str, bytes]:
    """The modules whose bytes define a revision, by relative path.

    Derived, not listed: *roots* and every module they import,
    transitively, inside *packages*.  By default that is the codegen
    revision's set — the layout rule the emitter prints
    (``symbolic/field.py``) and the printer mixins (``symbolic/ordering.py``)
    are in it because ``c_backend`` imports them; :func:`ir_revision` asks
    for the IR tier's set.  An import that names a package stands for its
    ``__init__``.
    """
    sources: dict[str, bytes] = {}
    todo = list(roots)
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
            if not parts or parts[0] not in packages:
                continue
            target = "/".join(parts)
            if not (_SRC_ROOT / f"{target}.py").is_file():
                target += "/__init__"
            todo.append(f"{target}.py")
    return dict(sorted(sources.items()))


def _sources_digest(sources: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for rel, text in sources.items():
        h.update(rel.encode() + b"\x00" + text + b"\x00")
    return h.hexdigest()[:16]


def codegen_revision() -> str:
    """Hash of the codegen sources — bumps automatically on any edit.

    Covers :func:`codegen_sources`: a change to any of them may change the
    emitted program, so every cached binary built under the old revision
    is invalidated.
    """
    global _REVISION
    if _REVISION is None:
        _REVISION = _sources_digest(codegen_sources())
    return _REVISION


def ir_revision() -> str:
    """Hash of the modules that derive a kernel set — bumps on any edit.

    Covers ``pfm/model.py``, ``profiling/cache.py`` (the memoized
    ``kernel_fingerprint`` a pickled kernel holds) and every module they
    import inside :data:`_IR_PACKAGES`: a change to any of them may change
    the derived IR (or the classes a pickled set names), so every kernel
    set pickled under the old revision is invalidated.
    """
    global _IR_REVISION
    if _IR_REVISION is None:
        _IR_REVISION = _sources_digest(codegen_sources(_IR_ROOTS, _IR_PACKAGES))
    return _IR_REVISION


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


def ir_cache_key(*inputs: str) -> str:
    """Key of one pickled IR artifact, from the derivation's *inputs*.

    The caller names what the derivation reads (a model passes a digest of
    its parameters and the ``create_kernels`` arguments); the key adds the
    schema, :func:`ir_revision`, the interpreter, sympy and numpy versions
    the pickle depends on, and the pickle protocol.
    """
    import numpy
    import sympy

    h = hashlib.sha256()
    for part in (
        CACHE_SCHEMA,
        "ir",
        ir_revision(),
        sys.version,
        sympy.__version__,
        numpy.__version__,
        str(_IR_PICKLE_PROTOCOL),
        *inputs,
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
    """Artifact store with locked, atomic publication: compiled and IR entries."""

    #: name of the published artifact inside an entry directory
    ARTIFACT = "kernel.so"
    #: ... and of the pickled kernel set inside an IR entry
    IR_ARTIFACT = "kernels.pickle"

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
    ) -> tuple[Path, bool]:
        """Return ``(path, hit)`` for the compiled artifact under *key*.

        On a miss, ``build(tmp_path)`` must write the complete artifact at
        *tmp_path* (or raise — a failed build publishes nothing).  The
        temp file lives in the entry directory, so the final
        ``os.replace`` is an atomic same-filesystem rename: concurrent
        readers either see the complete artifact or none at all.
        """
        global _HITS, _MISSES, _BUILDS
        path, hit = self._publish(key, build, source=source, meta=meta)
        with _LOCK:
            if hit:
                _HITS += 1
            else:
                _MISSES += 1
                _BUILDS += 1
        return path, hit

    def load_or_derive(self, key: str, derive, *, check, meta: dict | None = None):
        """Return ``(value, hit)``: the object pickled under *key*, or ``derive()``.

        On a miss, ``derive()`` runs inside the entry's lock and its result
        is pickled and published like any artifact, so processes racing on
        one key derive it once.  *check* takes an unpickled object and
        returns it, or raises for one of another shape; an entry that does
        not unpickle, or fails *check*, is logged, evicted, derived again
        and republished — never returned.
        """
        global _IR_HITS, _IR_DERIVATIONS
        path = self.artifact_path(key, self.IR_ARTIFACT)
        if path.exists():
            value = self._unpickle(path, check)
            if value is not None:
                with _LOCK:
                    _IR_HITS += 1
                return value, True
        derived = []

        def build(tmp: Path) -> None:
            derived.append(derive())
            # no fsync: an entry torn by a crash fails to unpickle, and is
            # derived again like any other unusable entry
            with open(tmp, "wb") as fh:
                pickle.dump(derived[0], fh, protocol=_IR_PICKLE_PROTOCOL)

        path, hit = self._publish(key, build, meta=meta, artifact=self.IR_ARTIFACT)
        # a racer published while this process waited for the lock
        value = self._unpickle(path, check) if hit else None
        with _LOCK:
            if value is not None:
                _IR_HITS += 1
                return value, True
            _IR_DERIVATIONS += 1
        return (derived[0] if derived else derive()), False

    def _unpickle(self, path: Path, check):
        """*check*'s value of the pickle at *path*; ``None`` if unusable.

        An unusable entry is removed under the entry's lock (unless a racer
        replaced it meanwhile), so the caller's publish derives it anew.
        """
        try:
            data = path.read_bytes()
        except OSError:
            return None  # evicted or purged since the lookup: a miss
        try:
            return check(pickle.loads(data))
        except Exception as exc:  # any byte string may fail in any way
            _log.warning(
                kv(
                    "disk_cache_entry_unusable",
                    key=path.parent.name[:12],
                    artifact=path.name,
                    error=f"{type(exc).__name__}: {exc}"[:200],
                )
            )
        with _FileLock(path.parent / "lock", timeout=self.lock_timeout):
            try:
                if path.read_bytes() == data:
                    path.unlink()
            except OSError:
                pass
        return None

    def _publish(
        self,
        key: str,
        build,
        *,
        source: str | None = None,
        meta: dict | None = None,
        artifact: str | None = None,
    ) -> tuple[Path, bool]:
        """The publication protocol of every artifact kind; counts nothing."""
        final = self.artifact_path(key, artifact)
        if final.exists():
            return final, True
        entry = self.entry_dir(key)
        entry.mkdir(parents=True, exist_ok=True)
        with _FileLock(entry / "lock", timeout=self.lock_timeout):
            if final.exists():
                # a racer published while we waited for the lock
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
        _log.info(
            kv(
                "disk_cache_built",
                key=key[:12],
                artifact=final.name,
                bytes=final.stat().st_size,
                root=str(self.root),
            )
        )
        return final, False

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
        """Every entry directory, compiled and IR artifacts alike."""
        if not self.root.is_dir():
            return []
        return sorted(
            p for p in self.root.glob("??/*") if p.is_dir()
        )

    def total_bytes(self) -> int:
        """Bytes of *published* artifacts of every kind (temp orphans excluded)."""
        total = 0
        for entry in self.entries():
            for name in (self.ARTIFACT, self.IR_ARTIFACT):
                path = entry / name
                try:
                    total += path.stat().st_size
                except OSError:
                    pass
        return total

    def purge(self) -> int:
        """Remove every cache entry of every kind; returns how many were dropped."""
        import shutil

        dropped = 0
        for entry in self.entries():
            shutil.rmtree(entry, ignore_errors=True)
            dropped += 1
        if dropped:
            _log.info(kv("disk_cache_purged", entries=dropped, root=str(self.root)))
        return dropped

    def __repr__(self):
        return f"KernelDiskCache({str(self.root)!r})"
