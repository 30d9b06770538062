"""Determinism observatory: the ``repro-fingerprint/1`` state ledger.

The repo's strongest runtime claim is that every schedule variant —
overlapped communication, the process backend, tiled reductions, any rank
count — produces *bit-identical* fields.  This module turns that claim
into a cheap, always-on observable: a per-step stream of BLAKE2b digests
of the interior field bytes, taken per ``(field, block)`` in a **fixed
lexicographic block order**, so the stream is invariant across 1/N ranks
and sim/process backends — the same traversal discipline that makes
:func:`repro.backends.runtime.tile_sum` /
:func:`repro.diagnostics.suite.merge_partials` reductions
partition-invariant.

Record shape (one JSON object per line, ``sort_keys=True`` so a given
state always serializes to the same bytes)::

    {
      "schema": "repro-fingerprint/1",
      "step": 42,
      "time": 2.1,
      "fields": {"phi": {"0,0": "hex32", "0,1": "hex32", ...}, ...},
      "digest": "hex32"       # combined over fields+blocks in fixed order
    }

Records deliberately carry **no timestamps, hostnames or rank counts** —
two runs of the same model on the same seed must produce byte-identical
ledgers (the determinism-smoke CI job literally ``cmp``\\ s them).

``reference=`` makes a stream *self-auditing*: each emitted record is
compared online against a reference ledger and the first mismatching
``(field, block)`` pair trips a :class:`~repro.observability.health.HealthMonitor`
``divergence`` event (record/warn/raise policies) naming step, field and
block.  ``tools/divergence.py`` does the same offline, plus checkpoint
replay and ulp-level field diffs.
"""

from __future__ import annotations

import hashlib
import itertools
from pathlib import Path
from time import perf_counter

import numpy as np

from .jsonl import JsonlLedger
from .metrics import get_registry
from .recorder import get_recorder

__all__ = [
    "FINGERPRINT_SCHEMA",
    "FingerprintLedger",
    "FingerprintSchemaError",
    "FingerprintStream",
    "OVERHEAD_GAUGE",
    "block_key",
    "combined_digest",
    "digest_array",
    "find_mismatches",
    "fingerprint_record",
    "parse_block_key",
    "tiled_digests",
    "validate_fingerprint_record",
]

FINGERPRINT_SCHEMA = "repro-fingerprint/1"

#: 128-bit digests: collision-safe for this purpose at half the ledger size
DIGEST_SIZE = 16

#: self-measured fingerprint cost; tier-1 gates it at 6 ns per hashed byte
OVERHEAD_GAUGE = "repro_fingerprint_overhead_seconds"


class FingerprintSchemaError(ValueError):
    """A ledger record does not conform to the ``repro-fingerprint/1`` schema."""


# -- digest primitives ---------------------------------------------------------


def block_key(coords) -> str:
    """The ledger key of a block coordinate, e.g. ``(0, 1)`` → ``"0,1"``."""
    return ",".join(str(int(c)) for c in coords)


def parse_block_key(key: str) -> tuple[int, ...]:
    """Inverse of :func:`block_key`; used for *numeric* block ordering.

    Keys must never be ordered as strings — ``"10,0" < "2,0"``
    lexicographically, which would silently change the combined-digest
    traversal order on forests wider than 10 blocks.
    """
    return tuple(int(c) for c in key.split(","))


def digest_array(arr) -> str:
    """BLAKE2b-128 hex digest of one interior array (dtype, shape, bytes).

    Hashing dtype and shape alongside the raw bytes means a transposed or
    re-typed array can never collide with the original by accident.
    """
    a = np.ascontiguousarray(np.asarray(arr))
    h = hashlib.blake2b(digest_size=DIGEST_SIZE)
    h.update(str(a.dtype).encode())
    h.update(repr(tuple(int(n) for n in a.shape)).encode())
    # a C-contiguous array exposes the buffer protocol directly — hashing
    # it avoids the tobytes() copy, which matters at MB-per-step rates
    h.update(a)
    return h.hexdigest()


def tiled_digests(interior, dim: int, tile_shape=None) -> dict[str, str]:
    """Per-block digests of one field interior, keyed by block coordinate.

    ``tile_shape=None`` treats the whole interior as the single block
    ``(0,)*dim``.  With a tile shape, the first *dim* (spatial) axes are
    cut into a lexicographically ordered grid of tiles — exactly the
    :func:`repro.backends.runtime.tile_sum` traversal — so a single-block
    run fingerprinted with ``tile_shape=forest.block_shape`` emits the
    same per-block digests as the block-decomposed run.
    """
    a = np.asarray(interior)
    if dim < 1 or dim > a.ndim:
        raise ValueError(f"dim={dim} invalid for array of shape {a.shape}")
    if tile_shape is None:
        return {block_key((0,) * dim): digest_array(a)}
    tile_shape = tuple(int(t) for t in tile_shape)
    if len(tile_shape) != dim or any(t < 1 for t in tile_shape):
        raise ValueError(f"tile shape {tile_shape} invalid for dim={dim}")
    counts = [-(-a.shape[d] // tile_shape[d]) for d in range(dim)]
    out: dict[str, str] = {}
    for idx in itertools.product(*(range(c) for c in counts)):
        sl = tuple(slice(i * t, (i + 1) * t) for i, t in zip(idx, tile_shape))
        out[block_key(idx)] = digest_array(a[sl])
    return out


def combined_digest(fields: dict[str, dict[str, str]]) -> str:
    """One digest over all per-block digests, in the fixed traversal order.

    Fields sort by name; blocks sort by *parsed* coordinate tuple (never
    by key string).  The combined digest is what two ledgers compare
    first; on mismatch :func:`find_mismatches` localizes the pair.
    """
    h = hashlib.blake2b(digest_size=DIGEST_SIZE)
    for name in sorted(fields):
        h.update(name.encode())
        blocks = fields[name]
        for key in sorted(blocks, key=parse_block_key):
            h.update(key.encode())
            h.update(bytes.fromhex(blocks[key]))
    return h.hexdigest()


# -- records and the ledger ----------------------------------------------------


def fingerprint_record(step: int, time: float, fields: dict) -> dict:
    """Build one validated ``repro-fingerprint/1`` record."""
    record = {
        "schema": FINGERPRINT_SCHEMA,
        "step": int(step),
        "time": float(time),
        "fields": {
            name: dict(blocks) for name, blocks in sorted(fields.items())
        },
        "digest": combined_digest(fields),
    }
    return validate_fingerprint_record(record)


def validate_fingerprint_record(record) -> dict:
    """Raise :class:`FingerprintSchemaError` unless *record* is valid.

    Also recomputes the combined digest from the per-block digests — a
    record whose summary digest disagrees with its own blocks is corrupt,
    not merely divergent.
    """
    if not isinstance(record, dict):
        raise FingerprintSchemaError(
            f"record is {type(record).__name__}, expected object"
        )
    if record.get("schema") != FINGERPRINT_SCHEMA:
        raise FingerprintSchemaError(
            f"schema is {record.get('schema')!r}, expected {FINGERPRINT_SCHEMA!r}"
        )
    step = record.get("step")
    if not isinstance(step, int) or isinstance(step, bool) or step < 0:
        raise FingerprintSchemaError(f"step={step!r} is not a non-negative int")
    time = record.get("time")
    if isinstance(time, bool) or not isinstance(time, (int, float)):
        raise FingerprintSchemaError(f"time={time!r} is not a number")
    fields = record.get("fields")
    if not isinstance(fields, dict) or not fields:
        raise FingerprintSchemaError("fields stanza missing or empty")
    for name, blocks in fields.items():
        if not isinstance(blocks, dict) or not blocks:
            raise FingerprintSchemaError(f"fields[{name!r}] missing or empty")
        for key, digest in blocks.items():
            try:
                parse_block_key(key)
            except ValueError:
                raise FingerprintSchemaError(
                    f"fields[{name!r}] has malformed block key {key!r}"
                ) from None
            if (
                not isinstance(digest, str)
                or len(digest) != 2 * DIGEST_SIZE
                or any(c not in "0123456789abcdef" for c in digest)
            ):
                raise FingerprintSchemaError(
                    f"fields[{name!r}][{key!r}] is not a "
                    f"{2 * DIGEST_SIZE}-char hex digest"
                )
    if record.get("digest") != combined_digest(fields):
        raise FingerprintSchemaError(
            "combined digest does not match the per-block digests"
        )
    return record


class FingerprintLedger(JsonlLedger):
    """Append-only JSONL ledger of ``repro-fingerprint/1`` records."""

    SchemaError = FingerprintSchemaError

    def validate(self, record) -> dict:
        return validate_fingerprint_record(record)


def find_mismatches(record: dict, reference: dict) -> list[dict]:
    """Per-``(field, block)`` digest differences, in fixed traversal order.

    Compares the ``fields`` stanzas of two same-step records; each
    mismatch is ``{"field", "block", "actual", "expected"}`` where a
    digest is ``None`` when that pair exists on only one side.  The first
    entry is the most upstream divergence in the deterministic traversal,
    which is what the auditor and ``tools/divergence.py`` report.
    """
    a, b = record.get("fields", {}), reference.get("fields", {})
    out = []
    for name in sorted(set(a) | set(b)):
        blocks_a, blocks_b = a.get(name, {}), b.get(name, {})
        for key in sorted(set(blocks_a) | set(blocks_b), key=parse_block_key):
            da, db = blocks_a.get(key), blocks_b.get(key)
            if da != db:
                out.append(
                    {"field": name, "block": key, "actual": da, "expected": db}
                )
    return out


def load_reference(reference) -> tuple[Path, dict[int, dict]]:
    """Load a reference ledger as a ``{step: record}`` index.

    *reference* is a ledger file or a run directory (the canonical
    ``fingerprints.jsonl`` inside it).  Raises when empty or absent — an
    audit against nothing would silently pass.
    """
    path = Path(reference)
    if path.is_dir():
        path = path / "fingerprints.jsonl"
    records = FingerprintLedger(path).load()
    if not records:
        raise FileNotFoundError(
            f"reference fingerprint ledger {path} is missing or empty"
        )
    return path, {r["step"]: r for r in records}


# -- the live stream -----------------------------------------------------------


class FingerprintStream:
    """Emits fingerprint records: ledger + flight recorder + audit.

    One stream per run.  Solvers (or the quickstart loop) call
    :meth:`record_state` with the live interiors, or
    :meth:`record_digests` with per-block digests already merged across
    ranks.  All self-time — digesting, serializing, auditing — accrues to
    :attr:`overhead_seconds` and is exported as the
    ``repro_fingerprint_overhead_seconds`` gauge.

    Parameters
    ----------
    path:
        Ledger file to append to (truncated at construction: a stream is
        a fresh trajectory, not history).  ``None`` keeps records
        in-memory only — distributed non-root ranks audit without writing.
    reference:
        Ledger file or run directory to audit against online.  Each
        record's combined digest is compared to the same-step reference
        record; the first mismatching ``(field, block)`` trips a
        ``divergence`` health event.
    health:
        :class:`~repro.observability.health.HealthMonitor` that receives
        divergence events.  ``None`` with *reference* set creates a
        private ``policy="raise"`` monitor — an unmonitored audit that
        cannot fail is worse than none.
    where:
        Location tag for health events (e.g. ``"rank 2"``).
    metrics:
        Export the record/divergence counters and overhead gauge.
    """

    def __init__(
        self,
        path=None,
        reference=None,
        health=None,
        where: str = "",
        metrics: bool = True,
    ):
        self.path = Path(path) if path is not None else None
        self.ledger = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.unlink(missing_ok=True)
            self.ledger = FingerprintLedger(self.path)
        self.reference_path = None
        self._reference = None
        if reference is not None:
            self.reference_path, self._reference = load_reference(reference)
        if health is None and self._reference is not None:
            from .health import HealthMonitor

            health = HealthMonitor(policy="raise", interval=1)
        self.health = health
        self.where = where
        self.metrics = metrics
        self.records: list[dict] = []
        self.matched = 0
        self.unmatched = 0
        self.first_divergence: dict | None = None
        self.overhead_seconds = 0.0

    def __len__(self):
        return len(self.records)

    @property
    def auditing(self) -> bool:
        return self._reference is not None

    def add_overhead(self, seconds: float) -> None:
        """Charge caller-side work (e.g. the distributed digest+allgather)."""
        self.overhead_seconds += float(seconds)

    def record_state(
        self, step: int, time: float, interiors: dict, dim: int, tile_shape=None
    ) -> dict:
        """Digest live *interiors* (per-field arrays) and emit one record."""
        t0 = perf_counter()
        fields = {
            name: tiled_digests(arr, dim, tile_shape)
            for name, arr in interiors.items()
        }
        self.overhead_seconds += perf_counter() - t0
        return self.record_digests(step, time, fields)

    def record_digests(self, step: int, time: float, fields: dict) -> dict:
        """Emit one record from already-computed per-block digests.

        Appends to the ledger, records the digest as a ``fingerprint``
        event of the flight recorder (timed: it is an interval of the
        run's timeline), bumps the counters, and — when auditing — compares
        against the reference and routes the first mismatch through the
        health monitor (which may raise).
        """
        t0 = perf_counter()
        try:
            record = fingerprint_record(step, time, fields)
            self.records.append(record)
            if self.ledger is not None:
                self.ledger.append(record)
            # before the audit: a divergence that raises finds the digest
            # in the ring
            get_recorder().record(
                "fingerprint",
                record["digest"],
                time_step=record["step"],
                n_fields=len(record["fields"]),
                seconds=perf_counter() - t0,
            )
            if self.metrics:
                get_registry().counter(
                    "repro_fingerprint_records_total",
                    "fingerprint records emitted",
                ).inc()
            self._audit(record)
        finally:
            self.overhead_seconds += perf_counter() - t0
            if self.metrics:
                self.publish_overhead()
        return record

    def _audit(self, record: dict) -> None:
        if self._reference is None:
            return
        reference = self._reference.get(record["step"])
        if reference is None:
            self.unmatched += 1
            return
        if reference["digest"] == record["digest"]:
            self.matched += 1
            return
        mismatches = find_mismatches(record, reference)
        if self.first_divergence is None:
            self.first_divergence = {
                "step": record["step"],
                "n_mismatches": len(mismatches),
                **mismatches[0],
            }
        if self.metrics:
            first = mismatches[0]
            get_registry().counter(
                "repro_fingerprint_divergence_total",
                "fingerprint records that diverged from the reference",
                field=first["field"],
            ).inc()
        if self.health is not None:
            self.health.check_fingerprint(
                mismatches, time_step=record["step"], where=self.where
            )

    def publish_overhead(self, registry=None) -> float:
        """Export the self-measured cost as the overhead gauge."""
        registry = registry or get_registry()
        registry.gauge(
            OVERHEAD_GAUGE,
            "self-measured fingerprint cost (digest+serialize+audit)",
        ).set(self.overhead_seconds)
        return self.overhead_seconds

    def summary(self) -> str:
        """One status line for logs and reports."""
        out = f"fingerprints: {len(self.records)} records"
        if self.path is not None:
            out += f" -> {self.path}"
        if self.auditing:
            if self.first_divergence is None:
                out += (
                    f"; audit vs {self.reference_path}: OK "
                    f"({self.matched} matched, {self.unmatched} unmatched steps)"
                )
            else:
                d = self.first_divergence
                out += (
                    f"; audit vs {self.reference_path}: DIVERGED at step "
                    f"{d['step']} field {d['field']} block ({d['block']})"
                )
        return out

    def __repr__(self):
        return (
            f"FingerprintStream(records={len(self.records)}, "
            f"path={str(self.path) if self.path else None!r}, "
            f"auditing={self.auditing})"
        )
