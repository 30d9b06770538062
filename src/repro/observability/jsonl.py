"""Shared append-only JSONL ledger: fsync'd writes, torn-tail-tolerant reads.

Both observability ledgers — the per-run perf ledger
(:class:`repro.perfmodel.ledger.PerfLedger`) and the determinism
fingerprint stream (:class:`repro.observability.fingerprint.FingerprintLedger`)
— need the same durability contract:

* **appends are durable**: each ``extend()`` writes whole lines, flushes
  and ``fsync``\\ s, so a crash can tear at most the final line — which
  the next ``extend()`` drops before it appends;
* **reads forgive the torn tail**: a truncated last line (a run killed
  mid-append) is skipped silently even under ``strict=True`` — it is the
  expected signature of a crash, not corruption;
* **everything else is schema-checked**: malformed *middle* lines are
  skipped by default and raise ``SchemaError("<path>:<lineno>: ...")``
  under ``strict=True``.

Records are serialized with ``json.dumps(record, sort_keys=True)`` so a
given record always produces the same bytes — the property the
determinism-smoke CI job relies on when it ``cmp``\\ s two ledgers.

Subclasses customize two hooks: :attr:`JsonlLedger.SchemaError` (the
exception type raised for invalid records) and
:meth:`JsonlLedger.validate` (per-record validation; identity by default).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = ["JsonlLedger"]


class JsonlLedger:
    """Append-only JSONL file with fsync'd writes and tolerant reads."""

    #: exception type raised for schema violations; subclasses override
    SchemaError: type[ValueError] = ValueError

    def __init__(self, path):
        self.path = Path(path)

    def validate(self, record) -> dict:
        """Return *record* or raise :attr:`SchemaError`; identity by default."""
        return record

    def append(self, record: dict) -> None:
        self.extend([record])

    def extend(self, records) -> int:
        """Validate and append *records*; returns how many were written."""
        validated = [self.validate(r) for r in records]
        if not validated:
            return 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab+") as fh:
            size = fh.tell()
            if size:
                fh.seek(size - 1)
                if fh.read(1) != b"\n":
                    # a killed run's unterminated tail holds no record (only
                    # whole lines are written) but would swallow the next one
                    fh.seek(0)
                    fh.truncate(fh.read().rfind(b"\n") + 1)
            for record in validated:
                fh.write((json.dumps(record, sort_keys=True) + "\n").encode())
            fh.flush()
            os.fsync(fh.fileno())
        return len(validated)

    def load(self, strict: bool = False) -> list[dict]:
        """All valid records, oldest first.

        A truncated final line (a run killed mid-append) is skipped
        silently; any other malformed line is skipped unless *strict*.
        """
        if not self.path.exists():
            return []
        records: list[dict] = []
        lines = self.path.read_text().splitlines()
        for i, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(self.validate(json.loads(line)))
            except (json.JSONDecodeError, self.SchemaError) as exc:
                if i == len(lines) - 1 and isinstance(exc, json.JSONDecodeError):
                    continue    # torn tail write
                if strict:
                    raise self.SchemaError(f"{self.path}:{i + 1}: {exc}") from exc
        return records

    def __repr__(self):
        return f"{type(self).__name__}({str(self.path)!r})"
