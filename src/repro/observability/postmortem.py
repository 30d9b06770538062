"""Crash post-mortems: capture what a dying run was doing, durably.

A long run that dies should leave more behind than a traceback.  This
module turns the :class:`~repro.observability.recorder.FlightRecorder`
ring (plus whatever field state the solver registered) into a JSON
*post-mortem bundle*:

* the exception (type, message, traceback),
* the rank and run position (current time step),
* the open span stack and the last-N recorder events,
* the last kernel dispatched before death (inside a native batch of the
  time loop: the op and step its breadcrumb holds),
* per-field numeric forensics — finite min/max/mean, NaN/Inf counts —
  computed at the moment of capture.

Bundles are plain dicts (JSON- and pickle-safe) so
:mod:`repro.parallel.proc_comm` workers can ship them over the result
pipe to the parent, which writes a combined ``postmortem.json`` into the
run directory.  :func:`install_excepthook` covers the single-process
path: any uncaught exception in the main thread dumps a bundle before
the interpreter exits.

Schema (``repro-postmortem/1``)::

    {
      "schema": "repro-postmortem/1",
      "captured_at": <unix time>,
      "rank": 3 | null,
      "pid": ..., "host": ...,
      "exception": {"type": ..., "message": ..., "traceback": ...},
      "position": {"time_step": 17, ...},
      "open_spans": [...], "last_events": [...],
      "last_kernel": {...} | null,
      "fields": {"phi": {"shape": ..., "dtype": ..., "min": ..., ...}},
    }
"""

from __future__ import annotations

import json
import os
import socket
import sys
import time
import traceback as _tb

import numpy as np

from .recorder import get_recorder

__all__ = [
    "POSTMORTEM_SCHEMA",
    "field_stats",
    "capture_postmortem",
    "write_postmortem",
    "install_excepthook",
]

POSTMORTEM_SCHEMA = "repro-postmortem/1"

#: events whose kind marks a kernel dispatch — the "last kernel" of a bundle
_KERNEL_KINDS = ("kernel", "op")


def _batch_kernel(recorder, begin) -> dict | None:
    """The op a native batch opened by *begin* was in: its breadcrumb, named.

    The live breadcrumb of *recorder*, else (a journal read back) the
    ``<rundir>/breadcrumb`` file its ``lowering`` event names.
    """
    lowering = recorder.last_of("lowering")
    if lowering is None:
        return None
    crumb = getattr(recorder, "breadcrumb", None)
    if crumb is None and "breadcrumb" in lowering.data:
        crumb = np.fromfile(lowering.data["breadcrumb"], dtype=np.int64, count=2)
    if crumb is None:
        return None
    time_step, index = (int(v) for v in crumb)
    return {
        "name": lowering.data["ops"][index],
        "kind": "batch",
        "seq": begin.seq,
        "data": {"time_step": time_step, "op": index, "steps": begin.data["steps"]},
    }


def field_stats(arrays: dict) -> dict:
    """Numeric forensics for a ``{name: ndarray}`` mapping.

    NaN/Inf-aware: min/max/mean are computed over the finite subset only,
    and the non-finite counts are reported separately, so a field that
    went NaN at step k is immediately visible in the bundle.
    """
    stats = {}
    for name, array in arrays.items():
        try:
            arr = np.asarray(array)
            entry = {
                "shape": list(arr.shape),
                "dtype": str(arr.dtype),
                "size": int(arr.size),
            }
            if arr.size and np.issubdtype(arr.dtype, np.number):
                values = arr.astype(np.float64, copy=False)
                finite = np.isfinite(values)
                n_finite = int(finite.sum())
                entry["nan_count"] = int(np.isnan(values).sum())
                entry["inf_count"] = int(np.isinf(values).sum())
                entry["finite_count"] = n_finite
                if n_finite:
                    subset = values[finite]
                    entry["min"] = float(subset.min())
                    entry["max"] = float(subset.max())
                    entry["mean"] = float(subset.mean())
            stats[str(name)] = entry
        except Exception as exc:  # forensics must never raise past here
            stats[str(name)] = {"error": f"{type(exc).__name__}: {exc}"}
    return stats


def capture_postmortem(
    exc: BaseException | None = None,
    recorder=None,
    rank: int | None = None,
) -> dict:
    """Snapshot the current recorder (and registered field state) as a bundle.

    Safe to call from any failure path: every sub-capture is individually
    guarded, so a broken state provider degrades to an ``"error"`` entry
    rather than masking the original exception.
    """
    recorder = recorder if recorder is not None else get_recorder()
    bundle = {
        "schema": POSTMORTEM_SCHEMA,
        "captured_at": time.time(),
        "rank": rank if rank is not None else getattr(recorder, "rank", None),
        "pid": os.getpid(),
        "host": socket.gethostname(),
        "exception": None,
        "position": {},
        "open_spans": [],
        "last_events": [],
        "last_kernel": None,
        "fields": {},
    }
    if exc is not None:
        bundle["exception"] = {
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": "".join(_tb.format_exception(type(exc), exc, exc.__traceback__)),
        }
    try:
        bundle["position"] = recorder.position
        bundle["open_spans"] = recorder.open_spans()
        bundle["last_events"] = recorder.last_events(100)
        last = recorder.last_of("step_begin", *_KERNEL_KINDS)
        if last is not None and last.kind == "step_begin" and "steps" in last.data:
            # inside a native batch: no event names the op, its breadcrumb does
            bundle["last_kernel"] = _batch_kernel(recorder, last)
        elif (last_kernel := recorder.last_of(*_KERNEL_KINDS)) is not None:
            bundle["last_kernel"] = {
                "name": last_kernel.name,
                "kind": last_kernel.kind,
                "seq": last_kernel.seq,
                "data": dict(last_kernel.data),
            }
    except Exception as inner:
        bundle["recorder_error"] = f"{type(inner).__name__}: {inner}"
    provider = getattr(recorder, "state_provider", None)
    if provider is not None:
        try:
            bundle["fields"] = field_stats(provider())
        except Exception as inner:
            bundle["fields"] = {"error": f"{type(inner).__name__}: {inner}"}
    return bundle


def write_postmortem(bundle: dict, path) -> str:
    """Write one bundle (or a combined multi-rank document) as JSON."""
    with open(path, "w") as handle:
        json.dump(bundle, handle, indent=2, default=repr)
        handle.write("\n")
    return str(path)


def install_excepthook(target, recorder=None, rank: int | None = None):
    """Dump a post-mortem to *target* on any uncaught exception.

    Chains to the previously installed ``sys.excepthook`` so default
    traceback printing (or an outer hook) still happens.  Returns the
    installed hook so tests can uninstall it (``sys.excepthook = hook.previous``).
    """
    previous = sys.excepthook

    def hook(exc_type, exc, tb):
        try:
            if exc.__traceback__ is None:
                exc = exc.with_traceback(tb)
            bundle = capture_postmortem(exc, recorder=recorder, rank=rank)
            write_postmortem(bundle, target)
        except Exception:
            pass  # never let forensics mask the original crash
        previous(exc_type, exc, tb)

    hook.previous = previous
    sys.excepthook = hook
    return hook
