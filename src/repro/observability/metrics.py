"""Counters, gauges and histograms with JSON + Prometheus export.

A :class:`MetricsRegistry` holds families of instruments keyed by metric
name and label set, exported two ways:

* :meth:`MetricsRegistry.to_json` — a plain dict for programmatic joins
  (tests, dashboards, the benchmark harness),
* :meth:`MetricsRegistry.to_prometheus` — the Prometheus text exposition
  format (``# HELP`` / ``# TYPE`` / samples), ready to be scraped or
  written as ``metrics.prom``.  :func:`parse_prometheus` parses the same
  format back, so exports round-trip in tests and in the CI checker.

The process-wide registry (:func:`get_registry`) is wired to the kernel
cache (hits/misses/size), the solvers (step-latency histograms, exchanged
bytes, per-kernel MLUP/s via :meth:`repro.profiling.SolverProfiler.export_metrics`)
and the health monitor (check/event counts).
"""

from __future__ import annotations

import re
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "reset_metrics",
    "parse_prometheus",
    "DEFAULT_BUCKETS",
]

#: step-latency style default buckets (seconds), roughly logarithmic
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _num(value: float) -> str:
    """Shortest text that parses back to *value* exactly; integers as integers.

    ``:g`` keeps six significant digits: a byte counter above 10**6 was
    exported rounded and a gauge did not survive ``parse_prometheus``.
    """
    value = float(value)
    if value.is_integer() and abs(value) < 2**53:
        return str(int(value))
    return repr(value)


def _label_str(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{_escape(v)}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Instrument:
    """Base: a named metric with a frozen label set."""

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()

    @property
    def labels_dict(self) -> dict[str, str]:
        return dict(self.labels)


class Counter(_Instrument):
    """Monotonically increasing count (Prometheus ``counter``)."""

    def __init__(self, name, labels):
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self.value += amount


class Gauge(_Instrument):
    """Point-in-time value (Prometheus ``gauge``)."""

    def __init__(self, name, labels):
        super().__init__(name, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Histogram(_Instrument):
    """Cumulative-bucket histogram (Prometheus ``histogram``)."""

    def __init__(self, name, labels, buckets=DEFAULT_BUCKETS):
        super().__init__(name, labels)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self.sum += value
            self.count += 1
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self.bucket_counts[i] += 1
                    return
            self.bucket_counts[-1] += 1

    def cumulative(self) -> list[int]:
        total = 0
        out = []
        for c in self.bucket_counts:
            total += c
            out.append(total)
        return out

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class _Family:
    def __init__(self, name: str, kind: str, help_: str):
        self.name = name
        self.kind = kind
        self.help = help_
        self.instruments: dict[tuple, _Instrument] = {}


class MetricsRegistry:
    """Get-or-create registry of metric families."""

    def __init__(self):
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    # -- creation --------------------------------------------------------------

    def _get(self, kind: str, name: str, help_: str, labels: dict, factory):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for k in labels:
            if not _LABEL_RE.match(k):
                raise ValueError(f"invalid label name {k!r}")
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = _Family(name, kind, help_)
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}, "
                    f"requested {kind}"
                )
            if help_ and not family.help:
                family.help = help_
            inst = family.instruments.get(key)
            if inst is None:
                inst = family.instruments[key] = factory(name, key)
            return inst

    # metric name/help are positional-only so that "name" and "help" remain
    # usable as label keys (e.g. repro_diagnostic{name="free_energy"})
    def counter(self, name: str, help: str = "", /, **labels) -> Counter:
        return self._get("counter", name, help, labels, Counter)

    def gauge(self, name: str, help: str = "", /, **labels) -> Gauge:
        return self._get("gauge", name, help, labels, Gauge)

    def histogram(
        self, name: str, help: str = "", /, buckets=DEFAULT_BUCKETS, **labels
    ) -> Histogram:
        return self._get(
            "histogram", name, help, labels,
            lambda n, key: Histogram(n, key, buckets=buckets),
        )

    # -- access ----------------------------------------------------------------

    def get(self, name: str, /, **labels):
        """Existing instrument or ``None`` (never creates)."""
        family = self._families.get(name)
        if family is None:
            return None
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        return family.instruments.get(key)

    def families(self) -> list[str]:
        return sorted(self._families)

    def reset(self) -> None:
        with self._lock:
            self._families.clear()

    # -- export ----------------------------------------------------------------

    def to_json(self) -> dict:
        """``{name: {"type", "help", "samples": [{labels, ...}]}}``."""
        out: dict = {}
        for name in sorted(self._families):
            family = self._families[name]
            samples = []
            for key in sorted(family.instruments):
                inst = family.instruments[key]
                entry: dict = {"labels": dict(key)}
                if isinstance(inst, Histogram):
                    # count alongside mean: a 0.0 mean from zero
                    # observations must be distinguishable from a true zero
                    entry.update(
                        sum=inst.sum,
                        count=inst.count,
                        mean=inst.mean,
                        buckets={
                            str(b): c
                            for b, c in zip(
                                list(inst.bounds) + ["+Inf"], inst.cumulative()
                            )
                        },
                    )
                else:
                    entry["value"] = inst.value
                samples.append(entry)
            out[name] = {"type": family.kind, "help": family.help, "samples": samples}
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key in sorted(family.instruments):
                inst = family.instruments[key]
                if isinstance(inst, Histogram):
                    cumulative = inst.cumulative()
                    for bound, c in zip(inst.bounds, cumulative):
                        le = _label_str(key, f'le="{_num(bound)}"')
                        lines.append(f"{name}_bucket{le} {c}")
                    le = _label_str(key, 'le="+Inf"')
                    lines.append(f"{name}_bucket{le} {cumulative[-1]}")
                    lines.append(f"{name}_sum{_label_str(key)} {_num(inst.sum)}")
                    lines.append(f"{name}_count{_label_str(key)} {inst.count}")
                else:
                    lines.append(f"{name}{_label_str(key)} {_num(inst.value)}")
        return "\n".join(lines) + "\n"

    def export_prometheus(self, path) -> str:
        """Write ``metrics.prom`` and return the path written."""
        with open(path, "w") as fh:
            fh.write(self.to_prometheus())
        return str(path)


# the label block must be matched with a quote-aware pattern: a naive
# [^}]* stops at a '}' INSIDE a quoted label value (legal per the
# exposition format, e.g. kernel="mu{0}")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>(?:[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\",?)*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_UNESCAPE_RE = re.compile(r"\\(.)")
_UNESCAPE_MAP = {"n": "\n", '"': '"', "\\": "\\"}


def _unescape(value: str) -> str:
    """Single-pass inverse of :func:`_escape`.

    Sequential ``str.replace`` passes are wrong here: the escaped form of a
    literal backslash followed by 'n' (``\\\\n``) would be turned into a
    newline by a later pass.  Each escape sequence must be decoded exactly
    once, left to right; unknown escapes are kept verbatim.
    """
    return _UNESCAPE_RE.sub(
        lambda m: _UNESCAPE_MAP.get(m.group(1), "\\" + m.group(1)), value
    )


def parse_prometheus(text: str) -> dict:
    """Parse the text exposition format back into a nested dict.

    Returns ``{family: {"type", "help", "samples": [(sample_name, labels,
    value)]}}`` where histogram series (``_bucket``/``_sum``/``_count``)
    are grouped under their family name.  Inverse of
    :meth:`MetricsRegistry.to_prometheus` up to float formatting.
    """
    families: dict[str, dict] = {}

    def family_of(sample_name: str) -> str:
        for fam, info in families.items():
            if info["type"] == "histogram" and sample_name in (
                f"{fam}_bucket", f"{fam}_sum", f"{fam}_count"
            ):
                return fam
        return sample_name

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_ = rest.partition(" ")
            families.setdefault(name, {"type": "untyped", "help": "", "samples": []})
            families[name]["help"] = help_
        elif line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            families.setdefault(name, {"type": "untyped", "help": "", "samples": []})
            families[name]["type"] = kind.strip()
        elif line.startswith("#"):
            continue
        else:
            m = _SAMPLE_RE.match(line)
            if not m:
                raise ValueError(f"unparseable metrics line: {raw!r}")
            labels = {
                k: _unescape(v)
                for k, v in _LABEL_PAIR_RE.findall(m.group("labels") or "")
            }
            value = float(m.group("value"))
            fam = family_of(m.group("name"))
            families.setdefault(fam, {"type": "untyped", "help": "", "samples": []})
            families[fam]["samples"].append((m.group("name"), labels, value))
    return families


def find_sample(parsed: dict, family: str, sample: str | None = None, **labels):
    """Value of one sample from :func:`parse_prometheus` output, or None."""
    info = parsed.get(family)
    if info is None:
        return None
    sample = sample or family
    for name, sample_labels, value in info["samples"]:
        if name == sample and all(
            sample_labels.get(k) == str(v) for k, v in labels.items()
        ):
            return value
    return None


_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _GLOBAL_REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install *registry* as the process-wide one; returns the previous."""
    global _GLOBAL_REGISTRY
    previous = _GLOBAL_REGISTRY
    _GLOBAL_REGISTRY = registry
    return previous


def reset_metrics() -> None:
    """Clear every family in the global registry (used by tests)."""
    _GLOBAL_REGISTRY.reset()
