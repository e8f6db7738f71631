"""OpenMetrics exposition for the whole metrics tree.

:func:`render_openmetrics` walks the same nested JSON metrics tree
that ``GET /v1/metrics`` serves — gateway, ingest, updater, drift,
analytics, edge, replication lag, tracer drop counters — and renders
it as OpenMetrics text (served at ``GET /v1/metrics?format=prom`` on
both primary and follower roles). Latency recorders can additionally
be passed as live :class:`~repro.obs.histogram.Histogram` objects so
they render as real histogram families with cumulative ``le`` buckets
instead of pre-digested percentile gauges.

:func:`parse_openmetrics` is the strict checker the CI soak scripts
gate on: it validates family declarations, name/label syntax, sample
contiguity, bucket monotonicity, ``+Inf``/``_count`` agreement, and
the terminal ``# EOF`` — a malformed exposition fails the build, not
the scrape.

Renderer conventions (what the checker enforces):

* every family is declared with ``# TYPE`` exactly once, before its
  samples, and all its samples are contiguous;
* numeric tree leaves become ``gauge`` families named
  ``<prefix>_<path components joined by _>``;
* boolean leaves render as 1/0 gauges; string leaves become labels on
  the single ``<prefix>_meta`` family (value 1) so nothing in the
  tree is silently dropped;
* histograms emit ``_bucket``/``_count``/``_sum`` samples with
  millisecond upper bounds and a terminal ``le="+Inf"``; a labeled
  family (the tracer's per-span self times) carries one such series
  per label value.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.histogram import BUCKET_BOUNDS_MS, Histogram

__all__ = [
    "CONTENT_TYPE",
    "OpenMetricsDoc",
    "OpenMetricsError",
    "parse_openmetrics",
    "render_openmetrics",
]

#: Content-Type for the ``?format=prom`` response.
CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"

_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_TYPES = {"gauge", "counter", "histogram", "info", "unknown"}


@lru_cache(maxsize=4096)
def _sanitize(part: str) -> str:
    # Cached: a scrape re-sanitizes the same few hundred tree keys on
    # every request, and the key set is effectively static.
    out = re.sub(r"[^a-zA-Z0-9_]", "_", str(part)).lower()
    if not out or not re.match(r"[a-zA-Z_]", out[0]):
        out = "_" + out
    return out


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    # Exact ints dominate real expositions (bucket counts, counters);
    # take that path before touching the float classifiers.
    t = type(value)
    if t is int:
        return str(value)
    if t is bool or isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


#: ``le`` labels for the shared histogram bounds, rendered once — every
#: histogram in the process uses the same module-constant buckets.
_LE_LABELS: Dict[float, str] = {
    bound: _format_value(bound) for bound in BUCKET_BOUNDS_MS
}


def _flatten(
    tree: Mapping[str, Any],
    path: Tuple[str, ...],
    numbers: List[Tuple[str, float]],
    strings: List[Tuple[str, str]],
) -> None:
    for key in tree:
        value = tree[key]
        sub = path + (_sanitize(key),)
        # type() fast paths first: ABC isinstance (Mapping) is an
        # order of magnitude slower and the tree is plain dicts.
        t = type(value)
        if t is dict or isinstance(value, Mapping):
            _flatten(value, sub, numbers, strings)
        elif t is bool or isinstance(value, bool):
            numbers.append(("_".join(sub), 1.0 if value else 0.0))
        elif t in (int, float) or isinstance(value, (int, float)):
            numbers.append(("_".join(sub), float(value)))
        elif t is str or isinstance(value, str):
            strings.append(("_".join(sub), value))
        # None / lists carry no scrapeable value; skipped by design.


def _histogram_lines(
    lines: List[str], full: str, hist: Histogram, labels: str = ""
) -> None:
    buckets = hist.buckets()
    for ub, cum in buckets:
        le = _LE_LABELS.get(ub)
        if le is None:
            le = "+Inf" if math.isinf(ub) else _format_value(ub)
        lines.append(f'{full}_bucket{{{labels}le="{le}"}} {cum}')
    series = f"{{{labels[:-1]}}}" if labels else ""
    lines.append(f"{full}_count{series} {buckets[-1][1]}")
    lines.append(f"{full}_sum{series} {_format_value(hist.sum_ms())}")


def render_openmetrics(
    tree: Mapping[str, Any],
    *,
    histograms: Optional[Mapping[str, Histogram]] = None,
    labeled_histograms: Optional[
        Mapping[str, Tuple[str, Mapping[str, Histogram]]]
    ] = None,
    prefix: str = "shoal",
) -> str:
    """Render a nested metrics tree (plus live histograms) as
    OpenMetrics text, ``# EOF``-terminated.

    ``labeled_histograms`` maps a family name to ``(label, {value:
    histogram})``: one histogram family with a series per label value
    (a family with no series is left out)."""
    prefix = _sanitize(prefix)
    numbers: List[Tuple[str, float]] = []
    strings: List[Tuple[str, str]] = []
    _flatten(tree, (), numbers, strings)

    lines: List[str] = []
    for name, value in sorted(dict(numbers).items()):
        full = f"{prefix}_{name}"
        lines.append(f"# TYPE {full} gauge")
        lines.append(f"{full} {_format_value(value)}")

    for name, hist in sorted((histograms or {}).items()):
        full = f"{prefix}_{_sanitize(name)}"
        lines.append(f"# TYPE {full} histogram")
        _histogram_lines(lines, full, hist)

    for name, (label, series) in sorted((labeled_histograms or {}).items()):
        if not series:
            continue
        full = f"{prefix}_{_sanitize(name)}"
        lines.append(f"# TYPE {full} histogram")
        for value, hist in sorted(series.items()):
            _histogram_lines(
                lines, full, hist, f'{label}="{_escape_label(value)}",'
            )

    if strings:
        meta = f"{prefix}_meta"
        lines.append(f"# TYPE {meta} gauge")
        for name, value in sorted(dict(strings).items()):
            lines.append(
                f'{meta}{{path="{_escape_label(name)}",'
                f'value="{_escape_label(value)}"}} 1'
            )

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


class OpenMetricsError(ValueError):
    """The exposition violated the strict OpenMetrics subset."""


class OpenMetricsDoc:
    """Parsed exposition: family types plus every sample."""

    def __init__(
        self,
        types: Dict[str, str],
        samples: List[Tuple[str, Dict[str, str], float]],
    ) -> None:
        self.types = types
        self.samples = samples

    def value(self, name: str, **labels: str) -> float:
        """The unique sample value for ``name`` with exactly ``labels``."""
        want = dict(labels)
        matches = [v for n, lb, v in self.samples if n == name and lb == want]
        if len(matches) != 1:
            raise KeyError(
                f"{len(matches)} samples for {name} with labels {want}"
            )
        return matches[0]

    def names(self) -> List[str]:
        return sorted({n for n, _, _ in self.samples})


def _parse_labels(raw: str, line_no: int) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    i = 0
    while i < len(raw):
        eq = raw.index("=", i)
        key = raw[i:eq]
        if not _LABEL_RE.match(key):
            raise OpenMetricsError(f"line {line_no}: bad label name {key!r}")
        if eq + 1 >= len(raw) or raw[eq + 1] != '"':
            raise OpenMetricsError(f"line {line_no}: unquoted label value")
        j = eq + 2
        value_chars: List[str] = []
        while j < len(raw):
            ch = raw[j]
            if ch == "\\":
                if j + 1 >= len(raw):
                    raise OpenMetricsError(
                        f"line {line_no}: dangling escape"
                    )
                esc = raw[j + 1]
                value_chars.append(
                    {"\\": "\\", '"': '"', "n": "\n"}.get(esc, esc)
                )
                j += 2
                continue
            if ch == '"':
                break
            value_chars.append(ch)
            j += 1
        else:
            raise OpenMetricsError(f"line {line_no}: unterminated label")
        if key in labels:
            raise OpenMetricsError(
                f"line {line_no}: duplicate label {key!r}"
            )
        labels[key] = "".join(value_chars)
        i = j + 1
        if i < len(raw):
            if raw[i] != ",":
                raise OpenMetricsError(
                    f"line {line_no}: expected ',' between labels"
                )
            i += 1
    return labels


def _family_of(sample_name: str, types: Dict[str, str]) -> Optional[str]:
    if sample_name in types:
        return sample_name
    for suffix in ("_bucket", "_count", "_sum", "_total", "_info"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if base in types:
                return base
    return None


def parse_openmetrics(text: str) -> OpenMetricsDoc:
    """Strictly parse OpenMetrics text; raise :class:`OpenMetricsError`
    on any structural violation."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[-1] != "# EOF":
        raise OpenMetricsError("exposition must end with '# EOF'")
    types: Dict[str, str] = {}
    samples: List[Tuple[str, Dict[str, str], float]] = []
    seen_families: List[str] = []
    current_family: Optional[str] = None
    for line_no, line in enumerate(lines[:-1], start=1):
        if line == "# EOF":
            raise OpenMetricsError(f"line {line_no}: '# EOF' before the end")
        if not line or line != line.strip():
            raise OpenMetricsError(
                f"line {line_no}: blank line or stray whitespace"
            )
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[0] != "#" or parts[1] not in (
                "TYPE",
                "HELP",
                "UNIT",
            ):
                raise OpenMetricsError(
                    f"line {line_no}: malformed comment {line!r}"
                )
            name = parts[2]
            if not _NAME_RE.match(name):
                raise OpenMetricsError(
                    f"line {line_no}: bad metric name {name!r}"
                )
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in _TYPES:
                    raise OpenMetricsError(
                        f"line {line_no}: bad TYPE line {line!r}"
                    )
                if name in types:
                    raise OpenMetricsError(
                        f"line {line_no}: family {name!r} declared twice"
                    )
                types[name] = parts[3]
                seen_families.append(name)
                current_family = name
            continue
        # -- sample line ---------------------------------------------------
        m = re.match(r"^([a-zA-Z_][a-zA-Z0-9_]*)(\{(.*)\})? (\S+)$", line)
        if not m:
            raise OpenMetricsError(f"line {line_no}: malformed sample {line!r}")
        sample_name, _, raw_labels, raw_value = m.groups()
        family = _family_of(sample_name, types)
        if family is None:
            raise OpenMetricsError(
                f"line {line_no}: sample {sample_name!r} has no TYPE"
            )
        if family != current_family:
            raise OpenMetricsError(
                f"line {line_no}: sample for {family!r} outside its "
                f"contiguous block (current family {current_family!r})"
            )
        labels = _parse_labels(raw_labels or "", line_no)
        try:
            if raw_value == "+Inf":
                value = math.inf
            elif raw_value == "-Inf":
                value = -math.inf
            else:
                value = float(raw_value)
        except ValueError:
            raise OpenMetricsError(
                f"line {line_no}: bad value {raw_value!r}"
            ) from None
        samples.append((sample_name, labels, value))

    _check_histograms(types, samples)
    return OpenMetricsDoc(types, samples)


def _check_histograms(
    types: Dict[str, str],
    samples: List[Tuple[str, Dict[str, str], float]],
) -> None:
    for family, kind in types.items():
        if kind != "histogram":
            continue
        series: Dict[Tuple[Tuple[str, str], ...], List[Tuple[float, float]]]
        series = {}
        counts: Dict[Tuple[Tuple[str, str], ...], float] = {}
        sums: Dict[Tuple[Tuple[str, str], ...], float] = {}
        for name, labels, value in samples:
            base = dict(labels)
            le = base.pop("le", None)
            key = tuple(sorted(base.items()))
            if name == f"{family}_bucket":
                if le is None:
                    raise OpenMetricsError(
                        f"{family}: bucket sample without le label"
                    )
                bound = math.inf if le == "+Inf" else float(le)
                series.setdefault(key, []).append((bound, value))
            elif name == f"{family}_count":
                counts[key] = value
            elif name == f"{family}_sum":
                sums[key] = value
        if not series:
            raise OpenMetricsError(f"{family}: histogram with no buckets")
        for key, buckets in series.items():
            bounds = [b for b, _ in buckets]
            if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
                raise OpenMetricsError(
                    f"{family}: bucket bounds not strictly increasing"
                )
            values = [v for _, v in buckets]
            if values != sorted(values):
                raise OpenMetricsError(
                    f"{family}: bucket counts not cumulative"
                )
            if not math.isinf(bounds[-1]):
                raise OpenMetricsError(f"{family}: missing le=\"+Inf\" bucket")
            if key not in counts or key not in sums:
                raise OpenMetricsError(
                    f"{family}: missing _count or _sum sample"
                )
            if counts[key] != values[-1]:
                raise OpenMetricsError(
                    f"{family}: _count {counts[key]} != +Inf bucket "
                    f"{values[-1]}"
                )
