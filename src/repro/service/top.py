"""``repro top`` — a live terminal ops view of one running service.

Everything renders from two public endpoints — ``/v1/metrics?format=json``
and ``/v1/traces`` — so the dashboard sees exactly what any other
scraper sees; there is no private side channel.  One refresh is one
:meth:`Dashboard.refresh`: fetch both payloads (plus ``/v1/healthz``
for version/uptime), diff the request counter against the previous
refresh for a requests-per-second rate, and render:

* the headline: RPS, totals, error count, job queue depth, coalescer
  in-flight count, cache hit rates per tier;
* a per-route table: request count, error count, p50/p95 latency
  estimated from the cumulative ``http_latency_seconds`` buckets (the
  same interpolation Prometheus's ``histogram_quantile`` applies) and
  the response bytes sent (``http.response_bytes``);
* the most recent slow and error traces from the trace store, ready to
  paste into ``repro`` — or ``curl`` — as ``/v1/traces/{id}`` lookups.

The rendering functions are pure (payloads in, text out), so tests
exercise them without a server; only :func:`run_top` owns the
clear-screen/sleep loop.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Mapping, TextIO

from .client import ServiceClient
from .server import ServiceError

__all__ = [
    "Dashboard",
    "parse_instrument_key",
    "quantile_from_buckets",
    "render_dashboard",
    "run_top",
]

#: Trace rows shown in the "recent slow / error traces" section.
TRACE_ROWS = 8

#: Routes shown in the per-route table (busiest first).
ROUTE_ROWS = 12


def parse_instrument_key(key: str) -> tuple[str, dict[str, str]]:
    """A snapshot instrument key → ``(name, labels)``.

    Snapshot keys render as ``name`` or ``name{k=v,k2=v2}`` (see
    :attr:`repro.obs.metrics._Instrument.key`); label values never
    contain ``,`` or ``}`` in this repository's instruments.
    """
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    # Exactly one closing brace belongs to the key syntax; label values
    # may legitimately end in "}" (route templates like /v1/jobs/{id}).
    if rest.endswith("}"):
        rest = rest[:-1]
    labels: dict[str, str] = {}
    for pair in rest.split(","):
        label, separator, value = pair.partition("=")
        if separator:
            labels[label] = value
    return name, labels


def quantile_from_buckets(
    buckets: Mapping[str, int], quantile: float
) -> float | None:
    """Estimate a quantile from cumulative Prometheus-style buckets.

    ``buckets`` maps upper-bound labels (``"0.05"``, ``"+Inf"``) to
    cumulative counts.  Linear interpolation inside the winning bucket,
    as ``histogram_quantile`` does; a quantile landing in the +Inf
    bucket clamps to the largest finite bound.  None with no samples.
    """
    bounds: list[tuple[float, int]] = []
    for label, cumulative in buckets.items():
        bound = float("inf") if label == "+Inf" else float(label)
        bounds.append((bound, int(cumulative)))
    bounds.sort()
    if not bounds or bounds[-1][1] <= 0:
        return None
    rank = quantile * bounds[-1][1]
    previous_bound, previous_count = 0.0, 0
    for bound, cumulative in bounds:
        if cumulative >= rank:
            if bound == float("inf"):
                return previous_bound
            width = cumulative - previous_count
            fraction = (
                (rank - previous_count) / width if width > 0 else 1.0
            )
            return previous_bound + (bound - previous_bound) * fraction
        previous_bound, previous_count = bound, cumulative
    return previous_bound  # pragma: no cover - +Inf row always matches


def _route_table(snapshot: Mapping[str, Any]) -> list[dict[str, Any]]:
    """Per-route rows: requests, errors, p50/p95 — busiest first."""
    rows: dict[str, dict[str, Any]] = {}

    def row(route: str) -> dict[str, Any]:
        return rows.setdefault(
            route,
            {"route": route, "requests": 0, "errors": 0,
             "p50_ms": None, "p95_ms": None, "bytes": 0.0},
        )

    for key, value in snapshot.get("counters", {}).items():
        name, labels = parse_instrument_key(key)
        if name == "http.response_bytes" and "route" in labels:
            row(labels["route"])["bytes"] += float(value)
        if name != "http.requests" or "route" not in labels:
            continue
        entry = row(labels["route"])
        entry["requests"] += int(value)
        try:
            status = int(labels.get("status", "0"))
        except ValueError:
            status = 0
        if status >= 500:
            entry["errors"] += int(value)
    for key, histogram in snapshot.get("histograms", {}).items():
        name, labels = parse_instrument_key(key)
        if name != "http.latency_seconds" or "route" not in labels:
            continue
        entry = row(labels["route"])
        buckets = histogram.get("buckets", {})
        for field, quantile in (("p50_ms", 0.5), ("p95_ms", 0.95)):
            seconds = quantile_from_buckets(buckets, quantile)
            if seconds is not None:
                entry[field] = seconds * 1e3
    return sorted(rows.values(), key=lambda r: -r["requests"])


def _counter(snapshot: Mapping[str, Any], name: str) -> float:
    """Sum a counter across all its label sets."""
    total = 0.0
    for key, value in snapshot.get("counters", {}).items():
        if parse_instrument_key(key)[0] == name:
            total += float(value)
    return total


def _gauge(snapshot: Mapping[str, Any], name: str) -> float | None:
    value = snapshot.get("gauges", {}).get(name)
    return None if value is None else float(value)


def _hit_rate(snapshot: Mapping[str, Any], tier: str) -> str:
    hits = _counter(snapshot, f"cache.{tier}.hits")
    misses = _counter(snapshot, f"cache.{tier}.misses")
    total = hits + misses
    if total <= 0:
        return f"{tier} -"
    return f"{tier} {hits / total:.0%} ({int(hits)}/{int(total)})"


def _format_ms(value: float | None) -> str:
    return "-" if value is None else f"{value:.1f}"


def _format_bytes(value: float) -> str:
    for scale, unit in ((1e9, "GB"), (1e6, "MB"), (1e3, "kB")):
        if value >= scale:
            return f"{value / scale:.1f} {unit}"
    return f"{value:.0f} B"


def _interesting_traces(
    traces: list[Mapping[str, Any]], rows: int = TRACE_ROWS
) -> list[Mapping[str, Any]]:
    """Errors first (newest first), then the slowest of the rest."""
    errors = [t for t in traces if t.get("error")]
    rest = sorted(
        (t for t in traces if not t.get("error")),
        key=lambda t: -float(t.get("duration_ms", 0.0)),
    )
    return (errors + rest)[:rows]


def render_dashboard(
    snapshot: Mapping[str, Any],
    traces: list[Mapping[str, Any]],
    healthz: Mapping[str, Any] | None = None,
    rps: float | None = None,
    base_url: str = "",
) -> str:
    """The whole dashboard as text (pure: payloads in, screen out)."""
    healthz = healthz or {}
    lines: list[str] = []
    uptime = healthz.get("uptime_seconds")
    header = "repro top"
    if base_url:
        header += f" — {base_url}"
    if healthz.get("version"):
        header += f"  v{healthz['version']}"
    if uptime is not None:
        header += f"  up {float(uptime):.0f}s"
    lines.append(header)

    if not snapshot.get("enabled", False):
        lines.append("telemetry is disabled on this server "
                     "(start without --no-telemetry)")
        return "\n".join(lines)

    total = _counter(snapshot, "http.requests")
    headline = f"requests {int(total)}"
    if rps is not None:
        headline += f"  rps {rps:.1f}"
    headline += f"  errors {int(healthz.get('errors', 0))}"
    queue_depth = _gauge(snapshot, "jobs.queue_depth")
    if queue_depth is not None:
        headline += f"  job-queue {int(queue_depth)}"
    in_flight = _gauge(snapshot, "coalescer.in_flight")
    if in_flight is not None:
        headline += f"  coalescer-in-flight {int(in_flight)}"
    lines.append(headline)
    lines.append(
        "cache: "
        + "  ".join(
            (_hit_rate(snapshot, "memory"), _hit_rate(snapshot, "disk"))
        )
    )

    routes = _route_table(snapshot)
    if routes:
        lines.append("")
        lines.append(
            f"{'route':<28} {'reqs':>7} {'err':>5} "
            f"{'p50 ms':>9} {'p95 ms':>9} {'bytes out':>10}"
        )
        for entry in routes[:ROUTE_ROWS]:
            lines.append(
                f"{entry['route']:<28} {entry['requests']:>7} "
                f"{entry['errors']:>5} "
                f"{_format_ms(entry['p50_ms']):>9} "
                f"{_format_ms(entry['p95_ms']):>9} "
                f"{_format_bytes(entry['bytes']):>10}"
            )

    lines.append("")
    lines.append("recent slow / error traces (GET /v1/traces/{id}):")
    interesting = _interesting_traces(traces)
    if not interesting:
        lines.append("  (none recorded yet)")
    for trace in interesting:
        marker = "  !!" if trace.get("error") else ""
        target = f"{trace.get('method', '')} {trace.get('route', '')}"
        lines.append(
            f"  {trace.get('trace_id', ''):<32} {target:<24} "
            f"{trace.get('status', 0):>4} "
            f"{float(trace.get('duration_ms', 0.0)):>9.1f} ms"
            f"{marker}"
        )
    return "\n".join(lines)


class Dashboard:
    """One service's dashboard state: fetch, diff for RPS, render."""

    def __init__(
        self, client: ServiceClient, clock=time.monotonic
    ) -> None:
        self.client = client
        self._clock = clock
        self._previous_total: float | None = None
        self._previous_time: float | None = None

    def refresh(self) -> str:
        snapshot = self.client.metrics()
        healthz = self.client.healthz()
        try:
            traces = self.client.traces(limit=100)
        except ServiceError as error:
            if error.kind != "tracing-disabled":
                raise
            traces = []
        now = self._clock()
        total = _counter(snapshot, "http.requests")
        rps = None
        if (
            self._previous_total is not None
            and self._previous_time is not None
            and now > self._previous_time
        ):
            rps = max(
                0.0,
                (total - self._previous_total) / (now - self._previous_time),
            )
        self._previous_total, self._previous_time = total, now
        return render_dashboard(
            snapshot,
            traces,
            healthz=healthz,
            rps=rps,
            base_url=self.client.base_url,
        )


#: The ANSI clear-screen + cursor-home prefix of each live refresh.
CLEAR_SCREEN = "\x1b[2J\x1b[H"


def run_top(
    client: ServiceClient,
    interval: float = 2.0,
    iterations: int | None = None,
    stream: TextIO = sys.stdout,
    clear: bool = True,
    sleep=time.sleep,
) -> int:
    """The refresh loop: render every ``interval`` seconds until stopped.

    ``iterations`` bounds the number of refreshes (``--once`` passes 1;
    None loops until KeyboardInterrupt, which the CLI catches).
    """
    dashboard = Dashboard(client)
    refreshed = 0
    while True:
        text = dashboard.refresh()
        if clear:
            stream.write(CLEAR_SCREEN)
        stream.write(text + "\n")
        stream.flush()
        refreshed += 1
        if iterations is not None and refreshed >= iterations:
            return 0
        sleep(interval)
