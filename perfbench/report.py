"""Result collection and the per-layer metric table built from the spans."""

from __future__ import annotations

import json
import sys

from measure import median, tail
from spans import per_request


class Report:
    """Metrics, operation counts and check outcomes of one run.

    ``metric`` values go into the final JSON line; ``note`` values are
    printed for people only (metrics that do not apply to every workload,
    or that a short run cannot measure steadily enough to gate).
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: dict = {}
        self.attempted = 0
        self.failed = 0
        self.check_failures: list = []

    def metric(self, name: str, value: float, unit: str, detail: str = "") -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}
        self.note(name, value, unit, detail)

    def note(self, name: str, value, unit: str, detail: str = "") -> None:
        shown = f"{value:.6g}" if isinstance(value, (int, float)) else str(value)
        suffix = f"  ({detail})" if detail else ""
        print(f"[{self.workload}] {name} = {shown} {unit}{suffix}", flush=True)

    def latency(self, prefix: str, samples_ms: list, *, gated: bool) -> None:
        """Median (gated or not) and the tail with its sample count."""
        n = len(samples_ms)
        (self.metric if gated else self.note)(
            f"{prefix}latency_p50_ms", median(samples_ms), "ms", f"median of n={n}"
        )
        found = tail(samples_ms)
        if found is None:
            self.note(f"{prefix}latency_tail_ms", "n/a", "", f"n={n}: fewer than 11 samples")
        else:
            value, percentile, count = found
            self.note(
                f"{prefix}latency_tail_ms", value, "ms",
                f"p{percentile:.1f}, n={count}, 10 samples beyond it",
            )

    def operations(self, attempted: int, failed: int) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    def check(self, ok: bool, what: str) -> None:
        """Count one output check; a failed one fails the run."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.check_failures.append(what)
            print(f"[{self.workload}] CHECK FAILED: {what}", file=sys.stderr, flush=True)

    def emit(self) -> str:
        """The result JSON (the last line of standard output)."""
        if self.attempted:
            self.note(
                "error_share", self.failed / self.attempted, "share",
                f"{self.failed} of {self.attempted} operations and checks",
            )
        return json.dumps(
            {
                "correct": not self.check_failures and self.failed == 0,
                "attempted": max(1, self.attempted),
                "failed": self.failed,
                "metrics": self.metrics,
            }
        )


#: Per-layer metrics, with units; a layer a workload never calls reads 0.
LAYER_UNITS = {
    "backend.assign.ms": "ms",
    "backend.assign.calls": "count",
    "backend.assign.computed_mb": "MB",
    "backend.bundle_masked.ms": "ms",
    "backend.bundle_masked.calls": "count",
    "backend.bind_color.ms": "ms",
    "backend.bind_position_grid.calls": "count",
    "clusterer.iterations": "count",
    "clusterer.churn_share": "share",
    "clusterer.self_ms": "ms",
    "engine.segment.self_ms": "ms",
    "engine.encoder_build.ms": "ms",
    "engine.cache_hit_share": "share",
    "server.queue_wait_ms": "ms",
    "server.self_ms": "ms",
    "server.batch_size": "count",
    "server.rejected": "count",
    "server.transport.shm.bytes_per_image": "bytes",
    "server.transport.pickle.bytes_per_image": "bytes",
    "http.self_ms": "ms",
    "http.request_bytes": "bytes",
    "http.response_bytes": "bytes",
    "gateway.self_ms": "ms",
    "gateway.hop.self_ms": "ms",
    "client.wire.self_ms": "ms",
    "gateway.busiest_replica_share": "share",
    "gateway.failovers": "count",
    "tiling.cut.ms": "ms",
    "tiling.stitch.ms": "ms",
    "tiling.tiles": "count",
    "loadgen.lag_ms": "ms",
    "loadgen.backlog_max": "count",
    "trace.unaccounted_share": "share",
    "trace.overhead_share": "share",
    "model.seghdc_gop_per_image": "Gop",
    "model.achieved_gop_s": "Gop/s",
    "model.http_wire_bytes": "bytes",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median_or_zero(values) -> float:
    values = list(values)
    return median(values) if values else 0.0


def layer_metrics(tracer, *, untraced_ms, traced_ms, model_ops, extras) -> dict:
    """Per-layer values from the traced phase's spans plus ``extras``.

    ``model_ops`` is the cost model's operation count for every image the
    traced phase segmented; ``extras`` carries the values read from public
    stats and the benchmark's own measurements.
    """
    spans = [span for span in tracer.spans if span.end is not None]
    roots, selves, by_root = per_request(spans)

    def per_request_ms(name):
        return 1000.0 * _median_or_zero(by_root[id(root)][name] for root in roots)

    def named(name):
        return [span for span in spans if span.name == name]

    segments = named("engine.segment")
    segment_calls = len(segments)

    def per_segment_ms(name):
        return 1000.0 * _ratio(sum(span.seconds for span in named(name)), segment_calls)

    def count_per_segment(name):
        return _ratio(len(named(name)), segment_calls)

    replica_images = [
        amount for key, amount in tracer.totals.items() if key.startswith("images@")
    ]
    compute_seconds = sum(span.seconds for span in segments)
    totals = tracer.totals
    values = {
        "backend.assign.ms": per_segment_ms("backend.assign"),
        "backend.assign.calls": count_per_segment("backend.assign"),
        "backend.assign.computed_mb": _ratio(totals["assign_bytes"], segment_calls) / 1e6,
        "backend.bundle_masked.ms": per_segment_ms("backend.bundle_masked"),
        "backend.bundle_masked.calls": count_per_segment("backend.bundle_masked"),
        "backend.bind_color.ms": per_segment_ms("backend.bind_color"),
        "backend.bind_position_grid.calls": tracer.calls["backend.bind_position_grid"],
        "clusterer.iterations": _ratio(totals["iterations"], totals["fits"]),
        "clusterer.churn_share": _ratio(totals["churned_rows"], totals["reassigned_rows"]),
        "clusterer.self_ms": 1000.0 * _median_or_zero(
            selves[id(span)] for span in named("clusterer.fit")
        ),
        "engine.segment.self_ms": 1000.0 * _median_or_zero(
            selves[id(span)] for span in segments
        ),
        "server.queue_wait_ms": 1000.0 * _median_or_zero(tracer.queue_waits),
        "server.self_ms": per_request_ms("server"),
        "http.self_ms": per_request_ms("http"),
        "http.request_bytes": _ratio(totals["http_request_bytes"], totals["http_images"]),
        "http.response_bytes": _ratio(totals["http_response_bytes"], totals["http_images"]),
        "gateway.self_ms": per_request_ms("gateway"),
        "gateway.hop.self_ms": per_request_ms("gateway.hop"),
        "client.wire.self_ms": per_request_ms("client.wire"),
        "gateway.busiest_replica_share": _ratio(max(replica_images, default=0), sum(replica_images)),
        "tiling.cut.ms": 1000.0 * _median_or_zero(tracer.cut_seconds),
        "tiling.stitch.ms": 1000.0 * _median_or_zero(
            span.seconds for span in named("tiling.stitch")
        ),
        "trace.unaccounted_share": _median_or_zero(
            _ratio(by_root[id(root)]["request"], root.seconds) for root in roots
        ),
        "trace.overhead_share": _ratio(median(traced_ms), median(untraced_ms)) - 1.0,
        "model.seghdc_gop_per_image": _ratio(sum(model_ops), len(model_ops)) / 1e9,
        "model.achieved_gop_s": _ratio(sum(model_ops), compute_seconds) / 1e9,
    }
    values.update(extras)
    unknown = set(values) - set(LAYER_UNITS)
    if unknown:
        raise ValueError(f"per-layer values without a unit: {sorted(unknown)}")
    return values


def emit_layers(report: Report, values: dict) -> None:
    """Put every per-layer value into ``report``; layers off the path read 0."""
    for name, unit in LAYER_UNITS.items():
        report.metric(name, values.get(name, 0.0), unit)
