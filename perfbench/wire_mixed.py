"""``wire-mixed``: many small mixed-shape requests over the wire.

Requests from one process, with at most ``nproc`` (2) sender connections,
go through a ``ClusterGateway`` over 2 replicas in process mode with 1 pool
worker each.  They carry seeded ``ShapeMix`` grayscale images of 32x32,
48x48 and 64x64 (13-35 ms of compute each) on packed d = 1024 at the
paper's latency setting of 3 iterations.  Here the wire, gateway, HTTP and
server layers do most of the work and the kernels little; process mode
keeps the shared-memory transport and the shared grid cache on the
measured path.

The run has three phases.  A closed loop with one caller gives the gated
latency and throughput.  An open-loop Poisson phase at the nominal
rate and a short ladder of fixed rates give the printed latency from due
time, the SLO misses, the generator lag and the highest rate that meets the
latency limit.  Each request is timed from the time it was due, so time
spent waiting for a free sender counts.  The load generator's own
``RequestRecord.latency_seconds`` starts at the send and drops that wait.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time

from repro.device.cost_model import http_wire_bytes, seghdc_cost
from repro.loadgen import ConstantSchedule, LoadGenerator, PoissonSchedule, ShapeMix
from repro.seghdc import SegHDCConfig, SegHDCEngine

from fleets import boot, gateway_stats, serving_extras
from measure import backlog_series, descendants, encoder_build_ms, median, peak_rss_mb
from report import emit_layers, layer_metrics
from spans import Span

TOPOLOGY = "gateway + 2 supervised replicas, process mode, 1 pool worker each"
SHAPES = ((32, 32), (48, 48), (64, 64))
#: Open-loop sender connections (at most ``nproc``, 2).  The closed loop
#: uses one caller: with two requests in flight, five processes compete for
#: the cores and run-to-run spread doubles.
SENDERS = min(2, os.cpu_count() or 1)
NOMINAL_RPS = 10.0
LADDER_RPS = (8.0, 16.0, 24.0)
#: Fixed per-request latency limit, timed from the due time.
SLO_MS = 200.0
#: A ladder rate meets the limit when at most this share misses it.
SLO_MISS_ALLOWED = 0.05
#: Share of the run given to the closed-loop, nominal-rate and ladder phases.
#: The gated latency and throughput come from the closed loop: with idle gaps
#: between requests, open-loop latency on this stack drifts by up to 2x
#: between runs, far more than any bound could absorb.
PHASES = (0.5, 0.3, 0.2)
SETUP_REPEATS = 3
#: Every this-many-th response is compared with a direct engine pass.
CHECK_EVERY = 10


def _config() -> dict:
    return (
        SegHDCConfig.paper_defaults("dsb2018")
        .with_overrides(dimension=1024, num_iterations=3, backend="packed")
        .scaled_for_shape(64, 64)
        .to_dict()
    )


class _IndexedMix(ShapeMix):
    """A seeded mix that tells the sending thread which request it builds.

    Shapes come in turn rather than drawn, so every run carries the same mix;
    the seed still draws the pixels and the arrival times.
    """

    def __init__(self, seed: int) -> None:
        super().__init__([(shape, 1.0) for shape in SHAPES], seed=seed)
        self.current = threading.local()

    def shape_for(self, index):
        return SHAPES[index % len(SHAPES)]

    def image_for(self, index):
        self.current.index = index
        return super().image_for(index)


def _mix(seed: int, phase: int) -> _IndexedMix:
    return _IndexedMix(seed * 16 + phase)


class _Target:
    """Load-generator target: one framed raw request per image."""

    def __init__(self, client, mix, tracer=None) -> None:
        self.client = client
        self.mix = mix
        self.tracer = tracer
        self.kept: dict = {}
        self.roots: dict = {}

    def segment(self, image):
        index = self.mix.current.index
        if self.tracer is not None:
            with self.tracer.span("request", rid=index) as root:
                self.roots[index] = root
                labels = self.client.segment_raw([image])[0]
        else:
            labels = self.client.segment_raw([image])[0]
        if index % CHECK_EVERY == 0:
            self.kept[index] = labels
        return labels


def _phase(client, mix, seconds, *, rate=None, tracer=None):
    """One load-generator run: open loop at ``rate`` or closed loop."""
    target = _Target(client, mix, tracer)
    if rate is None:
        schedule, mode, senders = ConstantSchedule(1.0, seconds), "closed", 1
    else:
        schedule = PoissonSchedule(rate, seconds, seed=mix.seed)
        mode, senders = "open", SENDERS
    generator = LoadGenerator(
        target, schedule, mix, mode=mode, concurrency=senders, stats_interval=0
    )
    return generator.run(), target


def _due_latencies_ms(records) -> list:
    return [1000.0 * (r.done_at - r.scheduled_at) for r in records if r.status == "ok"]


def _misses(records) -> int:
    return sum(
        1 for r in records
        if r.status != "ok" or 1000.0 * (r.done_at - r.scheduled_at) > SLO_MS
    )


def _backlog_grows(records) -> bool:
    """Whether the mean backlog over the second half of the arrivals exceeds
    the first half's by more than one request."""
    series = backlog_series(records)
    last_due = max(r.scheduled_at for r in records)
    halves = ([], [])
    for at, level in series:
        if at <= last_due:
            halves[at > last_due / 2].append(level)
    return bool(halves[0]) and bool(halves[1]) and (
        sum(halves[1]) / len(halves[1]) > sum(halves[0]) / len(halves[0]) + 1
    )


def _failures(load) -> int:
    return sum(1 for r in load.records if r.status != "ok")


def _warm_up(client, mix) -> None:
    """One request per shape: grids built, pool workers started."""
    for index in range(len(SHAPES)):
        client.segment_raw([mix.image_for(index)])


def _check(report, config, checked) -> None:
    """Sampled responses equal a direct engine pass on the same image."""
    engine = SegHDCEngine(SegHDCConfig.from_dict(config))
    for mix, target in checked:
        for index, labels in sorted(target.kept.items()):
            direct = engine.segment(mix.image_for(index)).labels
            report.check(
                direct.shape == labels.shape and bool((direct == labels).all()),
                f"request {index} of mix seed {mix.seed}: labels differ from a direct pass",
            )


def run(report, seed: int, seconds: float, tracer=None) -> None:
    config = _config()
    if tracer is None:
        _run_untraced(report, seed, seconds, config)
    else:
        _run_traced(report, seed, seconds, config, tracer)


def _run_untraced(report, seed, seconds, config) -> None:
    closed_s, nominal_s, ladder_s = (share * seconds for share in PHASES)
    setups = []
    checked = []
    with contextlib.ExitStack() as stack:
        for attempt in range(SETUP_REPEATS):
            fleet = stack.enter_context(contextlib.ExitStack())
            start = time.perf_counter()
            gateway, client = boot(fleet, config, "process", in_process=False)
            _warm_up(client, _mix(seed, 0))
            setups.append(time.perf_counter() - start)
            if attempt + 1 < SETUP_REPEATS:
                fleet.close()

        def phase(number, seconds, rate=None):
            mix = _mix(seed, number)
            result, target = _phase(client, mix, seconds, rate=rate)
            checked.append((mix, target))
            return result

        closed = phase(1, closed_s)
        nominal = phase(2, nominal_s, NOMINAL_RPS)
        step_s = ladder_s / len(LADDER_RPS)
        ladder = [
            (rate, phase(3 + step, step_s, rate)) for step, rate in enumerate(LADDER_RPS)
        ]
        peak = peak_rss_mb(descendants())
        stats = gateway_stats(gateway, client)

    runs = [closed, nominal] + [result for _rate, result in ladder]
    report.operations(sum(r.issued for r in runs), sum(_failures(r) for r in runs))
    report.metric("setup_s", median(setups), "s", f"median of {SETUP_REPEATS} fleet boots")
    report.latency("", _due_latencies_ms(closed.records), gated=True)
    ok = [r for r in closed.records if r.status == "ok"]
    pixels = sum(r.shape[0] * r.shape[1] for r in ok)
    report.metric(
        "throughput_mpix_s", pixels / closed.elapsed_seconds / 1e6, "Mpix/s",
        "closed loop, 1 caller",
    )
    report.note(
        "sustained_rps", len(ok) / closed.elapsed_seconds, "1/s",
        f"closed loop, 1 caller, {closed.elapsed_seconds:.1f} s",
    )
    report.metric("peak_rss_mb", peak, "MB", "largest of benchmark, replicas, pool workers")
    report.latency("open.", _due_latencies_ms(nominal.records), gated=False)
    report.note(
        "slo_miss_share", _misses(nominal.records) / max(1, nominal.issued), "share",
        f"failed or over {SLO_MS:.0f} ms from due, {nominal.issued} sent at {NOMINAL_RPS} rps",
    )
    report.note(
        "loadgen.lag_ms",
        median(1000.0 * (r.sent_at - r.scheduled_at) for r in nominal.records), "ms",
        "sent minus due, median",
    )
    met = [
        rate for rate, result in ladder
        if result.issued
        and _misses(result.records) <= SLO_MISS_ALLOWED * result.issued
        and not _backlog_grows(result.records)
    ]
    report.note(
        "max_rps_at_slo", max(met, default=0.0), "1/s",
        f"ladder {list(LADDER_RPS)}, {step_s:.1f} s each",
    )
    completed = [
        (entry or {}).get("completed", 0)
        for entry in stats["fleet"]["per_replica"].values()
    ]
    report.note(
        "gateway.busiest_replica_share", max(completed) / max(1, sum(completed)), "share"
    )
    _check(report, config, checked)


def _run_traced(report, seed, seconds, config, tracer) -> None:
    closed_s = (1.0 - PHASES[1]) * seconds
    with contextlib.ExitStack() as stack:
        tracer.enabled = True
        gateway, client = boot(stack, config, "process", in_process=True)
        _warm_up(client, _mix(seed, 0))
        tracer.enabled = False
        nominal, _target = _phase(client, _mix(seed, 2), PHASES[1] * seconds, rate=NOMINAL_RPS)
        untraced_mix = _mix(seed, 1)
        untraced, untraced_target = _phase(client, untraced_mix, closed_s / 2)
        tracer.reset()
        tracer.enabled = True
        traced_mix = _mix(seed, 3)
        traced, traced_target = _phase(client, traced_mix, closed_s / 2, tracer=tracer)
        tracer.enabled = False
        extras = serving_extras(gateway, client)

    for record in traced.records:
        root = traced_target.roots.get(record.index)
        if root is not None:
            root.start = traced.started_at + record.scheduled_at
            tracer.record(
                Span("loadgen.wait", root.start, root, end=traced.started_at + record.sent_at)
            )
    runs = (nominal, untraced, traced)
    report.operations(sum(r.issued for r in runs), sum(_failures(r) for r in runs))
    shapes = [record.shape for record in traced.records if record.status == "ok"]
    extras.update(
        {
            "engine.encoder_build.ms": encoder_build_ms(
                SegHDCConfig.from_dict(config), [(h, w, 1) for h, w in SHAPES]
            ),
            "loadgen.lag_ms": median(
                1000.0 * (r.sent_at - r.scheduled_at) for r in nominal.records
            ),
            "loadgen.backlog_max": max(
                (level for _at, level in backlog_series(nominal.records)), default=0
            ),
            "model.http_wire_bytes": sum(http_wire_bytes(h, w) for h, w in shapes)
            / max(1, len(shapes)),
        }
    )
    model_ops = [
        seghdc_cost(
            h, w, dimension=config["dimension"], num_clusters=config["num_clusters"],
            num_iterations=config["num_iterations"], backend=config["backend"],
        ).operations
        for h, w in shapes
    ]
    values = layer_metrics(
        tracer,
        untraced_ms=_due_latencies_ms(untraced.records),
        traced_ms=_due_latencies_ms(traced.records),
        model_ops=model_ops,
        extras=extras,
    )
    emit_layers(report, values)
    _check(report, config, [(untraced_mix, untraced_target), (traced_mix, traced_target)])
