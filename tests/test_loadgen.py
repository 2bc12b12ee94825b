"""Tests for the load-generation harness (:mod:`repro.loadgen`).

Schedules are checked against their closed-form arrival counts and
determinism guarantees; the shape mix for reproducible per-index draws;
the generator for the exactly-once record invariant in both loop modes,
the error taxonomy, and queue sampling; the report for percentiles and
SLO-violation bucketing; the result folders for layout and collision
safety; the chaos injector for timed firing and failure capture.  Live
servers appear only where the contract is about them (the HTTP target's
stats normalization) — everything else runs on stub targets.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from repro.loadgen import (
    CallableTarget,
    ChaosEvent,
    ChaosInjector,
    ConstantSchedule,
    HttpTarget,
    LoadGenerator,
    LoadReport,
    PoissonSchedule,
    RampSchedule,
    RequestRecord,
    ResultFolder,
    ServerTarget,
    ShapeMix,
    StepSchedule,
    classify_error,
    make_schedule,
)
from repro.serving.server import ServerSaturated, ServingError


class TestSchedules:
    def test_constant_schedule_count_and_spacing(self):
        schedule = ConstantSchedule(10.0, 2.0)
        times = schedule.arrival_times()
        assert len(times) == 20
        assert times[0] == pytest.approx(0.1)
        assert times[-1] == pytest.approx(2.0)
        gaps = np.diff(times)
        assert np.allclose(gaps, 0.1)

    def test_step_schedule_counts_per_phase(self):
        schedule = StepSchedule([(10.0, 1.0), (20.0, 1.0)])
        times = schedule.arrival_times()
        assert len(times) == 30
        first = [t for t in times if t <= 1.0 + 1e-9]
        assert len(first) == 10
        assert schedule.rate_at(0.5) == 10.0
        assert schedule.rate_at(1.5) == 20.0
        assert schedule.duration == 2.0

    def test_ramp_schedule_inverts_cumulative_intensity(self):
        schedule = RampSchedule(10.0, 30.0, 2.0)
        times = schedule.arrival_times()
        # Lambda(T) = (10 + 30)/2 * 2 = 40 arrivals.
        assert len(times) == 40
        # Each arrival time satisfies Lambda(t) = k exactly.
        for k, t in enumerate(times, start=1):
            lam = 10.0 * t + (30.0 - 10.0) * t * t / (2 * 2.0)
            assert lam == pytest.approx(k, abs=1e-6)
        # Arrivals tighten as the rate rises.
        gaps = np.diff(times)
        assert gaps[-1] < gaps[0]

    def test_flat_ramp_degenerates_to_constant(self):
        ramp = RampSchedule(10.0, 10.0, 1.0).arrival_times()
        const = ConstantSchedule(10.0, 1.0).arrival_times()
        assert np.allclose(ramp, const)

    def test_poisson_schedule_is_seeded(self):
        a = PoissonSchedule(50.0, 2.0, seed=3).arrival_times()
        b = PoissonSchedule(50.0, 2.0, seed=3).arrival_times()
        c = PoissonSchedule(50.0, 2.0, seed=4).arrival_times()
        assert a == b
        assert a != c
        assert all(0 <= t < 2.0 for t in a)
        # Mean arrivals ~ rate * duration; a seeded draw sits well within
        # 5 sigma of the Poisson mean.
        assert abs(len(a) - 100) < 5 * math.sqrt(100)

    def test_make_schedule_round_trips_describe(self):
        specs = [
            {"kind": "constant", "rate": 5.0, "duration": 1.0},
            {
                "kind": "step",
                "phases": [
                    {"rate": 5.0, "duration": 1.0},
                    {"rate": 10.0, "duration": 1.0},
                ],
            },
            {"kind": "ramp", "start_rate": 5.0, "end_rate": 9.0, "duration": 2.0},
            {"kind": "poisson", "rate": 5.0, "duration": 1.0, "seed": 2},
        ]
        for spec in specs:
            schedule = make_schedule(spec)
            assert schedule.describe() == spec
            assert make_schedule(schedule.describe()).arrival_times() == (
                schedule.arrival_times()
            )

    def test_make_schedule_rejects_unknown_kind_and_missing_fields(self):
        with pytest.raises(ValueError, match="unknown schedule kind"):
            make_schedule({"kind": "sawtooth"})
        with pytest.raises(ValueError, match="missing field"):
            make_schedule({"kind": "constant", "rate": 5.0})
        with pytest.raises(ValueError, match="must be positive"):
            make_schedule({"kind": "constant", "rate": -1.0, "duration": 1.0})

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            ConstantSchedule(0.0, 1.0)
        with pytest.raises(ValueError):
            StepSchedule([])
        with pytest.raises(ValueError):
            RampSchedule(1.0, 1.0, 0.0)


class TestShapeMix:
    def test_parse_and_describe(self):
        mix = ShapeMix.parse("48x64:3,32x40", seed=5)
        assert mix.describe() == {
            "entries": [
                {"shape": [48, 64], "weight": 3.0},
                {"shape": [32, 40], "weight": 1.0},
            ],
            "seed": 5,
        }

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="HxW"):
            ShapeMix.parse("48by64")
        with pytest.raises(ValueError):
            ShapeMix.parse("")
        with pytest.raises(ValueError, match="weight"):
            ShapeMix([((8, 8), 0.0)])

    def test_per_index_draws_are_deterministic(self):
        mix = ShapeMix([((48, 64), 3.0), ((32, 40), 1.0)], seed=1)
        again = ShapeMix([((48, 64), 3.0), ((32, 40), 1.0)], seed=1)
        for index in range(32):
            assert mix.shape_for(index) == again.shape_for(index)
            assert np.array_equal(mix.image_for(index), again.image_for(index))
        assert mix.image_for(0).dtype == np.uint8

    def test_weights_shape_the_distribution(self):
        mix = ShapeMix([((48, 64), 3.0), ((32, 40), 1.0)], seed=0)
        counts = {(48, 64): 0, (32, 40): 0}
        n = 2000
        for index in range(n):
            counts[mix.shape_for(index)] += 1
        assert counts[(48, 64)] / n == pytest.approx(0.75, abs=0.05)


class TestGenerator:
    def _mix(self):
        return ShapeMix([((8, 8), 1.0)], seed=0)

    def test_open_loop_exactly_once(self):
        schedule = ConstantSchedule(100.0, 0.5)
        report = LoadGenerator(
            CallableTarget(lambda image: image > 0),
            schedule,
            self._mix(),
            mode="open",
            concurrency=8,
            stats_interval=0,
        ).run()
        summary = report.summary()
        assert summary["issued"] == 50
        assert summary["responses"] == 50
        assert summary["lost"] == 0
        assert summary["duplicated"] == 0
        assert summary["by_status"] == {"ok": 50}

    def test_open_loop_latency_includes_wait_for_a_free_sender(self):
        stall = 0.3
        calls: list = []

        def seg(image):
            if not calls:
                time.sleep(stall)  # the only sender is busy past the next arrival
            calls.append(1)
            return image

        report = LoadGenerator(
            CallableTarget(seg),
            ConstantSchedule(50.0, 0.04),  # arrivals at 0.02 s and 0.04 s
            self._mix(),
            mode="open",
            concurrency=1,
            stats_interval=0,
        ).run()
        first, second = sorted(report.records, key=lambda r: r.index)
        waited = second.sent_at - second.scheduled_at
        assert waited >= stall - (second.scheduled_at - first.scheduled_at) - 0.01
        assert second.latency_seconds == pytest.approx(
            second.done_at - second.scheduled_at
        )
        assert second.latency_seconds >= waited
        assert report.summary()["latency"]["mean"] == pytest.approx(
            (first.latency_seconds + second.latency_seconds) / 2
        )

    def test_closed_loop_counts_and_stops(self):
        calls = []

        def seg(image):
            calls.append(1)
            time.sleep(0.005)
            return image

        schedule = ConstantSchedule(1.0, 0.3)  # closed loop: duration only
        report = LoadGenerator(
            CallableTarget(seg),
            schedule,
            self._mix(),
            mode="closed",
            concurrency=3,
            stats_interval=0,
        ).run()
        summary = report.summary()
        assert summary["issued"] == len(calls)
        assert summary["lost"] == 0 and summary["duplicated"] == 0
        assert summary["mode"] == "closed"
        # 3 senders x ~60 requests/s each, bounded by the duration.
        assert 10 <= summary["issued"] <= 200

    def test_errors_become_taxonomy_records_not_lost_requests(self):
        def flaky(image):
            raise ServingError("worker pool failed")

        report = LoadGenerator(
            CallableTarget(flaky),
            ConstantSchedule(100.0, 0.1),
            self._mix(),
            mode="open",
            concurrency=4,
            stats_interval=0,
        ).run()
        summary = report.summary()
        assert summary["lost"] == 0
        assert summary["by_status"] == {"serving_error": summary["issued"]}
        assert summary["error_rate"] == 1.0

    def test_sampler_polls_target_stats(self):
        class Target:
            def __init__(self):
                self.polls = 0

            def segment(self, image):
                time.sleep(0.005)
                return image

            def stats(self):
                self.polls += 1
                return {"queue_depth": 7}

        target = Target()
        report = LoadGenerator(
            target,
            ConstantSchedule(50.0, 0.4),
            self._mix(),
            mode="open",
            concurrency=4,
            stats_interval=0.05,
        ).run()
        assert target.polls >= 2
        assert report.summary()["max_queue_depth"] == 7

    def test_generator_validation(self):
        with pytest.raises(ValueError, match="mode"):
            LoadGenerator(
                CallableTarget(lambda i: i),
                ConstantSchedule(1.0, 1.0),
                self._mix(),
                mode="half-open",
            )
        with pytest.raises(ValueError, match="concurrency"):
            LoadGenerator(
                CallableTarget(lambda i: i),
                ConstantSchedule(1.0, 1.0),
                self._mix(),
                concurrency=0,
            )


class TestErrorTaxonomy:
    def test_classification(self):
        from repro.serving.cluster.client import (
            ReplicaHTTPError,
            ReplicaUnavailable,
        )
        from repro.serving.server import ServerClosed

        assert classify_error(ServerSaturated("full")) == "rejected"
        assert classify_error(TimeoutError()) == "timeout"
        assert classify_error(ReplicaUnavailable("gone")) == "transport"
        assert classify_error(ReplicaHTTPError(500, "boom")) == "http_error"
        assert classify_error(ServingError("pool")) == "serving_error"
        assert classify_error(ServerClosed("closed")) == "serving_error"
        assert classify_error(ValueError("other")) == "error"


class TestLoadReport:
    def _report(self, records, issued=None, finished=10.0):
        return LoadReport(
            mode="open",
            issued=len(records) if issued is None else issued,
            started_at=0.0,
            finished_at=finished,
            schedule={"kind": "constant"},
            mix={},
            target={},
            records=records,
        )

    def _record(self, index, sent, done, status="ok"):
        return RequestRecord(
            index=index,
            shape=(8, 8),
            scheduled_at=sent,
            sent_at=sent,
            done_at=done,
            status=status,
        )

    def test_lost_and_duplicated_accounting(self):
        records = [self._record(0, 0.0, 0.1), self._record(0, 0.2, 0.3)]
        summary = self._report(records, issued=3).summary()
        assert summary["lost"] == 2  # indexes 1 and 2 never answered
        assert summary["duplicated"] == 1  # index 0 answered twice

    def test_slo_violation_buckets(self):
        # Second 0 fast, second 1 slow, second 2 fast.
        records = (
            [self._record(i, 0.1, 0.2) for i in range(10)]
            + [self._record(10 + i, 1.0, 2.0) for i in range(10)]
            + [self._record(20 + i, 2.5, 2.6) for i in range(10)]
        )
        summary = self._report(records).summary(slo_p99_seconds=0.5)
        assert summary["slo_violation_seconds"] == 1
        assert summary["latency"]["count"] == 30

    def test_latency_excludes_failures(self):
        records = [
            self._record(0, 0.0, 0.1),
            self._record(1, 0.0, 9.0, status="timeout"),
        ]
        summary = self._report(records).summary()
        assert summary["latency"]["count"] == 1
        assert summary["latency"]["p99"] == pytest.approx(0.1)
        assert summary["error_rate"] == pytest.approx(0.5)


class TestResultFolder:
    def test_layout_and_run_numbering(self, tmp_path):
        folder = ResultFolder(tmp_path, "exp", timestamp="20260807-120000")
        assert folder.path == tmp_path / "exp-20260807-120000"
        run1 = folder.new_run()
        run2 = folder.new_run()
        assert run1.name == "run-01"
        assert run2.name == "run-02"
        folder.write_run(
            run1, summary={"ok": True}, requests=[{"index": 0}], events=[]
        )
        folder.write_meta({"experiment": "exp"})
        assert (run1 / "summary.json").exists()
        assert (run1 / "requests.json").exists()
        assert (run1 / "events.json").exists()
        assert (folder.path / "meta.json").exists()
        assert folder.runs == 2

    def test_distinct_timestamps_never_collide(self, tmp_path):
        a = ResultFolder(tmp_path, "exp", timestamp="t1")
        b = ResultFolder(tmp_path, "exp", timestamp="t2")
        assert a.path != b.path

    def test_label_must_be_bare(self, tmp_path):
        with pytest.raises(ValueError, match="bare name"):
            ResultFolder(tmp_path, "../escape")


class TestChaosInjector:
    def test_fires_in_order_at_offsets(self):
        fired = []
        injector = ChaosInjector(
            [
                ChaosEvent(0.15, "poke", target="b"),
                ChaosEvent(0.05, "poke", target="a"),
            ],
            {"poke": lambda target: fired.append(target) or {"hit": target}},
        )
        with injector:
            time.sleep(0.3)
        assert fired == ["a", "b"]
        assert [e["outcome"] for e in injector.injected] == ["ok", "ok"]
        assert injector.injected[0]["fired_at"] >= 0.05

    def test_stop_cancels_pending_events(self):
        fired = []
        injector = ChaosInjector(
            [ChaosEvent(5.0, "poke")],
            {"poke": lambda target: fired.append(target)},
        )
        injector.start()
        injector.stop()
        assert fired == []
        assert injector.injected == []

    def test_action_failure_is_recorded_not_raised(self):
        def boom(target):
            raise RuntimeError("no such worker")

        injector = ChaosInjector(
            [ChaosEvent(0.0, "boom"), ChaosEvent(0.0, "missing")],
            {"boom": boom},
        )
        with injector:
            time.sleep(0.2)
        outcomes = {e["action"]: e for e in injector.injected}
        assert outcomes["boom"]["outcome"] == "error"
        assert "no such worker" in outcomes["boom"]["error"]
        assert outcomes["missing"]["outcome"] == "error"

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            ChaosEvent(-1.0, "poke")


class TestTargets:
    def test_server_target_drives_control_plane(self):
        from repro.serving.control import ControlPlane

        control = ControlPlane(
            {"segmenter": "threshold"}, {"mode": "thread", "num_workers": 1}
        )
        try:
            target = ServerTarget(control, request_timeout=30.0)
            image = np.zeros((8, 8), dtype=np.uint8)
            image[2:6, 2:6] = 255
            labels = target.segment(image)
            assert labels.shape == image.shape
            assert target.stats()["completed"] == 1
        finally:
            control.close(drain=False)

    def test_http_target_normalizes_single_host_stats(self):
        from repro.serving.http import SegmentationHTTPServer

        with SegmentationHTTPServer(
            {"segmenter": "threshold"},
            port=0,
            serving={"mode": "thread", "num_workers": 1},
        ).start() as server:
            with HttpTarget(server.host, server.port) as target:
                image = np.zeros((8, 8), dtype=np.uint8)
                image[2:6, 2:6] = 255
                labels = target.segment(image)
                assert labels.shape == image.shape
                stats = target.stats()
                assert stats["completed"] == 1
                assert "queue_depth" in stats

    def test_http_target_normalizes_gateway_stats(self):
        class StubClient:
            address = "127.0.0.1:0"

            def get_json(self, path):
                return {
                    "uptime_seconds": 1.0,
                    "gateway": {},
                    "http": {"latency": {"p99": 0.25, "count": 12}},
                    "replicas": {
                        "replica-0": {"alive": True},
                        "replica-1": {"alive": False},
                    },
                    "fleet": {
                        "totals": {"completed": 40, "failed": 2},
                        "per_replica": {},
                    },
                }

            def close(self):
                pass

        target = HttpTarget.__new__(HttpTarget)
        target._client = StubClient()
        stats = target.stats()
        assert stats["completed"] == 40
        assert stats["failed"] == 2
        assert stats["num_workers"] == 1  # only the alive replica counts
        assert stats["latency"]["p99"] == 0.25
        assert stats["queue_depth"] == 0


class TestShapeMixPresets:
    def test_gigapixel_preset_is_tile_shaped_and_weighted(self):
        mix = ShapeMix.parse("@gigapixel")
        spec = mix.describe()
        assert spec["entries"][0] == {"shape": [256, 256], "weight": 12.0}
        assert [e["shape"] for e in spec["entries"]] == [
            [256, 256], [128, 128], [64, 64]
        ]
        # The dominant tile shape must absorb most of the traffic (one
        # grid-cache entry serves the bulk of a tiled fan-out).
        weights = [e["weight"] for e in spec["entries"]]
        assert weights[0] > sum(weights[1:])

    def test_gigapixel_shape_override_scales_the_pyramid(self):
        spec = ShapeMix.parse("@gigapixel:128x96").describe()
        assert [e["shape"] for e in spec["entries"]] == [
            [128, 96], [64, 48], [32, 24]
        ]

    def test_video_preset_is_single_shape(self):
        assert ShapeMix.parse("@video").describe()["entries"] == [
            {"shape": [48, 48], "weight": 1.0}
        ]
        assert ShapeMix.parse("@video:64x80").describe()["entries"] == [
            {"shape": [64, 80], "weight": 1.0}
        ]

    def test_preset_seed_threads_through(self):
        a = ShapeMix.parse("@gigapixel", seed=1)
        b = ShapeMix.parse("@gigapixel", seed=1)
        assert np.array_equal(a.image_for(7), b.image_for(7))
        assert a.shape_for(7) == b.shape_for(7)

    def test_unknown_preset_and_bad_shape_error(self):
        with pytest.raises(ValueError, match="available: gigapixel, video"):
            ShapeMix.parse("@nope")
        with pytest.raises(ValueError, match="expected HxW"):
            ShapeMix.parse("@video:64by64")
