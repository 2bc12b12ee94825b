"""Tests for the multi-node serving layer (:mod:`repro.serving.cluster`).

The replica fleet here is real :class:`SegmentationHTTPServer` instances on
ephemeral ports inside this process (fast, deterministic teardown); the
gateway is driven both socket-free through ``handle_request`` — the same
dispatch contract the HTTP handler wraps — and over its replica clients'
real sockets.  Covers: the connection pool's keep-alive + failure
semantics, prober hysteresis and silent-restart detection (with stub
clients, so timing is exact), least-outstanding-requests routing with
bit-exact parity against a direct engine, the in-flight counts on every exit
path, the fleet stats rollup, bounded failover on both the batch and
streaming endpoints, and keep-alive round trips through a started
gateway.  The real SIGKILL-mid-stream case rides in
``tools/cluster_smoke.py`` where replicas are real subprocesses.
"""

from __future__ import annotations

import contextlib
import http.server
import json
import os
import re
import statistics
import sys
import threading
import time

import numpy as np
import pytest

from repro.seghdc import SegHDCConfig, SegHDCEngine
from repro.serving import SegmentationHTTPServer
from repro.serving.cluster import (
    ClusterGateway,
    HealthProber,
    ReplicaClient,
    ReplicaHTTPError,
    ReplicaUnavailable,
)
from repro.serving.cluster.supervisor import PORT_LINE
from repro.serving.http import (
    HTTPRequestError,
    RawResponse,
    StreamingResponse,
    npy_bytes,
    pack_frames,
    unpack_frames,
)

_OCTET = "application/octet-stream"


def _config(**overrides):
    base = SegHDCConfig(
        dimension=300, num_clusters=2, num_iterations=2, alpha=0.2, beta=3, seed=0
    )
    return base.with_overrides(**overrides)


def _image(shape=(20, 24), seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=shape, dtype=np.uint8)


def _replica_server() -> SegmentationHTTPServer:
    return SegmentationHTTPServer(
        _config(), port=0, serving={"mode": "thread", "num_workers": 1}
    ).start()


@pytest.fixture()
def fleet():
    """A 2-replica fleet behind an (unstarted-socket) gateway.

    The gateway's own HTTP socket is not needed — ``handle_request`` is the
    dispatch surface under test — but the replicas are fully started
    servers and the gateway talks to them over real TCP.
    """
    servers = [_replica_server() for _ in range(2)]
    gateway = ClusterGateway(port=0, probe_interval=0.1, max_attempts=3)
    try:
        for index, server in enumerate(servers):
            gateway.register_replica(f"replica-{index}", server.host, server.port)
        gateway.wait_ready(timeout=30.0)
        yield gateway, servers
    finally:
        gateway.close()
        for server in servers:
            server.close()


class TestReplicaClient:
    def test_keep_alive_reuses_one_connection(self):
        with _replica_server() as server:
            with ReplicaClient("r0", server.host, server.port) as client:
                for _ in range(5):
                    body = client.get_json("/healthz")
                    assert body["status"] == "ok"
                assert client.connections_created == 1
                assert client.snapshot()["requests"] == 5

    def test_dead_port_raises_replica_unavailable(self):
        with _replica_server() as server:
            port = server.port
        # The server is closed: its port now refuses connections.
        with ReplicaClient("r0", "127.0.0.1", port, timeout=2.0) as client:
            with pytest.raises(ReplicaUnavailable):
                client.get_json("/healthz")
            assert client.snapshot()["transport_failures"] == 1

    def test_http_error_is_not_a_transport_failure(self):
        with _replica_server() as server:
            with ReplicaClient("r0", server.host, server.port) as client:
                with pytest.raises(ReplicaHTTPError) as excinfo:
                    client.post_json("/v1/segment", {"bogus": 1})
                assert excinfo.value.status == 400
                assert client.snapshot()["transport_failures"] == 0

    def test_segment_raw_matches_direct_engine(self):
        images = [_image(seed=s) for s in range(3)]
        reference = SegHDCEngine(_config()).segment_batch(images)
        with _replica_server() as server:
            with ReplicaClient("r0", server.host, server.port) as client:
                labels = client.segment_raw(images)
        for index, expected in enumerate(reference):
            assert np.array_equal(labels[index], expected.labels)

    def test_open_stream_yields_every_frame(self):
        images = [_image(seed=s) for s in range(4)]
        reference = SegHDCEngine(_config()).segment_batch(images)
        with _replica_server() as server:
            with ReplicaClient("r0", server.host, server.port) as client:
                with client.open_stream(images) as reader:
                    frames = dict(reader.frames())
                # The cleanly-finished stream recycles its connection.
                assert client.snapshot()["idle_connections"] >= 1
        assert sorted(frames) == list(range(len(images)))
        for index, expected in enumerate(reference):
            assert np.array_equal(frames[index], expected.labels)

    def test_connection_recycled_by_a_stream_serves_the_next_request(self):
        images = [_image(seed=s) for s in range(2)]
        reference = SegHDCEngine(_config()).segment_batch(images)
        with _replica_server() as server:
            with ReplicaClient("r0", server.host, server.port) as client:
                with client.open_stream(images) as reader:
                    assert len(list(reader.frames())) == len(images)
                labels = client.segment_raw(images)
                assert client.connections_created == 1
                assert client.snapshot()["transport_failures"] == 0
        for index, expected in enumerate(reference):
            assert np.array_equal(labels[index], expected.labels)


class _StubClient:
    """Duck-typed replica client with scripted probe responses.

    ``script`` entries are either an Exception (the probe fails) or a
    ``(healthz_body, stats_body)`` pair; the prober only ever calls
    ``get_json``, so hysteresis timing is tested without sockets or sleeps.
    """

    def __init__(self, replica_id, script):
        self.replica_id = replica_id
        self.host, self.port = "stub", 0
        self.address = "stub:0"
        self._script = list(script)
        self._pending = None

    def get_json(self, path):
        if path == "/healthz":
            step = self._script.pop(0)
            if isinstance(step, Exception):
                raise step
            self._pending = step[1]
            return step[0]
        assert path == "/stats"
        return self._pending

    def snapshot(self):
        return {"address": self.address}


class TestHealthProber:
    def test_hysteresis_requires_consecutive_failures(self):
        healthy = ({"status": "ok", "instance_id": "a", "pid": 1}, {"x": 1})
        prober = HealthProber(fail_threshold=2, recover_threshold=1)
        prober.register(
            _StubClient(
                "r0",
                [
                    healthy,                     # round 1: alive
                    ReplicaUnavailable("boom"),  # round 2: 1st failure
                    healthy,                     # round 3: failure streak reset
                    ReplicaUnavailable("boom"),  # round 4: 1st failure again
                    ReplicaUnavailable("boom"),  # round 5: 2nd -> dead
                    healthy,                     # round 6: recovers
                ],
            )
        )
        alive_after_round = []
        for _ in range(6):
            prober.probe_all()
            alive_after_round.append(prober.alive_replicas())
        # One isolated failure (with threshold 2) never ejects the replica;
        # two in a row do, and one success brings it back.
        assert alive_after_round == [["r0"]] * 4 + [[], ["r0"]]

    def test_instance_id_change_counts_as_restart(self):
        prober = HealthProber(fail_threshold=1, recover_threshold=1)
        health = prober.register(
            _StubClient(
                "r0",
                [
                    ({"status": "ok", "instance_id": "aaa", "pid": 1}, {}),
                    ({"status": "ok", "instance_id": "aaa", "pid": 1}, {}),
                    ({"status": "ok", "instance_id": "bbb", "pid": 2}, {}),
                ],
            )
        )
        prober.probe_all()
        prober.probe_all()
        assert health.restarts_detected == 0
        prober.probe_all()
        # Same address, new instance id: a silent restart was detected.
        assert health.restarts_detected == 1
        assert health.instance_id == "bbb"
        assert prober.snapshot()[0]["restarts_detected"] == 1

    def test_thresholds_must_be_positive(self):
        with pytest.raises(ValueError):
            HealthProber(fail_threshold=0)


def _outstanding(gateway) -> dict:
    """The gateway's per-replica in-flight counts, read through ``/stats``."""
    status, stats = gateway.handle_request("GET", "/stats", b"")
    assert status == 200
    return stats["gateway"]["outstanding"]


class _ProbeOnlyHandler(http.server.BaseHTTPRequestHandler):
    """Answers every GET with ``{"status": "ok"}`` (HTTP/1.0, no keep-alive)."""

    def do_GET(self) -> None:
        body = json.dumps({"status": "ok"}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:
        pass


def _add_dead_replica(gateway, replica_id="replica-dead"):
    """Put a replica whose port refuses connections into the live set.

    Models the window between a replica crashing and the prober noticing:
    the replica passes its readiness probe, then its port closes; the
    fixture's gateway runs no background probe loop, so it stays live and
    the router picks it like any idle replica — the request itself must
    discover the death and fail over.
    """
    server = http.server.HTTPServer(("127.0.0.1", 0), _ProbeOnlyHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        gateway.register_replica(replica_id, *server.server_address)
        gateway.wait_ready(timeout=30.0)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10.0)
    assert replica_id in gateway.prober.alive_replicas()


#: One group per live replica once :func:`_add_dead_replica` ran: the
#: round-robin tie-break gives each of the three idle replicas one group,
#: so the dead one is always picked for one of them.
_THREE_SHAPES = [(20, 24), (28, 20), (24, 24)]


class _DiesAfterFirstFrame:
    """A stream reader whose replica dies right after its first frame."""

    def __init__(self, reader) -> None:
        self._reader = reader

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self._reader.close()

    def frames(self):
        for frame in self._reader.frames():
            yield frame
            raise ReplicaUnavailable("replica died mid-stream")


def _inject(monkeypatch, fault: str) -> None:
    """Make the gateway's replica calls fail the way ``fault`` names.

    ``http-4xx`` rejects every call; ``killed-mid-stream`` kills only the
    first call: a batch answer is lost after the replica did the work, a
    stream dies after one frame, and the failover replica serves the rest.
    """
    segment_raw = ReplicaClient.segment_raw
    open_stream = ReplicaClient.open_stream
    killed = []

    def reject(self, images):
        raise ReplicaHTTPError(400, "replica rejected the payload")

    def lose_answer(self, images):
        labels = segment_raw(self, images)
        if killed:
            return labels
        killed.append(self.replica_id)
        raise ReplicaUnavailable("replica died before answering")

    def die_mid_stream(self, images):
        reader = open_stream(self, images)
        if killed:
            return reader
        killed.append(self.replica_id)
        return _DiesAfterFirstFrame(reader)

    if fault == "http-4xx":
        monkeypatch.setattr(ReplicaClient, "segment_raw", reject)
        monkeypatch.setattr(ReplicaClient, "open_stream", reject)
    elif fault == "killed-mid-stream":
        monkeypatch.setattr(ReplicaClient, "segment_raw", lose_answer)
        monkeypatch.setattr(ReplicaClient, "open_stream", die_mid_stream)


def _post(gateway, endpoint: str, images: list) -> tuple:
    """POST framed images; returns ``(status, framed response bytes)``.

    Stream frames are read to the end, which joins the gateway's workers.
    """
    status, payload = gateway.handle_request(
        "POST", endpoint, pack_frames(enumerate(images)), content_type=_OCTET
    )
    if isinstance(payload, StreamingResponse):
        return status, b"".join(payload.chunks)
    if isinstance(payload, RawResponse):
        return status, payload.body
    return status, payload


class TestGatewayRouting:
    def test_raw_batch_is_bit_exact_and_spread_over_replicas(self, fleet):
        gateway, servers = fleet
        shapes = [(20, 24), (28, 20)]
        images = [
            _image(shape=shapes[i % 2], seed=i) for i in range(6)
        ]
        reference = SegHDCEngine(_config()).segment_batch(images)
        for _ in range(2):
            status, payload = gateway.handle_request(
                "POST",
                "/v1/segment",
                pack_frames(enumerate(images)),
                content_type=_OCTET,
            )
            assert status == 200
            assert isinstance(payload, RawResponse)
            entries = dict(unpack_frames(payload.body))
            for index, expected in enumerate(reference):
                assert np.array_equal(entries[index], expected.labels)
        # Spread: the idle fleet takes the groups in turn, so both replicas
        # served and each built at most one grid per shape.
        gateway.prober.probe_all()
        status, stats = gateway.handle_request("GET", "/stats", b"")
        assert status == 200
        per_replica = stats["fleet"]["per_replica"]
        assert sorted(per_replica) == ["replica-0", "replica-1"]
        for entry in per_replica.values():
            assert entry["completed"] > 0, per_replica
            assert 1 <= entry["position_grid_builds"] <= len(shapes)
        assert stats["gateway"]["routed"] == {"replica-0": 2, "replica-1": 2}
        assert stats["gateway"]["outstanding"] == {
            "replica-0": 0, "replica-1": 0,
        }
        assert stats["gateway"]["failovers"] == 0

    def test_json_request_reports_the_serving_replica(self, fleet):
        gateway, _ = fleet
        from repro.serving.http import array_to_b64_npy
        import json as json_module

        image = _image()
        body = json_module.dumps(
            {
                "image": {"data": array_to_b64_npy(image), "encoding": "npy"},
                "response_encoding": "npy",
            }
        ).encode("utf-8")
        status, payload = gateway.handle_request(
            "POST", "/v1/segment", body, content_type="application/json"
        )
        assert status == 200
        entry = payload["results"][0]
        assert entry["replica"] in gateway.prober.alive_replicas()
        assert entry["num_clusters"] >= 1
        reference = SegHDCEngine(_config()).segment(image)
        import base64
        import io

        served = np.load(
            io.BytesIO(base64.b64decode(entry["labels"])), allow_pickle=False
        )
        assert np.array_equal(served, reference.labels)

    def test_stream_interleaves_every_frame_exactly_once(self, fleet):
        gateway, _ = fleet
        images = [
            _image(shape=(20, 24) if i % 2 else (28, 20), seed=i)
            for i in range(8)
        ]
        reference = SegHDCEngine(_config()).segment_batch(images)
        status, payload = gateway.handle_request(
            "POST",
            "/v1/segment-stream",
            pack_frames(enumerate(images)),
            content_type=_OCTET,
        )
        assert status == 200
        assert isinstance(payload, StreamingResponse)
        entries = unpack_frames(b"".join(payload.chunks))
        indices = sorted(index for index, _ in entries)
        assert indices == list(range(len(images)))
        for index, labels in entries:
            assert np.array_equal(labels, reference[index].labels)

    def test_batch_fails_over_to_the_least_loaded_untried_replica(self, fleet):
        gateway, _ = fleet
        _add_dead_replica(gateway)
        images = [_image(shape=shape) for shape in _THREE_SHAPES]
        status, raw = _post(gateway, "/v1/segment", images)
        assert status == 200
        entries = dict(unpack_frames(raw))
        reference = SegHDCEngine(_config()).segment_batch(images)
        for index, expected in enumerate(reference):
            assert np.array_equal(entries[index], expected.labels)
        _, stats = gateway.handle_request("GET", "/stats", b"")
        assert stats["gateway"]["failovers"] >= 1

    def test_stream_fails_over_to_the_least_loaded_untried_replica(self, fleet):
        gateway, _ = fleet
        _add_dead_replica(gateway)
        images = [
            _image(shape=_THREE_SHAPES[s % 3], seed=s) for s in range(6)
        ]
        reference = SegHDCEngine(_config()).segment_batch(images)
        status, raw = _post(gateway, "/v1/segment-stream", images)
        assert status == 200
        entries = dict(unpack_frames(raw))
        assert sorted(entries) == list(range(len(images)))
        for index, labels in entries.items():
            assert np.array_equal(labels, reference[index].labels)
        _, stats = gateway.handle_request("GET", "/stats", b"")
        assert stats["gateway"]["failovers"] >= 1

    @pytest.mark.parametrize("endpoint", ["/v1/segment", "/v1/segment-stream"])
    @pytest.mark.parametrize(
        "exit_path", ["success", "dead-port", "http-4xx", "killed-mid-stream"]
    )
    def test_in_flight_counts_return_to_zero(
        self, fleet, monkeypatch, endpoint, exit_path
    ):
        """Every way out of a replica call gives its in-flight slot back.

        A leaked slot would make the router treat that replica as busy
        forever; the counts must read 0 once the request is over, whether
        the call succeeded, hit a dead port, was rejected, or died midway.
        """
        gateway, _ = fleet
        if exit_path == "dead-port":
            _add_dead_replica(gateway)
        _inject(monkeypatch, exit_path)
        images = [
            _image(shape=_THREE_SHAPES[s % 3], seed=s) for s in range(6)
        ]
        status, raw = _post(gateway, endpoint, images)
        if exit_path == "http-4xx":
            # The batch endpoint forwards the replica's verdict; the stream
            # frames it as a per-image error.
            if endpoint == "/v1/segment":
                assert status == 400
            else:
                with pytest.raises(HTTPRequestError, match="answered 400"):
                    unpack_frames(raw)
        else:
            assert status == 200
            entries = dict(unpack_frames(raw))
            assert sorted(entries) == list(range(len(images)))
        if exit_path in ("dead-port", "killed-mid-stream"):
            reference = SegHDCEngine(_config()).segment_batch(images)
            for index, labels in entries.items():
                assert np.array_equal(labels, reference[index].labels)
            _, stats = gateway.handle_request("GET", "/stats", b"")
            assert stats["gateway"]["failovers"] >= 1
        outstanding = _outstanding(gateway)
        assert outstanding and set(outstanding.values()) == {0}, outstanding

    @pytest.mark.parametrize("endpoint", ["/v1/segment", "/v1/segment-stream"])
    def test_concurrent_same_shape_requests_land_on_different_replicas(
        self, fleet, monkeypatch, endpoint
    ):
        gateway, _ = fleet
        release = threading.Event()
        arrivals: list = []
        segment_raw = ReplicaClient.segment_raw
        open_stream = ReplicaClient.open_stream

        def held(original):
            def call(self, images):
                arrivals.append(self.replica_id)
                assert release.wait(timeout=30.0)
                return original(self, images)
            return call

        monkeypatch.setattr(ReplicaClient, "segment_raw", held(segment_raw))
        monkeypatch.setattr(ReplicaClient, "open_stream", held(open_stream))
        image = _image()
        answers: list = []
        senders = [
            threading.Thread(
                target=lambda: answers.append(
                    _post(gateway, endpoint, [image])
                )
            )
            for _ in range(2)
        ]
        for sender in senders:
            sender.start()
        try:
            deadline = time.monotonic() + 30.0
            while len(arrivals) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            # Both replicas are busy with one request each.
            assert sorted(arrivals) == ["replica-0", "replica-1"]
            assert _outstanding(gateway) == {"replica-0": 1, "replica-1": 1}
        finally:
            release.set()
            for sender in senders:
                sender.join(timeout=30.0)
        reference = SegHDCEngine(_config()).segment(image).labels
        assert [status for status, _ in answers] == [200, 200]
        for _, raw in answers:
            assert np.array_equal(dict(unpack_frames(raw))[0], reference)
        assert _outstanding(gateway) == {"replica-0": 0, "replica-1": 0}

    def test_in_flight_counts_survive_concurrent_senders(self, fleet):
        """More senders than cores, fast thread switches: no lost update."""
        gateway, _ = fleet
        senders, rounds = 8, 3
        image = _image()
        statuses: list = []

        def send() -> None:
            for _ in range(rounds):
                status, payload = _post(gateway, "/v1/segment", [image])
                # A failure keeps its error body for the assertion message.
                statuses.append(status if status == 200 else (status, payload))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=send) for _ in range(senders)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        _, stats = gateway.handle_request("GET", "/stats", b"")
        outstanding = stats["gateway"]["outstanding"]
        routed = stats["gateway"]["routed"]
        state = f"statuses={statuses} outstanding={outstanding} routed={routed}"
        assert not any(thread.is_alive() for thread in threads), state
        assert statuses == [200] * (senders * rounds), state
        assert outstanding == {"replica-0": 0, "replica-1": 0}, state
        assert sum(routed.values()) == senders * rounds, state
        assert min(routed.values()) > 0, state

    def test_no_replicas_is_a_503(self):
        with ClusterGateway(port=0) as gateway:
            status, payload = gateway.handle_request(
                "POST",
                "/v1/segment",
                npy_bytes(_image()),
                content_type=_OCTET,
            )
            assert status == 503
            assert "replica" in payload["error"]

    def test_unknown_route_and_bad_method(self, fleet):
        gateway, _ = fleet
        status, _ = gateway.handle_request("GET", "/nope", b"")
        assert status == 404
        status, _ = gateway.handle_request("GET", "/v1/segment", b"")
        assert status == 405

    def test_healthz_names_the_fleet(self, fleet):
        gateway, _ = fleet
        status, body = gateway.handle_request("GET", "/healthz", b"")
        assert status == 200
        assert body["role"] == "gateway"
        assert re.fullmatch(r"[0-9a-f]{16}", body["instance_id"])
        assert body["pid"] == os.getpid()
        assert body["replicas_registered"] == 2
        assert body["replicas_alive"] == ["replica-0", "replica-1"]


def _median_ms(call, repeats=20):
    """Median wall time of ``repeats`` sequential calls, after a warm-up."""
    call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


class TestGatewayOverSocket:
    def test_keep_alive_round_trips_skip_the_delayed_ack(self):
        """The gateway answers with the same handler as a replica, so its
        responses also leave as headers-then-body writes; with Nagle on,
        each one waited ~40 ms for the client's delayed ACK (~48 ms per
        round trip through the gateway, ~3 ms without)."""
        image = _image((64, 64))
        replica = SegmentationHTTPServer(
            "threshold", port=0, serving={"mode": "thread", "num_workers": 1}
        )
        with replica.start(), ClusterGateway(port=0) as gateway:
            gateway.register_replica("replica-0", replica.host, replica.port)
            gateway.wait_ready(timeout=30.0)
            gateway.start()
            with ReplicaClient("gateway", gateway.host, gateway.port) as client:
                segment_ms = _median_ms(lambda: client.segment_raw([image]))
                healthz_ms = _median_ms(lambda: client.get_json("/healthz"))
                assert client.connections_created == 1
        assert segment_ms < 20.0, f"segment_raw median {segment_ms:.1f} ms"
        assert healthz_ms < 20.0, f"/healthz median {healthz_ms:.1f} ms"


@pytest.fixture()
def idle_gateway(monkeypatch):
    """A socket-free gateway whose live set the test sets by hand.

    Replicas are registered on a port nothing listens on — the router's
    pick never opens a connection — and ``alive_replicas`` reads the
    list the test fills, so every pick is exact and instantaneous.
    """
    gateway = ClusterGateway(port=0)
    alive: list = []
    monkeypatch.setattr(gateway.prober, "alive_replicas", lambda: sorted(alive))
    try:
        yield gateway, alive
    finally:
        gateway.close()


def _add_idle_replicas(gateway, alive: list, count: int) -> list:
    ids = [f"r{index}" for index in range(count)]
    for replica_id in ids:
        gateway.register_replica(replica_id, "127.0.0.1", 1)
    alive.extend(ids)
    return ids


class TestLeastLoadedPick:
    """The router's pick, driven directly through ``_dispatch``."""

    @pytest.mark.parametrize("replicas", [2, 3, 4])
    def test_concurrent_picks_fill_every_replica_before_doubling_up(
        self, idle_gateway, replicas
    ):
        gateway, alive = idle_gateway
        ids = _add_idle_replicas(gateway, alive, replicas)
        with contextlib.ExitStack() as stack:
            picked = [
                stack.enter_context(gateway._dispatch(set()))[0]
                for _ in range(replicas + 1)
            ]
            assert sorted(picked[:replicas]) == ids
            assert sorted(_outstanding(gateway).values()) == (
                [1] * (replicas - 1) + [2]
            )
        assert set(_outstanding(gateway).values()) == {0}

    @pytest.mark.parametrize("replicas", [1, 2, 3])
    def test_sequential_picks_rotate_round_robin(self, idle_gateway, replicas):
        gateway, alive = idle_gateway
        ids = _add_idle_replicas(gateway, alive, replicas)
        picked = []
        for _ in range(2 * replicas):
            with gateway._dispatch(set()) as (replica_id, _client):
                picked.append(replica_id)
        # Every count ties at 0 between picks, so the cursor alone decides:
        # each window of ``replicas`` picks visits every replica once.
        assert sorted(picked[:replicas]) == ids
        assert picked[replicas:] == picked[:replicas]
        _, stats = gateway.handle_request("GET", "/stats", b"")
        assert stats["gateway"]["routed"] == {replica_id: 2 for replica_id in ids}

    def test_load_outranks_the_round_robin_turn(self, idle_gateway):
        gateway, alive = idle_gateway
        _add_idle_replicas(gateway, alive, 3)
        with gateway._dispatch(set()) as first, gateway._dispatch(
            set()
        ) as second:
            busy = {first[0], second[0]}
            for _ in range(3):
                # Whatever the cursor says, the one idle replica wins.
                with gateway._dispatch(set()) as picked:
                    assert picked[0] not in busy

    def test_tried_replicas_are_skipped_until_none_is_left(self, idle_gateway):
        gateway, alive = idle_gateway
        ids = _add_idle_replicas(gateway, alive, 3)
        tried: set = set()
        for _ in ids:
            with gateway._dispatch(tried) as (replica_id, _client):
                assert replica_id not in tried
                tried.add(replica_id)
        assert tried == set(ids)
        with gateway._dispatch(tried) as picked:
            assert picked is None
        assert set(_outstanding(gateway).values()) == {0}

    def test_only_live_registered_replicas_are_picked(self, idle_gateway):
        gateway, alive = idle_gateway
        _add_idle_replicas(gateway, alive, 3)
        alive.remove("r1")          # registered, but probes say dead
        alive.append("r-gone")      # probed alive, but no client any more
        picked = set()
        for _ in range(6):
            with gateway._dispatch(set()) as (replica_id, _client):
                picked.add(replica_id)
        assert picked == {"r0", "r2"}
        gateway.unregister_replica("r2")
        alive.remove("r2")
        with gateway._dispatch({"r0"}) as picked_after:
            assert picked_after is None

    @pytest.mark.parametrize(
        "error",
        [
            ReplicaUnavailable("connection refused"),
            ReplicaHTTPError(400, "bad payload"),
            RuntimeError("stream died mid-way"),
        ],
        ids=["unavailable", "http-error", "other"],
    )
    def test_slot_is_released_when_the_call_raises(self, idle_gateway, error):
        gateway, alive = idle_gateway
        _add_idle_replicas(gateway, alive, 2)
        with pytest.raises(type(error)):
            with gateway._dispatch(set()) as (replica_id, _client):
                assert _outstanding(gateway)[replica_id] == 1
                raise error
        assert _outstanding(gateway) == {"r0": 0, "r1": 0}


class TestSupervisorContract:
    def test_port_line_regex_matches_the_serve_output(self):
        assert PORT_LINE.match("SEGHDC_SERVE_PORT=18345").group(1) == "18345"
        assert PORT_LINE.match("SEGHDC_SERVE_PORT=0\n") is not None
        assert PORT_LINE.match("seghdc serve: on http://x:1") is None
        assert PORT_LINE.match("XSEGHDC_SERVE_PORT=1") is None

    def test_scale_to_grows_and_shrinks_the_fleet(self):
        """``scale_to`` is the cluster autoscaler's actuation seam.

        Growing spawns and registers new lowest-free-id replicas; shrinking
        retires the highest-numbered ones — unregistered from the gateway
        *before* the SIGTERM (the router must stop picking it first) and removed
        from monitor tracking so the restart loop cannot resurrect them.
        """
        from repro.serving.cluster import ClusterGateway, ReplicaSupervisor

        gateway = ClusterGateway(port=0, probe_interval=0.1)
        supervisor = ReplicaSupervisor(
            gateway,
            replicas=1,
            replica_args=[
                "--mode", "thread", "--workers", "1",
                "--segmenter", "threshold",
            ],
            monitor_interval=0.2,
        )
        try:
            supervisor.start()
            gateway.wait_ready(timeout=120.0)
            assert sorted(supervisor.snapshot()) == ["replica-0"]

            grown = supervisor.scale_to(2)
            assert grown["previous_replicas"] == 1
            assert grown["spawned"] == ["replica-1"]
            assert grown["retired"] == []
            assert sorted(supervisor.snapshot()) == ["replica-0", "replica-1"]
            assert set(gateway.prober.replica_stats()) == {
                "replica-0", "replica-1",
            }

            shrunk = supervisor.scale_to(1)
            assert shrunk["retired"] == ["replica-1"]
            assert sorted(supervisor.snapshot()) == ["replica-0"]
            # The retired replica left the gateway's membership too.
            assert set(gateway.prober.replica_stats()) == {"replica-0"}
            # And the monitor does not resurrect it.
            time.sleep(0.6)
            assert sorted(supervisor.snapshot()) == ["replica-0"]
            with pytest.raises(ValueError):
                supervisor.scale_to(0)
        finally:
            supervisor.stop()
            gateway.close()
