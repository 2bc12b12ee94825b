"""The 2-replica fleet behind a ``ClusterGateway``, booted and reaped.

Untraced runs boot the fleet the way it is deployed: ``seghdc serve``
replica subprocesses under a ``ReplicaSupervisor``.  Traced runs host the
gateway and both replica HTTP servers in this process instead, so the span
wrappers reach them; process-mode pool workers stay separate processes.
Either way every process the fleet started is gone when the ``ExitStack``
it was booted on closes.
"""

from __future__ import annotations

import contextlib
import json

from repro.api import ServingOptions
from repro.serving import SegmentationHTTPServer
from repro.serving.cluster import ClusterGateway, ReplicaClient, ReplicaSupervisor

from measure import descendants, reap
from spans import BENCH_CLIENT

REPLICAS = 2


def _reap_new(before: set) -> None:
    """Reap every descendant process that did not exist before the boot."""
    reap([pid for pid in descendants(trackers=False) if pid not in before])


def boot(stack: contextlib.ExitStack, config: dict, mode: str, *, in_process: bool):
    """Boot gateway + replicas on ``stack``; returns ``(gateway, client)``.

    ``config`` is the full SegHDC config dict every replica serves; ``mode``
    is the replicas' pool mode (``thread`` or ``process``, one worker each).
    """
    before = set(descendants())
    stack.callback(_reap_new, before)
    gateway = ClusterGateway(port=0, probe_interval=0.2)
    stack.callback(gateway.close)
    gateway.start()
    spec = {"segmenter": "seghdc", "config": config}
    if in_process:
        options = ServingOptions(
            mode=mode, num_workers=1, max_batch_size=1 if mode == "thread" else 4
        )
        for index in range(REPLICAS):
            replica = SegmentationHTTPServer(spec, port=0, serving=options)
            stack.callback(replica.close)
            replica.start()
            gateway.register_replica(f"replica-{index}", replica.host, replica.port)
    else:
        supervisor = ReplicaSupervisor(
            gateway,
            replicas=REPLICAS,
            replica_args=[
                "--mode", mode, "--workers", "1", "--config-json", json.dumps(config)
            ],
        )
        stack.callback(supervisor.stop)
        supervisor.start()
    gateway.wait_ready(timeout=60.0)
    client = ReplicaClient(
        BENCH_CLIENT, gateway.host, gateway.port, timeout=60.0, pool_size=REPLICAS
    )
    stack.callback(client.close)
    return gateway, client


def gateway_stats(gateway, client) -> dict:
    """The gateway's public ``/stats`` after one fresh probe round."""
    gateway.prober.probe_all()
    return client.get_json("/stats")


def serving_extras(gateway, client) -> dict:
    """Per-layer values read from the gateway's and the replicas' ``/stats``."""
    fleet = gateway_stats(gateway, client)
    serving = []
    for entry in fleet["replicas"]:
        host, port = entry["address"].rsplit(":", 1)
        with ReplicaClient(entry["replica"], host, int(port)) as replica:
            serving.append(replica.get_json("/stats")["serving"])
    hits = sum(s["cache"].get("hits", 0) for s in serving)
    misses = sum(s["cache"].get("misses", 0) for s in serving)
    batches = sum(s["batches_dispatched"] for s in serving)
    extras = {
        "engine.cache_hit_share": hits / max(1, hits + misses),
        "server.batch_size": sum(
            s["mean_batch_size"] * s["batches_dispatched"] for s in serving
        ) / max(1, batches),
        "server.rejected": sum(s["rejected"] for s in serving),
        "gateway.failovers": fleet["gateway"]["failovers"],
    }
    for path in ("shm", "pickle"):
        moved = [s["transport"].get(path) or {} for s in serving]
        images = sum(m.get("images", 0) for m in moved)
        extras[f"server.transport.{path}.bytes_per_image"] = sum(
            m.get("bytes_in", 0) + m.get("bytes_out", 0) for m in moved
        ) / max(1, images)
    return extras
