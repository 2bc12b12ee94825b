"""Multi-node serving: a sharded replica fleet behind one gateway.

The cluster layer scales the single-host front end out to a fleet: a gateway
(:mod:`~repro.serving.cluster.gateway`) re-exposes the single-host HTTP
surface and sends every same-shape group to the live replica with the fewest
requests in flight, with bounded exactly-once failover; a health prober
(:mod:`~repro.serving.cluster.health`) keeps the alive set the router picks
from, with hysteresis; and a supervisor
(:mod:`~repro.serving.cluster.supervisor`) spawns and restarts the
``seghdc serve`` replica processes themselves.

Usage::

    gateway = ClusterGateway(port=0).start()
    supervisor = ReplicaSupervisor(gateway, replicas=2)
    supervisor.start()
    gateway.wait_ready()
    # ... POST /v1/segment at gateway.port, exactly like a single replica
    supervisor.stop(); gateway.close()

    # CLI equivalent
    #   seghdc cluster --replicas 2 --port 8080
"""

from repro.serving.cluster.client import (
    ReplicaClient,
    ReplicaHTTPError,
    ReplicaUnavailable,
)
from repro.serving.cluster.gateway import ClusterGateway
from repro.serving.cluster.health import HealthProber, ReplicaHealth
from repro.serving.cluster.supervisor import ReplicaProcess, ReplicaSupervisor

__all__ = [
    "ClusterGateway",
    "HealthProber",
    "ReplicaClient",
    "ReplicaHTTPError",
    "ReplicaHealth",
    "ReplicaProcess",
    "ReplicaSupervisor",
    "ReplicaUnavailable",
]
