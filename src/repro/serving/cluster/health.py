"""Background health prober: replica liveness with hysteresis.

One :class:`HealthProber` thread owns the fleet's view of which replicas are
alive.  Every ``interval`` seconds it polls each registered replica's
``GET /healthz`` (and opportunistically ``GET /stats`` for the gateway's
rollup cache), then applies **hysteresis** before changing state: a replica
is only marked dead after ``fail_threshold`` *consecutive* failed probes,
and only marked alive again after ``recover_threshold`` consecutive
successes.  That asymmetric debounce keeps one dropped packet from ejecting
a healthy replica while still converging fast on a genuinely dead process.

The alive set (:meth:`HealthProber.alive_replicas`) is the fleet's only
membership source: the gateway's router picks from it on every dispatch, so
routing and health can never disagree for longer than one probe interval.

The prober also watches the ``instance_id`` each replica mints at startup
(PR 8's ``/healthz`` identity triple): if the id changes between probes the
process silently restarted — same port, brand-new empty grid cache — and
the prober counts it in ``restarts_detected`` and invalidates the cached
stats snapshot so the fleet rollup never mixes two incarnations.
"""

from __future__ import annotations

import threading
import time
from repro.serving.cluster.client import ReplicaClient

__all__ = ["HealthProber", "ReplicaHealth"]


class ReplicaHealth:
    """Mutable probe state for one replica (owned by the prober's lock)."""

    def __init__(self, client: ReplicaClient) -> None:
        self.client = client
        self.alive = False
        self.consecutive_failures = 0
        self.consecutive_successes = 0
        self.instance_id: "str | None" = None
        self.pid: "int | None" = None
        self.restarts_detected = 0
        self.last_probe_at: "float | None" = None
        self.last_error: "str | None" = None
        self.stats: "dict | None" = None

    def snapshot(self) -> dict:
        """JSON-ready view for the gateway's ``/stats`` fleet section."""
        return {
            "replica": self.client.replica_id,
            "address": self.client.address,
            "alive": self.alive,
            "instance_id": self.instance_id,
            "pid": self.pid,
            "restarts_detected": self.restarts_detected,
            "consecutive_failures": self.consecutive_failures,
            "last_error": self.last_error,
            "client": self.client.snapshot(),
        }


class HealthProber:
    """Polls replica ``/healthz``; keeps the alive set with hysteresis.

    Parameters
    ----------
    interval:
        Seconds between probe rounds.
    fail_threshold:
        Consecutive failed probes before a live replica is marked dead.
    recover_threshold:
        Consecutive successful probes before a dead replica is marked
        alive.  New replicas start dead, so their first ``recover_threshold``
        probes double as a readiness gate.
    """

    def __init__(
        self,
        *,
        interval: float = 0.5,
        fail_threshold: int = 2,
        recover_threshold: int = 1,
    ) -> None:
        if fail_threshold < 1 or recover_threshold < 1:
            raise ValueError("hysteresis thresholds must be positive")
        self.interval = float(interval)
        self.fail_threshold = int(fail_threshold)
        self.recover_threshold = int(recover_threshold)
        self._lock = threading.Lock()
        self._replicas: dict[str, ReplicaHealth] = {}
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(self, client: ReplicaClient) -> ReplicaHealth:
        """Track a replica (starts dead; probes promote it to alive).

        Re-registering an id replaces the tracked client — the supervisor
        does this when it restarts a replica on a new ephemeral port — and
        the new incarnation stays out of the alive set until it proves
        itself.
        """
        health = ReplicaHealth(client)
        with self._lock:
            previous = self._replicas.get(client.replica_id)
            if previous is not None:
                health.restarts_detected = previous.restarts_detected
            self._replicas[client.replica_id] = health
        return health

    def unregister(self, replica_id: str) -> None:
        """Stop tracking a replica, which also removes it from routing."""
        with self._lock:
            self._replicas.pop(replica_id, None)

    # ------------------------------------------------------------------ #
    # probing
    # ------------------------------------------------------------------ #
    def _probe_one(self, health: ReplicaHealth) -> None:
        """One probe round for one replica; applies the hysteresis."""
        client = health.client
        try:
            body = client.get_json("/healthz")
            stats = client.get_json("/stats")
        except Exception as exc:  # noqa: BLE001 - any failure counts
            with self._lock:
                health.last_probe_at = time.time()
                health.last_error = f"{type(exc).__name__}: {exc}"
                health.consecutive_successes = 0
                health.consecutive_failures += 1
                if health.consecutive_failures >= self.fail_threshold:
                    health.alive = False
            return

        instance_id = body.get("instance_id")
        with self._lock:
            health.last_probe_at = time.time()
            health.last_error = None
            restarted = (
                health.instance_id is not None
                and instance_id is not None
                and instance_id != health.instance_id
            )
            if restarted:
                # Same address, new process: any cached stats describe a
                # dead incarnation.
                health.restarts_detected += 1
                health.stats = None
            health.instance_id = instance_id
            health.pid = body.get("pid")
            health.stats = stats
            health.consecutive_failures = 0
            health.consecutive_successes += 1
            if health.consecutive_successes >= self.recover_threshold:
                health.alive = True

    def probe_all(self) -> None:
        """One synchronous probe round over every registered replica."""
        with self._lock:
            replicas = list(self._replicas.values())
        for health in replicas:
            self._probe_one(health)

    def wait_alive(self, replica_ids, timeout: float = 30.0) -> None:
        """Probe until every listed replica is alive (readiness gate).

        Raises :class:`TimeoutError` naming the stragglers if the deadline
        passes — the supervisor calls this right after booting the fleet.
        """
        deadline = time.monotonic() + float(timeout)
        wanted = [str(replica_id) for replica_id in replica_ids]
        while True:
            self.probe_all()
            with self._lock:
                missing = [
                    replica_id
                    for replica_id in wanted
                    if not (
                        replica_id in self._replicas
                        and self._replicas[replica_id].alive
                    )
                ]
            if not missing:
                return
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"replicas never became healthy: {missing}"
                )
            time.sleep(min(0.05, self.interval))

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start the background probe loop (idempotent)."""
        with self._lock:
            if self._thread is not None:
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="cluster-health-prober", daemon=True
            )
            self._thread.start()

    def _run(self) -> None:
        """Probe loop body: round, sleep, repeat until stopped."""
        while not self._stop.is_set():
            self.probe_all()
            self._stop.wait(self.interval)

    def stop(self) -> None:
        """Stop the probe loop and join the thread."""
        with self._lock:
            thread, self._thread = self._thread, None
        self._stop.set()
        if thread is not None:
            thread.join(timeout=10.0)

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    def alive_replicas(self) -> list[str]:
        """Ids of replicas currently considered alive (sorted)."""
        with self._lock:
            return sorted(
                replica_id
                for replica_id, health in self._replicas.items()
                if health.alive
            )

    def replica_stats(self) -> dict:
        """Latest cached ``/stats`` body per replica id (may hold ``None``)."""
        with self._lock:
            return {
                replica_id: health.stats
                for replica_id, health in self._replicas.items()
            }

    def snapshot(self) -> list[dict]:
        """JSON-ready per-replica health summaries (sorted by id)."""
        with self._lock:
            return [
                self._replicas[replica_id].snapshot()
                for replica_id in sorted(self._replicas)
            ]
