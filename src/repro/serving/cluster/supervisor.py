"""Replica lifecycle: spawn, watch, restart ``seghdc serve`` processes.

:class:`ReplicaSupervisor` turns "a fleet" from a diagram into processes: it
spawns N ``seghdc serve`` subprocesses on **ephemeral ports** (``--port 0``;
each replica prints the machine-parsable ``SEGHDC_SERVE_PORT=<port>`` line
the supervisor reads back, so fleets never race for port numbers), registers
each one with the gateway, and keeps a monitor thread that notices replica
death and — within a per-replica restart budget — boots a replacement and
re-registers it.

The pattern follows the gridworks-scada fleet shape named in ROADMAP:
independently supervised processes behind one coordinator, each speaking the
same small HTTP protocol, with the supervisor owning only lifecycle — never
routing (the gateway's least-loaded router does that) or health verdicts
(the prober's hysteresis does that).  A restarted replica keeps its replica
*id*, so its ``/stats`` history stays one row in the fleet rollup; the prober
notices the fresh ``instance_id`` and counts the restart, and the router
sends it work as soon as hysteresis marks it alive.
"""

from __future__ import annotations

import re
import subprocess
import sys
import threading
import time
from collections import deque

__all__ = ["ReplicaProcess", "ReplicaSupervisor"]

#: The machine-parsable bound-port line ``seghdc serve`` prints on stdout.
PORT_LINE = re.compile(r"^SEGHDC_SERVE_PORT=(\d+)\s*$")

#: Stdout/stderr lines retained per replica for post-mortems.
_LOG_TAIL = 200


class ReplicaProcess:
    """One supervised ``seghdc serve`` subprocess.

    Owns the Popen handle, the parsed bound port, and a bounded tail of the
    process's output (a drain thread keeps the pipe from filling and the
    tail from growing without bound).
    """

    def __init__(self, replica_id: str, process, port: int) -> None:
        self.replica_id = replica_id
        self.process = process
        self.port = int(port)
        self.started_at = time.time()
        self.output_tail: deque = deque(maxlen=_LOG_TAIL)
        self._drain = threading.Thread(
            target=self._drain_output,
            name=f"{replica_id}-stdout",
            daemon=True,
        )
        self._drain.start()

    def _drain_output(self) -> None:
        """Consume the replica's stdout so the pipe never backs up."""
        stream = self.process.stdout
        if stream is None:
            return
        for line in stream:
            self.output_tail.append(line.rstrip("\n"))

    @property
    def pid(self) -> int:
        """OS process id of the replica."""
        return self.process.pid

    def alive(self) -> bool:
        """Whether the subprocess is still running."""
        return self.process.poll() is None

    def terminate(self, timeout: float = 10.0) -> None:
        """SIGTERM (graceful drain in the replica), escalate to SIGKILL."""
        if not self.alive():
            return
        self.process.terminate()
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=timeout)


class ReplicaSupervisor:
    """Spawns and babysits a fleet of replica subprocesses.

    Parameters
    ----------
    gateway:
        The :class:`~repro.serving.cluster.gateway.ClusterGateway` replicas
        register with (``register_replica`` on boot and on every restart).
    replicas:
        Fleet size.
    replica_args:
        Extra ``seghdc serve`` CLI arguments every replica gets (mode,
        workers, segmenter config overrides...).
    boot_timeout:
        Seconds to wait for a replica's ``SEGHDC_SERVE_PORT=`` line.
    max_restarts:
        Restart budget **per replica**; a replica that dies more often
        stays down (a crash loop must not become a fork bomb).
    monitor_interval:
        Seconds between death checks in the monitor thread.
    """

    def __init__(
        self,
        gateway,
        *,
        replicas: int = 2,
        replica_args: "list[str] | None" = None,
        boot_timeout: float = 60.0,
        max_restarts: int = 3,
        monitor_interval: float = 0.5,
    ) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be positive, got {replicas}")
        self._gateway = gateway
        self._count = int(replicas)
        self._replica_args = list(replica_args or [])
        self._boot_timeout = float(boot_timeout)
        self._max_restarts = int(max_restarts)
        self._monitor_interval = float(monitor_interval)
        self._lock = threading.Lock()
        self._processes: dict[str, ReplicaProcess] = {}
        self._restarts: dict[str, int] = {}
        self._stop = threading.Event()
        self._monitor: "threading.Thread | None" = None

    # ------------------------------------------------------------------ #
    # booting
    # ------------------------------------------------------------------ #
    def _spawn_command(self) -> list:
        """The replica boot command (module form survives any PATH)."""
        return [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            *self._replica_args,
        ]

    def _spawn_one(self, replica_id: str) -> ReplicaProcess:
        """Boot one replica and parse its bound port off stdout.

        Reads stdout line-by-line until :data:`PORT_LINE` matches (the line
        is printed and flushed before the serve loop starts), with a
        deadline; a replica that dies or stalls before announcing its port
        is killed and reported with its captured output.
        """
        process = subprocess.Popen(
            self._spawn_command(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        deadline = time.monotonic() + self._boot_timeout
        seen: list = []
        port: "int | None" = None
        while time.monotonic() < deadline:
            if process.stdout is None:
                break
            line = process.stdout.readline()
            if not line:
                break
            seen.append(line.rstrip("\n"))
            match = PORT_LINE.match(line)
            if match:
                port = int(match.group(1))
                break
            if process.poll() is not None:
                break
        if port is None:
            if process.poll() is None:
                process.kill()
            process.wait(timeout=10.0)
            tail = "\n".join(seen[-20:])
            raise RuntimeError(
                f"{replica_id} never announced its port within "
                f"{self._boot_timeout}s; output tail:\n{tail}"
            )
        replica = ReplicaProcess(replica_id, process, port)
        replica.output_tail.extend(seen)
        return replica

    def start(self) -> None:
        """Boot the fleet, register every replica, start the monitor."""
        for index in range(self._count):
            replica_id = f"replica-{index}"
            replica = self._spawn_one(replica_id)
            with self._lock:
                self._processes[replica_id] = replica
                self._restarts.setdefault(replica_id, 0)
            self._gateway.register_replica(
                replica_id, "127.0.0.1", replica.port
            )
        self._stop.clear()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="replica-supervisor", daemon=True
        )
        self._monitor.start()

    # ------------------------------------------------------------------ #
    # monitoring
    # ------------------------------------------------------------------ #
    def _monitor_loop(self) -> None:
        """Watch for dead replicas; restart within the per-replica budget."""
        while not self._stop.wait(self._monitor_interval):
            with self._lock:
                dead = [
                    (replica_id, replica)
                    for replica_id, replica in self._processes.items()
                    if not replica.alive()
                ]
            for replica_id, _ in dead:
                if self._stop.is_set():
                    return
                self._restart_one(replica_id)

    def _restart_one(self, replica_id: str) -> None:
        """Restart one dead replica and re-register it with the gateway."""
        with self._lock:
            used = self._restarts.get(replica_id, 0)
            if used >= self._max_restarts:
                # Budget exhausted: drop it from the tracked set so the
                # monitor stops retrying; the prober keeps it out of routing.
                self._processes.pop(replica_id, None)
                return
            self._restarts[replica_id] = used + 1
        try:
            replica = self._spawn_one(replica_id)
        except RuntimeError:
            # Boot failure burns a restart; the next monitor pass retries
            # until the budget runs out.
            return
        with self._lock:
            if self._stop.is_set():
                replica.terminate()
                return
            self._processes[replica_id] = replica
        self._gateway.register_replica(replica_id, "127.0.0.1", replica.port)

    # ------------------------------------------------------------------ #
    # scaling
    # ------------------------------------------------------------------ #
    def scale_to(self, replicas: int) -> dict:
        """Grow or shrink the fleet to ``replicas`` live processes.

        The cluster actuation seam for the autoscaler.  Growing spawns and
        registers new ``replica-<k>`` ids (fresh restart budgets); shrinking
        retires the highest-numbered replicas — each is unregistered from
        the gateway *first* so the router stops picking it, then
        SIGTERMed for a graceful drain.  A retired id is forgotten by the
        monitor before termination, so scale-down is never mistaken for a
        crash and restarted.  Returns an outcome dict with the ids spawned
        and retired; a spawn failure surfaces as ``RuntimeError`` after the
        already-spawned replicas were registered (the fleet is left at
        whatever size was reached, never half-registered).
        """
        if replicas < 1:
            raise ValueError(f"replicas must be positive, got {replicas}")
        started = time.monotonic()
        spawned: list = []
        retired: list = []
        with self._lock:
            previous = self._count
            current_ids = set(self._processes)
            self._count = int(replicas)
        if replicas > len(current_ids):
            index = 0
            while len(current_ids) + len(spawned) < replicas:
                replica_id = f"replica-{index}"
                index += 1
                if replica_id in current_ids:
                    continue
                replica = self._spawn_one(replica_id)
                with self._lock:
                    self._processes[replica_id] = replica
                    self._restarts[replica_id] = 0
                self._gateway.register_replica(
                    replica_id, "127.0.0.1", replica.port
                )
                spawned.append(replica_id)
        elif replicas < len(current_ids):
            doomed = sorted(
                current_ids,
                key=lambda rid: int(rid.rsplit("-", 1)[-1]),
            )[replicas:]
            for replica_id in doomed:
                with self._lock:
                    replica = self._processes.pop(replica_id, None)
                    self._restarts.pop(replica_id, None)
                if replica is None:
                    continue
                self._gateway.unregister_replica(replica_id)
                replica.terminate()
                retired.append(replica_id)
        return {
            "previous_replicas": previous,
            "target_replicas": int(replicas),
            "spawned": spawned,
            "retired": retired,
            "duration_seconds": time.monotonic() - started,
        }

    # ------------------------------------------------------------------ #
    # views / teardown
    # ------------------------------------------------------------------ #
    def replica(self, replica_id: str) -> "ReplicaProcess | None":
        """The live :class:`ReplicaProcess` for an id (the smoke SIGKILLs
        through this)."""
        with self._lock:
            return self._processes.get(replica_id)

    def snapshot(self) -> dict:
        """JSON-ready per-replica process facts (pid, port, restarts)."""
        with self._lock:
            return {
                replica_id: {
                    "pid": replica.pid,
                    "port": replica.port,
                    "alive": replica.alive(),
                    "restarts": self._restarts.get(replica_id, 0),
                    "started_at": replica.started_at,
                }
                for replica_id, replica in sorted(self._processes.items())
            }

    def stop(self) -> None:
        """Stop monitoring and terminate every replica (idempotent)."""
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=10.0)
            self._monitor = None
        with self._lock:
            processes, self._processes = dict(self._processes), {}
        for replica in processes.values():
            replica.terminate()

    def __enter__(self) -> "ReplicaSupervisor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
