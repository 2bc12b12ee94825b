"""Statistics, memory and process-hygiene helpers shared by the workloads."""

from __future__ import annotations

import os
import resource
import signal
import statistics
import time

from repro.seghdc import SegHDCEngine


def median(values) -> float:
    """Median of a non-empty sequence (``nan`` when empty)."""
    values = list(values)
    return float(statistics.median(values)) if values else float("nan")


def tail(values) -> "tuple[float, float, int] | None":
    """The highest order statistic with at least ten samples above it.

    Returns ``(value, percentile, n)`` or ``None`` when fewer than eleven
    samples exist, in which case no tail can honestly be reported.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    index = n - 11
    return float(ordered[index]), 100.0 * (index + 1) / n, n


def backlog_series(records) -> "list[tuple[float, int]]":
    """``(time, requests due but not done)`` after every arrival/completion."""
    events = []
    for record in records:
        events.append((record.scheduled_at, 1))
        events.append((record.done_at, -1))
    events.sort()
    level = 0
    series = []
    for at, step in events:
        level += step
        series.append((at, level))
    return series


def _proc_stat(pid: int) -> "tuple[str, int] | None":
    """``(state, ppid)`` of a live process, ``None`` when it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    fields = text[text.rfind(")") + 2:].split()
    return fields[0], int(fields[1])


def descendants(root: "int | None" = None, *, trackers: bool = True) -> "list[int]":
    """Every live descendant pid of ``root`` (default: this process).

    ``trackers=False`` leaves out the multiprocessing resource tracker, which
    lives as long as this process does.
    """
    root = os.getpid() if root is None else root
    children: dict = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        stat = _proc_stat(int(entry))
        if stat is not None and stat[0] != "Z":
            children.setdefault(stat[1], []).append(int(entry))
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, []):
            found.append(child)
            frontier.append(child)
    if not trackers:
        found = [pid for pid in found if not _is_resource_tracker(pid)]
    return found


def _is_resource_tracker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return b"resource_tracker" in handle.read()
    except OSError:
        return False


def stop_resource_tracker() -> None:
    """End the shared-memory resource tracker this process may have started.

    It outlives every pool and ignores SIGTERM; closing its pipe is the way
    it is meant to be stopped, after which it is waited for.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _alive(pid: int) -> bool:
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


def reap(pids, timeout: float = 10.0) -> None:
    """Wait for ``pids`` to end; SIGTERM then SIGKILL the ones that do not."""
    pids = list(pids)
    for sig, wait in ((None, timeout), (signal.SIGTERM, 3.0), (signal.SIGKILL, 3.0)):
        if sig is not None:
            for pid in pids:
                try:
                    os.kill(pid, sig)
                except OSError:
                    pass
        deadline = time.monotonic() + wait
        while time.monotonic() < deadline:
            pids = [pid for pid in pids if _alive(pid)]
            if not pids:
                return
            time.sleep(0.05)
    raise RuntimeError(f"processes {pids} survived SIGKILL")


def peak_rss_mb(pids=()) -> float:
    """Largest peak resident set of this process and ``pids``, in MB."""
    peaks = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peaks.append(int(line.split()[1]) / 1024.0)
        except OSError:
            continue
    return max(peaks)


def encoder_build_ms(config, shapes) -> float:
    """Median cold encoder-grid build, in ms, of a fresh ``SegHDCEngine``.

    ``shapes`` are ``(height, width, channels)``; each is built three times.
    """
    builds = []
    for shape in list(shapes) * 3:
        engine = SegHDCEngine(config)
        start = time.perf_counter()
        engine.warm(*shape)
        builds.append(1000.0 * (time.perf_counter() - start))
    return median(builds)
