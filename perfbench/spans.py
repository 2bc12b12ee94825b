"""In-memory span tracer around the program's public layer calls.

The program itself carries no spans or counters.  :func:`instrument`
replaces public methods of each layer's classes, in this process only,
with wrappers that record a span per call when the tracer is enabled and
fall straight through when it is not.  A span has a name, a start, an end,
a parent span and a request id shared by every span of one request.

Parents are found three ways:

* the innermost open span of the calling thread;
* across an HTTP hop, the span that sent the same request body
  (``ReplicaClient.segment_raw`` registers the digest of the framed body it
  is about to send; ``handle_request`` on the receiving side looks it up);
* across the serving queue, the job's owner: ``SegmentationServer.submit``
  opens one ``server`` span per HTTP request, the ``JobHandle`` built inside
  it is tied to that span, and the worker thread's ``SegHDCEngine.segment``
  call finds it again through the job's pixel array.

Compute inside process-pool workers cannot be wrapped from here; it enters
the tree as an ``engine.segment`` span of the ``elapsed_seconds`` that
``JobHandle.result()`` returns, ending when the server finished the job.

A span's self time is its duration minus the part of it covered by its
children.  The request root's self time is the time no layer span covers.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import threading
import time
from collections import Counter, defaultdict

#: ``replica_id`` of the benchmark's own client, which tells its
#: ``segment_raw`` calls (``client.wire``) from the gateway's
#: (``gateway.hop``).
BENCH_CLIENT = "bench"


class Span:
    """One timed call; ``end`` is ``None`` while it is open."""

    __slots__ = ("name", "start", "end", "parent", "rid")

    def __init__(self, name, start, parent=None, rid=None, end=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.rid = rid if rid is not None or parent is None else parent.rid

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _Job:
    __slots__ = ("server_span", "mode", "submitted_at")

    def __init__(self, server_span, mode):
        self.server_span = server_span
        self.mode = mode
        self.submitted_at = server_span.start


class Tracer:
    """Span store plus the per-call counts that go with it."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list = []
        #: Calls per wrapped name over the whole run, set-up included.
        self.calls: Counter = Counter()
        #: Summed quantities measured inside wrappers (bytes, rows, ...).
        self.totals: Counter = Counter()
        self.queue_waits: list = []
        self.cut_seconds: list = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._senders: dict = {}
        self._server_spans: dict = {}
        self._jobs: dict = {}
        self._owners: dict = {}

    def reset(self) -> None:
        """Forget spans and per-phase totals; keep the whole-run call counts."""
        with self._lock:
            self.spans = []
            self.totals = Counter()
            self.queue_waits = []
            self.cut_seconds = []
            self._senders.clear()
            self._server_spans.clear()
            self._jobs.clear()
            self._owners.clear()

    # ------------------------------------------------------------------ #
    # span stack
    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> "Span | None":
        """Innermost open span of the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str, *, parent=None, rid=None):
        """Record one span around the ``with`` body."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(name, time.perf_counter(), parent, rid)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    @contextlib.contextmanager
    def adopt(self, parent: "Span | None"):
        """Make ``parent`` the current span of this thread (not recorded)."""
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    def record(self, span: Span) -> None:
        """Record a span built outside :meth:`span`."""
        self.spans.append(span)

    def count(self, key: str, amount: int = 1, *, call: bool = False) -> None:
        """Add to a per-phase total, or to a whole-run call count."""
        with self._lock:
            (self.calls if call else self.totals)[key] += amount

    # ------------------------------------------------------------------ #
    # cross-thread links
    # ------------------------------------------------------------------ #
    def register_sender(self, body: bytes, span: Span) -> None:
        with self._lock:
            self._senders[hashlib.blake2b(body, digest_size=16).digest()] = span

    def sender_of(self, body: bytes) -> "Span | None":
        with self._lock:
            return self._senders.get(hashlib.blake2b(body, digest_size=16).digest())

    def server_span_for(self, holder: "Span | None") -> Span:
        """The one ``server`` span of an HTTP request span (created lazily)."""
        key = id(holder)
        with self._lock:
            entry = self._server_spans.get(key)
            if entry is None or entry[0] is not holder:
                now = time.perf_counter()
                entry = (holder, Span("server", now, holder, end=now))
                self._server_spans[key] = entry
                self.spans.append(entry[1])
            return entry[1]

    def register_job(self, handle, server_span: Span, mode: str) -> None:
        with self._lock:
            self._jobs[id(handle)] = (handle, _Job(server_span, mode))

    def job_of(self, handle, *, pop: bool = False) -> "_Job | None":
        with self._lock:
            entry = (self._jobs.pop if pop else self._jobs.get)(id(handle), None)
        if entry is None or entry[0] is not handle:
            return None
        return entry[1]

    def set_owner(self, pixels, span: Span) -> None:
        with self._lock:
            self._owners[id(pixels)] = (pixels, span)

    def pop_owner(self, pixels) -> "Span | None":
        with self._lock:
            entry = self._owners.pop(id(pixels), None)
        return entry[1] if entry is not None and entry[0] is pixels else None


# ---------------------------------------------------------------------- #
# instrumentation
# ---------------------------------------------------------------------- #
def instrument(tracer: Tracer):
    """Wrap every layer's public calls; returns a function that unwraps."""
    import numpy as np

    import repro.tiling.segmenter as tiled_module
    from repro.hdc.backend import DenseBackend, PackedBackend
    from repro.seghdc.clusterer import HDKMeans
    from repro.seghdc.engine import SegHDCEngine
    from repro.serving.cluster.client import ReplicaClient
    from repro.serving.cluster.gateway import ClusterGateway
    from repro.serving.http import RawResponse, SegmentationHTTPServer, pack_frames
    from repro.serving.jobqueue import BoundedJobQueue
    from repro.serving.server import JobHandle, SegmentationServer
    from repro.tiling.segmenter import TiledSegmenter

    undo = []

    def patch(owner, name, make):
        had_own = name in vars(owner)
        original = getattr(owner, name)
        setattr(owner, name, functools.wraps(original)(make(original)))
        undo.append(
            (lambda: setattr(owner, name, original)) if had_own
            else (lambda: delattr(owner, name))
        )

    def timed(name):
        def make(original):
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                tracer.count(name, call=True)
                with tracer.span(name):
                    return original(*args, **kwargs)
            return wrapper
        return make

    # hdc.backend ------------------------------------------------------- #
    def assign(original):
        def wrapper(self, storage, centroids, **kwargs):
            if not tracer.enabled:
                return original(self, storage, centroids, **kwargs)
            tracer.count("backend.assign", call=True)
            with tracer.span("backend.assign"):
                labels, inertia = original(self, storage, centroids, **kwargs)
            tracer.count("assign_bytes", storage.nbytes)
            previous = getattr(tracer._local, "labels", None)
            if previous is not None and previous.shape == labels.shape:
                tracer.count("churned_rows", int(np.count_nonzero(previous != labels)))
                tracer.count("reassigned_rows", labels.size)
            tracer._local.labels = labels.copy()
            return labels, inertia
        return wrapper

    for backend in (PackedBackend, DenseBackend):
        patch(backend, "assign", assign)
        for kernel in ("bundle_masked", "bind_color", "bind_position_grid"):
            patch(backend, kernel, timed(f"backend.{kernel}"))

    # seghdc.clusterer -------------------------------------------------- #
    def fit(original):
        def wrapper(self, *args, **kwargs):
            if not tracer.enabled:
                return original(self, *args, **kwargs)
            tracer._local.labels = None  # churn compares within one fit only
            tracer.count("clusterer.fit", call=True)
            with tracer.span("clusterer.fit"):
                result = original(self, *args, **kwargs)
            tracer.count("iterations", result.iterations_run)
            tracer.count("fits")
            return result
        return wrapper

    patch(HDKMeans, "fit", fit)

    # seghdc.engine ----------------------------------------------------- #
    def segment(original):
        def wrapper(self, image):
            if not tracer.enabled:
                return original(self, image)
            tracer.count("engine.segment", call=True)
            with tracer.span("engine.segment", parent=tracer.pop_owner(image)):
                return original(self, image)
        return wrapper

    patch(SegHDCEngine, "segment", segment)

    # tiling ------------------------------------------------------------ #
    patch(TiledSegmenter, "segment_instances", timed("tiling"))
    patch(tiled_module, "stitch_tiles", timed("tiling.stitch"))

    # serving.cluster: the wire out of a client ------------------------- #
    def segment_raw(original):
        def wrapper(self, images):
            if not tracer.enabled:
                return original(self, images)
            name = "client.wire" if self.replica_id == BENCH_CLIENT else "gateway.hop"
            body = pack_frames(enumerate(images))
            with tracer.span(name) as span:
                tracer.register_sender(body, span)
                if name == "gateway.hop":
                    tracer.count(f"images@{self.replica_id}", len(images))
                return original(self, images)
        return wrapper

    patch(ReplicaClient, "segment_raw", segment_raw)

    # serving.http / serving.cluster: the receiving front ends ---------- #
    def front_end(name):
        def make(original):
            def wrapper(self, method, path, body, **kwargs):
                if not tracer.enabled or not path.startswith("/v1/segment"):
                    return original(self, method, path, body, **kwargs)
                with tracer.span(name, parent=tracer.sender_of(body)):
                    status, payload = original(self, method, path, body, **kwargs)
                if name == "http" and isinstance(payload, RawResponse):
                    tracer.count("http_request_bytes", len(body))
                    tracer.count("http_response_bytes", len(payload.body))
                    tracer.count(
                        "http_images", int(payload.headers.get("X-Seghdc-Count", 1))
                    )
                return status, payload
            return wrapper
        return make

    patch(ClusterGateway, "handle_request", front_end("gateway"))
    patch(SegmentationHTTPServer, "handle_request", front_end("http"))

    # serving.server ---------------------------------------------------- #
    def submit(original):
        def wrapper(self, image, **kwargs):
            holder = tracer.current() if tracer.enabled else None
            if holder is None or holder.name != "http":
                return original(self, image, **kwargs)
            tracer._local.submitting = (tracer.server_span_for(holder), self.mode)
            try:
                return original(self, image, **kwargs)
            finally:
                tracer._local.submitting = None
        return wrapper

    def handle_init(original):
        def wrapper(self, *args, **kwargs):
            original(self, *args, **kwargs)
            submitting = getattr(tracer._local, "submitting", None)
            if submitting is not None:
                tracer.register_job(self, *submitting)
        return wrapper

    def take_batch(original):
        def wrapper(self, *args, **kwargs):
            batch = original(self, *args, **kwargs)
            if tracer.enabled and batch:
                now = time.perf_counter()
                for job in batch:
                    record = tracer.job_of(job.handle)
                    if record is None:
                        continue
                    record.submitted_at = job.submitted_at
                    tracer.queue_waits.append(now - job.submitted_at)
                    if record.mode == "thread":
                        tracer.set_owner(job.pixels, record.server_span)
            return batch
        return wrapper

    def result(original):
        def wrapper(self, *args, **kwargs):
            value = original(self, *args, **kwargs)
            record = tracer.job_of(self, pop=True)
            if record is None:
                return value
            server_span = record.server_span
            now = time.perf_counter()
            server_span.end = max(server_span.end, now)
            if record.mode == "process":
                finished = record.submitted_at + value.workload.get(
                    "serving_latency_seconds", 0.0
                )
                finished = min(max(finished, server_span.start), now)
                started = max(finished - value.elapsed_seconds, server_span.start)
                tracer.record(Span("engine.segment", started, server_span, end=finished))
            return value
        return wrapper

    patch(SegmentationServer, "submit", submit)
    patch(JobHandle, "__init__", handle_init)
    patch(BoundedJobQueue, "take_batch", take_batch)
    patch(JobHandle, "result", result)

    def unwrap() -> None:
        while undo:
            undo.pop()()

    return unwrap


# ---------------------------------------------------------------------- #
# aggregation
# ---------------------------------------------------------------------- #
def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict:
    """``id(span) -> duration minus the part its children cover``."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    result = {}
    for span in spans:
        covered = _covered(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children[id(span)]
        )
        result[id(span)] = span.seconds - covered
    return result


def per_request(spans, root_name: str = "request"):
    """Self time per span name for each request root.

    Returns ``(roots, selves, by_root)`` where ``by_root[id(root)]`` maps a
    span name to the summed self time of that name in the root's tree.
    """
    selves = self_times(spans)
    by_root: dict = defaultdict(Counter)
    roots = []
    for span in spans:
        root = span
        while root.parent is not None:
            root = root.parent
        if root.name != root_name:
            continue
        if root is span:
            roots.append(span)
        by_root[id(root)][span.name] += selves[id(span)]
    return roots, selves, by_root
