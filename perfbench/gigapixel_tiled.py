"""``gigapixel-tiled``: few huge same-shape jobs through the fleet.

Seeded 1024x1024 ``blob_field`` images (blob spacing 32, below the tile
size, so every tile holds both intensity modes) go through a
``TiledSegmenter`` cutting 128x128 tiles on the scenario-smoke base recipe
(packed d = 512, 8 iterations, early stop).  The tiles are fanned in framed
batches over at most ``nproc`` (2) connections to the same 2-replica gateway
as ``wire-mixed``, here with thread-mode replicas.  Every tile has one
shape, so shape affinity sends all of them to one replica: the opposite use
of the gateway and server to ``wire-mixed``.  One caller sends one image at
a time (closed loop); latency is per whole image.
"""

from __future__ import annotations

import contextlib
import os
import time
from concurrent.futures import ThreadPoolExecutor

from repro.api.result import SegmentationResult
from repro.device.cost_model import http_wire_bytes, seghdc_cost
from repro.seghdc import SegHDCConfig
from repro.tiling import TiledConfig, TiledSegmenter, blob_field

from fleets import boot, gateway_stats, serving_extras
from measure import descendants, encoder_build_ms, median, peak_rss_mb
from report import emit_layers, layer_metrics

TOPOLOGY = "gateway + 2 supervised replicas, thread mode, 1 worker each"
SIZE = 1024
TILE = 128
BATCH = 8
SENDERS = min(2, os.cpu_count() or 1)
IMAGES = 3
BASE = {"dimension": 512, "num_iterations": 8, "early_stop": True, "backend": "packed"}
SETUP_REPEATS = 3


def _tiled_config():
    return TiledConfig(base_config=BASE, tile_height=TILE, tile_width=TILE)


def _images(seed: int) -> list:
    return [
        blob_field(SIZE, SIZE, spacing=32, seed=seed * IMAGES + index)
        for index in range(IMAGES)
    ]


def _segmenter(config, client, pool, tracer=None):
    """A tiled segmenter whose tiles go to the gateway in framed batches."""

    def send(batch, parent):
        if tracer is None:
            return client.segment_raw(batch)
        with tracer.adopt(parent):
            return client.segment_raw(batch)

    def runner(tiles):
        parent = None
        if tracer is not None and tracer.enabled:
            parent = tracer.current()
            tracer.cut_seconds.append(time.perf_counter() - parent.start)
        batches = [list(tiles[i:i + BATCH]) for i in range(0, len(tiles), BATCH)]
        label_maps = [
            labels
            for answer in pool.map(lambda batch: send(batch, parent), batches)
            for labels in answer
        ]
        return [
            SegmentationResult(labels=labels, elapsed_seconds=0.0, num_clusters=2)
            for labels in label_maps
        ]

    return TiledSegmenter(config, tile_runner=runner)


def _closed_loop(segmenter, images, seconds, mismatches, tracer=None):
    """Segment whole images back to back; returns per-image milliseconds.

    ``mismatches`` collects, per image, the pixels where the stitched map
    differs from the ground-truth modes ``image > 127``; the comparison
    happens between the timed calls.
    """
    latencies = []
    deadline = time.perf_counter() + seconds
    index = 0
    while not latencies or time.perf_counter() < deadline:
        image = images[index % len(images)]
        start = time.perf_counter()
        if tracer is not None:
            with tracer.span("request", rid=index):
                result, _stitched = segmenter.segment_instances(image)
        else:
            result, _stitched = segmenter.segment_instances(image)
        latencies.append(1000.0 * (time.perf_counter() - start))
        mismatches.append(int((result.labels != (image > 127)).sum()))
        index += 1
    return latencies


def _warm_up(client, config, image) -> None:
    """One framed batch of tiles: the replica that owns the shape builds its grid."""
    grid = config.grid_for(*image.shape)
    client.segment_raw([image[box.tile_slices] for box in grid.boxes[:BATCH]])


def _check(report, mismatches) -> None:
    for index, wrong in enumerate(mismatches):
        report.check(
            wrong == 0,
            f"image {index}: stitched map differs from image > 127 on {wrong} pixels",
        )


def run(report, seed: int, seconds: float, tracer=None) -> None:
    config = _tiled_config()
    images = _images(seed)
    mismatches: list = []
    with contextlib.ExitStack() as stack:
        pool = stack.enter_context(ThreadPoolExecutor(SENDERS, thread_name_prefix="tile-send"))
        if tracer is None:
            setups = []
            for attempt in range(SETUP_REPEATS):
                fleet = stack.enter_context(contextlib.ExitStack())
                start = time.perf_counter()
                gateway, client = boot(fleet, dict(config.base_config), "thread", in_process=False)
                _warm_up(client, config, images[0])
                setups.append(time.perf_counter() - start)
                if attempt + 1 < SETUP_REPEATS:
                    fleet.close()
            segmenter = _segmenter(config, client, pool)
            latencies = _closed_loop(segmenter, images, seconds, mismatches)
            peak = peak_rss_mb(descendants())
            stats = gateway_stats(gateway, client)
        else:
            tracer.enabled = True
            gateway, client = boot(stack, dict(config.base_config), "thread", in_process=True)
            _warm_up(client, config, images[0])
            tracer.enabled = False
            segmenter = _segmenter(config, client, pool, tracer)
            untraced = _closed_loop(segmenter, images, seconds / 2, mismatches)
            tracer.reset()
            tracer.enabled = True
            traced = _closed_loop(segmenter, images, seconds / 2, mismatches, tracer)
            tracer.enabled = False
            extras = serving_extras(gateway, client)

    report.operations(len(mismatches), 0)
    if tracer is None:
        report.metric("setup_s", median(setups), "s", f"median of {SETUP_REPEATS} fleet boots")
        report.latency("", latencies, gated=True)
        report.metric(
            "throughput_mpix_s", SIZE * SIZE * len(latencies) / sum(latencies) / 1e3,
            "Mpix/s", f"{SIZE}x{SIZE} images, {TILE}x{TILE} tiles",
        )
        report.metric("peak_rss_mb", peak, "MB", "largest of benchmark, replicas")
        completed = [
            (entry or {}).get("completed", 0)
            for entry in stats["fleet"]["per_replica"].values()
        ]
        report.note(
            "gateway.busiest_replica_share", max(completed) / max(1, sum(completed)),
            "share",
        )
    else:
        _report_layers(report, tracer, config, untraced, traced, extras)
    _check(report, mismatches)


def _report_layers(report, tracer, config, untraced, traced, extras) -> None:
    base = config.base_config
    tiles = config.grid_for(SIZE, SIZE).num_tiles
    fits = tracer.totals["fits"]
    iterations = tracer.totals["iterations"] / fits if fits else base["num_iterations"]
    per_tile = seghdc_cost(
        TILE, TILE, dimension=base["dimension"], num_clusters=base["num_clusters"],
        num_iterations=iterations, backend=base["backend"],
    ).operations
    extras.update(
        {
            "engine.encoder_build.ms": encoder_build_ms(
                SegHDCConfig.from_dict(base), [(TILE, TILE, 1)]
            ),
            "tiling.tiles": tiles,
            "model.http_wire_bytes": http_wire_bytes(TILE, TILE),
        }
    )
    values = layer_metrics(
        tracer,
        untraced_ms=untraced,
        traced_ms=traced,
        model_ops=[per_tile] * fits,
        extras=extras,
    )
    emit_layers(report, values)
