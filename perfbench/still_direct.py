"""``still-direct``: the paper's on-device use, one image at a time.

One caller segments seeded 128x128 synthetic dsb2018, bbbc005 and monuseg
images in turn (closed loop, concurrency 1) through in-process
``SegHDCEngine``s on the paper-default config of each dataset (k = 2/2/3),
packed backend, d = 1024 and the paper's fixed 10 iterations.  No serving
layer is involved; the packed ``assign`` kernel takes most of the time.
Label churn after the first iteration differs widely between the three
datasets, so a churn-proportional ``assign`` is tested at low and high churn.
"""

from __future__ import annotations

import gc
import time

from repro.datasets import make_dataset
from repro.device.cost_model import seghdc_cost
from repro.seghdc import SegHDCConfig, SegHDCEngine

from measure import encoder_build_ms, median, peak_rss_mb
from report import emit_layers, layer_metrics

DATASETS = ("dsb2018", "bbbc005", "monuseg")
SHAPE = (128, 128)
IMAGES_PER_DATASET = 4
SETUP_REPEATS = 15
TOPOLOGY = "in-process SegHDCEngine per dataset, 1 closed-loop caller"


def _configs() -> dict:
    return {
        name: SegHDCConfig.paper_defaults(name)
        .with_overrides(dimension=1024, backend="packed", num_iterations=10)
        .scaled_for_shape(*SHAPE)
        for name in DATASETS
    }


def _inputs(seed: int) -> list:
    """``(dataset, image)`` pairs in the order the caller sends them."""
    per_dataset = {
        name: [
            sample.image
            for sample in make_dataset(
                name, num_images=IMAGES_PER_DATASET, image_shape=SHAPE, seed=seed
            )
        ]
        for name in DATASETS
    }
    return [
        (name, per_dataset[name][index])
        for index in range(IMAGES_PER_DATASET)
        for name in DATASETS
    ]


def _channels(image) -> int:
    return image.pixels.shape[2] if image.pixels.ndim == 3 else 1


def _build(configs: dict, inputs: list) -> dict:
    """Engines with their encoder grids built (the set-up being timed)."""
    engines = {}
    for name, image in inputs[: len(DATASETS)]:
        engine = SegHDCEngine(configs[name])
        engine.warm(*SHAPE, _channels(image))
        engines[name] = engine
    return engines


def _closed_loop(engines, inputs, seconds, tracer=None, first=None):
    """Segment back to back for ``seconds``; returns per-image milliseconds."""
    latencies = []
    deadline = time.perf_counter() + seconds
    index = 0
    while not latencies or time.perf_counter() < deadline:
        name, image = inputs[index % len(inputs)]
        start = time.perf_counter()
        if tracer is not None:
            with tracer.span("request", rid=index):
                result = engines[name].segment(image)
        else:
            result = engines[name].segment(image)
        latencies.append(1000.0 * (time.perf_counter() - start))
        if first is not None and name not in first:
            first[name] = (image, result.labels)
        index += 1
    return latencies


def _check_dense_oracle(report, configs, first) -> None:
    """One image per dataset: packed labels equal the dense backend's."""
    for name in DATASETS:
        image, labels = first[name]
        oracle = SegHDCEngine(configs[name].with_overrides(backend="dense"))
        report.check(
            bool((oracle.segment(image).labels == labels).all()),
            f"{name}: packed labels differ from the dense oracle",
        )


def _model_ops(configs, name) -> float:
    config = configs[name]
    return seghdc_cost(
        *SHAPE,
        dimension=config.dimension,
        num_clusters=config.num_clusters,
        num_iterations=config.num_iterations,
        backend=config.backend,
    ).operations


def run(report, seed: int, seconds: float, tracer=None) -> None:
    configs = _configs()
    inputs = _inputs(seed)
    pixels = SHAPE[0] * SHAPE[1]
    first: dict = {}
    if tracer is None:
        setups = []
        for _ in range(SETUP_REPEATS):
            engines = None
            gc.collect()  # the previous engines go before the next are timed
            start = time.perf_counter()
            engines = _build(configs, inputs)
            setups.append(time.perf_counter() - start)
        latencies = _closed_loop(engines, inputs, seconds, first=first)
        report.operations(len(latencies), 0)
        report.metric("setup_s", median(setups), "s", f"median of {SETUP_REPEATS} builds")
        report.latency("", latencies, gated=True)
        report.metric(
            "throughput_mpix_s", pixels * len(latencies) / sum(latencies) / 1e3, "Mpix/s",
            f"{SHAPE[0]}x{SHAPE[1]} images",
        )
        report.metric("peak_rss_mb", peak_rss_mb(), "MB", "benchmark process")
    else:
        tracer.enabled = True
        engines = _build(configs, inputs)
        tracer.enabled = False
        untraced = _closed_loop(engines, inputs, seconds / 2, first=first)
        tracer.reset()
        tracer.enabled = True
        traced = _closed_loop(engines, inputs, seconds / 2, tracer=tracer)
        tracer.enabled = False
        report.operations(len(untraced) + len(traced), 0)
        sent = [inputs[index % len(inputs)][0] for index in range(len(traced))]
        hits = sum(engine.cache_info()["hits"] for engine in engines.values())
        misses = sum(engine.cache_info()["misses"] for engine in engines.values())
        values = layer_metrics(
            tracer,
            untraced_ms=untraced,
            traced_ms=traced,
            model_ops=[_model_ops(configs, name) for name in sent],
            extras={
                "engine.encoder_build.ms": median(
                    encoder_build_ms(configs[name], [(*SHAPE, _channels(image))])
                    for name, image in inputs[: len(DATASETS)]
                ),
                "engine.cache_hit_share": hits / (hits + misses),
            },
        )
        emit_layers(report, values)
    _check_dense_oracle(report, configs, first)
