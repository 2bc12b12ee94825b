"""HD K-Means clusterer (component 4 of SegHDC).

A revised K-Means over pixel hypervectors:

* the distance between a pixel HV and a centroid is the **cosine distance**
  (Eq. 7) — centroids are element-wise *sums* (bundles) of their members, so
  their length grows with cluster size, and cosine distance ignores length;
* the initial centroids are the pixels with the **largest color difference**
  (most extreme mean intensities), not random picks;
* the loop runs for a fixed, preset number of iterations (10 by default in
  the paper, 3 in the latency experiments).  An assignment pass that
  reproduces the previous labels is a *true* fixed point: identical member
  sets bundle to identical centroids, so every further iteration returns
  the same labels and inertia.  ``early_stop=True`` stops the loop there,
  bit-exact with the full run.

**Incremental iterations.**  When the backend keeps assignment state
(:meth:`HDCBackend.new_assign_state`; the packed backend does), the cost
of a pass follows the label churn instead of the image size:

* the backend keeps every pixel's exact ``int64`` dot products with the
  centroids and updates them by the centroid deltas only (see
  :meth:`repro.hdc.backend.PackedBackend.assign`);
* the centroid update after the first pass is
  ``C + bundle(joined rows) - bundle(left rows)``, bundling only the rows
  that changed cluster;
* at a fixed point the loop stops calling kernels and fills the remaining
  history entries with the fixed labels.

So on the packed backend ``early_stop`` changes only ``iterations_run``
and the history length, not the cost.  The dense backend keeps no state
and runs the historical full-recompute loop, which keeps it an
independent oracle for the incremental one.

The clusterer also exposes a **warm-start seam**: :meth:`HDKMeans.fit`
accepts ``initial_centroids=`` to seed the loop from externally supplied
centroids (e.g. the previous video frame's converged bundles) instead of
the largest-color-difference pixels.

The distance and bundling arithmetic is delegated to a
:class:`repro.hdc.backend.HDCBackend`, so the same clusterer runs on dense
uint8 hypervectors (bit-exact with the historical implementation) or on
bit-packed ``uint64`` words with integer-only kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hdc.backend import DenseBackend, HDCBackend, HVStorage, make_backend

__all__ = ["ClusteringResult", "HDKMeans", "select_initial_centroid_indices"]


def _fill_missing_positions(positions: np.ndarray, size: int, count: int) -> np.ndarray:
    """Top ``positions`` up to ``count`` distinct entries in ``[0, size)``.

    Guard for pathological tiny inputs: if quantile picks ever collapse onto
    the same sorted position, the smallest unused positions are appended so
    exactly ``count`` distinct seeds come back.  (For valid inputs with
    ``size >= count`` the evenly spaced picks are already distinct, so this
    is a safety net rather than a hot path.)
    """
    positions = np.unique(positions)
    while positions.size < count:
        extras = np.setdiff1d(np.arange(size), positions, assume_unique=False)
        positions = np.sort(
            np.concatenate([positions, extras[: count - positions.size]])
        )
    return positions


def select_initial_centroid_indices(
    intensities: np.ndarray, num_clusters: int
) -> np.ndarray:
    """Pick ``num_clusters`` pixel indices with the largest color difference.

    The pixels whose mean intensities sit at evenly spaced quantile extremes
    (minimum, maximum, and intermediate quantiles for k > 2) are selected, so
    the seed centroids are maximally spread along the intensity axis.
    """
    flat = np.asarray(intensities, dtype=np.float64).reshape(-1)
    if num_clusters < 2:
        raise ValueError(f"num_clusters must be at least 2, got {num_clusters}")
    if flat.size < num_clusters:
        raise ValueError(
            f"need at least {num_clusters} pixels, got {flat.size}"
        )
    order = np.argsort(flat, kind="stable")
    # Evenly spaced picks along the sorted intensity axis: first, last, and
    # interior quantiles, all distinct because the picks are sorted positions.
    positions = np.linspace(0, flat.size - 1, num_clusters).round().astype(int)
    positions = _fill_missing_positions(positions, flat.size, num_clusters)
    return order[positions]


@dataclass
class ClusteringResult:
    """Labels and centroids produced by :class:`HDKMeans`.

    ``labels`` has one entry per pixel (flattened).  ``history`` holds the
    label assignment after each iteration when history recording is enabled
    (needed to reproduce Fig. 8).  ``iterations_run`` is the number of
    iterations the result covers — equal to ``num_iterations`` unless
    early stopping cut the loop at a fixed point.  (Without early stopping
    an incremental run stops calling kernels at a fixed point but still
    counts every iteration: each would reproduce the same labels.)
    ``warm_started`` records whether the run was seeded from externally
    supplied centroids instead of the intensity-extreme pixels.
    """

    labels: np.ndarray
    centroids: np.ndarray
    iterations_run: int
    history: list[np.ndarray] = field(default_factory=list)
    inertia: float = 0.0
    warm_started: bool = False


class HDKMeans:
    """K-Means over binary hypervectors with cosine distance.

    Parameters
    ----------
    num_clusters:
        Number of clusters ``k``.
    num_iterations:
        Fixed number of assignment/update rounds.
    chunk_size:
        Pixels are processed in chunks of this many rows when computing the
        pixel-to-centroid similarities, bounding peak memory for large images.
    record_history:
        When true, the label vector after every iteration is kept.
    early_stop:
        When true, the loop breaks as soon as an assignment pass returns
        the same labels as the previous pass.  Unchanged labels mean
        unchanged cluster member sets, whose bundles are the exact same
        centroids, so every subsequent iteration would reproduce the same
        assignment — the cut is a true fixed point and the final labels and
        centroids are bit-identical to the full ``num_iterations`` run.
        With a backend that keeps assignment state (packed) the full run
        stops calling kernels at that fixed point too, so the knob changes
        only ``iterations_run`` and the history length, not the cost; it
        saves time on the dense backend alone.  Off by default to preserve
        the paper's fixed-iteration semantics.
    backend:
        Compute backend (name or instance) used for the similarity and
        bundling kernels.  Defaults to the dense uint8 backend.  When
        :meth:`fit` receives an :class:`HVStorage`, the storage's own backend
        takes precedence.
    """

    def __init__(
        self,
        num_clusters: int,
        num_iterations: int = 10,
        *,
        chunk_size: int = 8192,
        record_history: bool = False,
        early_stop: bool = False,
        backend: str | HDCBackend | None = None,
    ) -> None:
        if num_clusters < 2:
            raise ValueError(f"num_clusters must be at least 2, got {num_clusters}")
        if num_iterations < 1:
            raise ValueError(
                f"num_iterations must be at least 1, got {num_iterations}"
            )
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.num_clusters = int(num_clusters)
        self.num_iterations = int(num_iterations)
        self.chunk_size = int(chunk_size)
        self.record_history = bool(record_history)
        self.early_stop = bool(early_stop)
        self.backend = make_backend(backend) if backend is not None else DenseBackend()

    def fit(
        self,
        pixel_hvs: np.ndarray | HVStorage,
        intensities: np.ndarray,
        *,
        initial_centroids: np.ndarray | None = None,
    ) -> ClusteringResult:
        """Cluster ``pixel_hvs`` (shape ``(n, d)``) into ``num_clusters`` groups.

        ``pixel_hvs`` may be a raw uint8 matrix or backend storage produced
        by :meth:`HDCBackend.pack` / the pixel producer.  ``intensities``
        supplies the per-pixel mean color values used to seed the centroids
        with the largest-color-difference pixels.  ``initial_centroids``
        (shape ``(num_clusters, dimension)``) overrides that seeding — the
        warm-start seam: a video session passes the previous frame's
        converged centroid bundles so the loop starts next to the fixed
        point instead of at the intensity extremes.
        """
        if isinstance(pixel_hvs, HVStorage):
            storage = pixel_hvs
            backend = storage.backend
        else:
            hvs = np.asarray(pixel_hvs)
            if hvs.ndim != 2:
                raise ValueError(f"pixel_hvs must be 2-D, got shape {hvs.shape}")
            # Backend packing casts to uint8 and bit-packs, which would
            # silently corrupt non-binary input (floats truncate, larger
            # values wrap or saturate to single bits); reject it instead so
            # callers get an error rather than garbage labels.  Integer and
            # boolean inputs validate with allocation-free min/max
            # reductions — the HV matrix is the memory-dominant object, so a
            # same-size boolean temporary would double peak memory.
            if hvs.size:
                if hvs.dtype.kind in "bu":
                    binary = int(hvs.max()) <= 1
                elif hvs.dtype.kind == "i":
                    binary = int(hvs.min()) >= 0 and int(hvs.max()) <= 1
                else:
                    binary = bool(np.isin(hvs, (0, 1)).all())
                if not binary:
                    raise ValueError(
                        "pixel_hvs must contain only 0/1 values "
                        f"(got dtype {hvs.dtype} with other values)"
                    )
            backend = self.backend
            storage = backend.pack(hvs)
        num_pixels = storage.num_rows
        flat_intensity = np.asarray(intensities, dtype=np.float64).reshape(-1)
        if flat_intensity.size != num_pixels:
            raise ValueError(
                f"intensities size {flat_intensity.size} does not match "
                f"number of pixels {num_pixels}"
            )
        if num_pixels < self.num_clusters:
            raise ValueError(
                f"cannot form {self.num_clusters} clusters from {num_pixels} pixels"
            )
        warm_started = initial_centroids is not None
        if warm_started:
            centroids = np.array(initial_centroids, dtype=np.float64, copy=True)
            expected = (self.num_clusters, storage.dimension)
            if centroids.shape != expected:
                raise ValueError(
                    f"initial_centroids must have shape {expected}, "
                    f"got {centroids.shape}"
                )
        else:
            seed_indices = select_initial_centroid_indices(
                flat_intensity, self.num_clusters
            )
            centroids = backend.unpack(storage, seed_indices).astype(np.float64)
        state = backend.new_assign_state()
        labels = np.zeros(num_pixels, dtype=np.int32)
        previous_labels: np.ndarray | None = None
        history: list[np.ndarray] = []
        inertia = 0.0
        iterations_run = 0
        for _ in range(self.num_iterations):
            labels, inertia = backend.assign(
                storage, centroids, chunk_size=self.chunk_size, state=state
            )
            iterations_run += 1
            if self.record_history:
                history.append(labels.copy())
            if previous_labels is not None and np.array_equal(labels, previous_labels):
                # Fixed point: the members of every cluster are unchanged,
                # so the centroid update below would rebuild the exact
                # centroids this assignment just used, and every further
                # pass would return these labels and this inertia.
                if self.early_stop:
                    break
                if state is not None:
                    remaining = self.num_iterations - iterations_run
                    if self.record_history:
                        history.extend(labels.copy() for _ in range(remaining))
                    iterations_run = self.num_iterations
                    break
            centroids = self._update_centroids(
                backend,
                storage,
                labels,
                centroids,
                previous_labels if state is not None else None,
            )
            previous_labels = labels
        return ClusteringResult(
            labels=labels,
            centroids=centroids,
            iterations_run=iterations_run,
            history=history,
            inertia=inertia,
            warm_started=warm_started,
        )

    def _update_centroids(
        self,
        backend: HDCBackend,
        storage: HVStorage,
        labels: np.ndarray,
        previous: np.ndarray,
        previous_labels: np.ndarray | None = None,
    ) -> np.ndarray:
        """New centroids: element-wise sums (bundles) of member HVs.

        Empty clusters keep their previous centroid so the cluster count never
        silently shrinks.  With ``previous_labels`` (the labels ``previous``
        was bundled from), a cluster whose members changed is updated by its
        churn alone: ``previous + bundle(joined rows) - bundle(left rows)``.
        The moved rows are bundled once per (from, to) pair and shared by
        the two clusters they touch.  A cluster that had no members — its
        centroid is a kept or seed vector, not a bundle — or whose churn is
        at least its member count is bundled in full.
        """
        centroids = previous.copy()
        sizes = np.bincount(labels, minlength=self.num_clusters)
        if previous_labels is None:
            for cluster in np.flatnonzero(sizes):
                centroids[cluster] = backend.bundle_masked(storage, labels == cluster)
            return centroids
        moved = labels != previous_labels
        origins, targets = previous_labels[moved], labels[moved]
        previous_sizes = np.bincount(previous_labels, minlength=self.num_clusters)
        transitions: dict[tuple[int, int], np.ndarray] = {}

        def transition(origin: int, target: int) -> np.ndarray:
            key = (origin, target)
            if key not in transitions:
                transitions[key] = backend.bundle_masked(
                    storage, moved & (previous_labels == origin) & (labels == target)
                )
            return transitions[key]

        for cluster in np.flatnonzero(sizes):
            arriving, leaving = targets == cluster, origins == cluster
            churn = np.count_nonzero(arriving) + np.count_nonzero(leaving)
            if churn == 0:
                continue
            if previous_sizes[cluster] == 0 or churn >= sizes[cluster]:
                centroids[cluster] = backend.bundle_masked(storage, labels == cluster)
                continue
            for origin in np.unique(origins[arriving]):
                centroids[cluster] += transition(int(origin), int(cluster))
            for target in np.unique(targets[leaving]):
                centroids[cluster] -= transition(int(cluster), int(target))
        return centroids
