"""Incremental HD K-Means against a full-recompute reference loop.

On the packed backend :meth:`HDKMeans.fit` keeps each row's exact dot
products between passes, updates centroids by their label churn and stops
calling kernels at a fixed point.  The reference loop below does none of
that: every pass is a stateless ``backend.assign`` followed by a full
``bundle_masked`` of every non-empty cluster.  Integer arithmetic makes
the two bit-identical, which these tests pin: labels, centroids, inertia,
``iterations_run`` and history.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdc.backend import AssignState, DenseBackend, PackedBackend
from repro.seghdc.clusterer import HDKMeans, select_initial_centroid_indices


def reference_fit(
    backend,
    storage,
    intensities,
    num_clusters,
    num_iterations,
    *,
    chunk_size=8192,
    initial_centroids=None,
    record_history=False,
    early_stop=False,
):
    """The historical loop: stateless assign + full per-cluster bundles.

    Returns ``(labels, centroids, inertia, iterations_run, history,
    steps)`` where ``steps`` lists the centroids before every pass and
    after the last one.
    """
    if initial_centroids is None:
        seeds = select_initial_centroid_indices(intensities, num_clusters)
        centroids = backend.unpack(storage, seeds).astype(np.float64)
    else:
        centroids = np.array(initial_centroids, dtype=np.float64)
    steps = [centroids]
    history = []
    previous = None
    iterations_run = 0
    for _ in range(num_iterations):
        labels, inertia = backend.assign(storage, centroids, chunk_size=chunk_size)
        iterations_run += 1
        if record_history:
            history.append(labels.copy())
        if early_stop and previous is not None and np.array_equal(labels, previous):
            break
        centroids = centroids.copy()
        for cluster in range(num_clusters):
            members = labels == cluster
            if members.any():
                centroids[cluster] = backend.bundle_masked(storage, members)
        steps.append(centroids)
        previous = labels
    return labels, centroids, inertia, iterations_run, history, steps


def _assert_identical(result, reference):
    labels, centroids, inertia, iterations_run, history, _ = reference
    assert np.array_equal(result.labels, labels)
    assert np.array_equal(result.centroids, centroids)
    assert result.inertia == inertia
    assert result.iterations_run == iterations_run
    assert len(result.history) == len(history)
    for got, expected in zip(result.history, history):
        assert np.array_equal(got, expected)


def _rows_from_ints(values, dimension):
    """``(n, dimension)`` 0/1 rows from integers, most significant bit first."""
    return np.array(
        [[(value >> (dimension - 1 - bit)) & 1 for bit in range(dimension)] for value in values],
        dtype=np.uint8,
    )


@st.composite
def clustering_problems(draw):
    height = draw(st.integers(2, 12))
    width = draw(st.integers(2, 12))
    num_clusters = draw(st.integers(2, 5))
    if height * width < num_clusters:
        height = num_clusters
    dimension = draw(st.sampled_from([6, 40, 63, 64, 65, 100, 130, 200]))
    return {
        "num_pixels": height * width,
        "dimension": dimension,
        "num_clusters": num_clusters,
        "num_iterations": draw(st.integers(1, 6)),
        "counter_depth": draw(st.integers(1, 16)),
        "chunk_size": draw(st.sampled_from([1, 7, 64, 8192])),
        "prototypes": draw(st.integers(1, 5)),
        "noise": draw(st.floats(0.0, 0.45)),
        "warm_start": draw(st.booleans()),
        "record_history": draw(st.booleans()),
        "early_stop": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@given(problem=clustering_problems())
@settings(max_examples=100, deadline=None)
def test_incremental_fit_matches_full_recompute(problem):
    rng = np.random.default_rng(problem["seed"])
    n, d, k = problem["num_pixels"], problem["dimension"], problem["num_clusters"]
    # Noisy copies of a few prototypes: clusters that exist, plus churn.
    prototypes = rng.integers(0, 2, size=(problem["prototypes"], d), dtype=np.uint8)
    flips = (rng.random((n, d)) < problem["noise"]).astype(np.uint8)
    hvs = prototypes[rng.integers(0, problem["prototypes"], size=n)] ^ flips
    intensities = rng.uniform(0.0, 255.0, size=n)
    initial = (
        rng.integers(0, 4, size=(k, d)).astype(np.float64)
        if problem["warm_start"]
        else None
    )
    backend = PackedBackend(counter_depth=problem["counter_depth"])
    storage = backend.pack(hvs)
    options = {
        "chunk_size": problem["chunk_size"],
        "record_history": problem["record_history"],
        "early_stop": problem["early_stop"],
    }
    result = HDKMeans(
        k, problem["num_iterations"], backend=backend, **options
    ).fit(storage, intensities, initial_centroids=initial)
    reference = reference_fit(
        backend,
        storage,
        intensities,
        k,
        problem["num_iterations"],
        initial_centroids=initial,
        **options,
    )
    _assert_identical(result, reference)


class TestEmptyClusters:
    """A cluster with no members keeps its centroid; no delta touches it."""

    # k = 3, d = 70, centroids seeded from intensities 0..5 (rows 0, 2
    # and 5): cluster 0 has members after pass 1, none after pass 2, and
    # members again after pass 3; cluster 1 gains and loses them in turn.
    ROWS = (
        0x79E2C4DB58D782CE8, 0x79E2C4DB58D782CE8, 0x79E2C4DB58D782CE8,
        0x38CC1BD4C64E5F96D7, 0x38CC1BD4C64E5F92D7, 0x38CC1BD4C64E5F96D7,
    )

    def _fit_steps(self, rows, dimension, num_clusters, num_iterations, initial=None):
        backend = PackedBackend(counter_depth=1)
        storage = backend.pack(_rows_from_ints(rows, dimension))
        intensities = np.arange(float(storage.num_rows))
        results = [
            HDKMeans(num_clusters, iterations, backend=backend, record_history=True).fit(
                storage, intensities, initial_centroids=initial
            )
            for iterations in range(1, num_iterations + 1)
        ]
        reference = reference_fit(
            backend,
            storage,
            intensities,
            num_clusters,
            num_iterations,
            initial_centroids=initial,
            record_history=True,
        )
        return backend, storage, results, reference

    def test_cluster_empties_and_regains_members(self):
        backend, storage, results, reference = self._fit_steps(self.ROWS, 70, 3, 5)
        history, steps = reference[4], reference[5]
        sizes = [np.bincount(labels, minlength=3) for labels in history]
        emptied = next(
            t for t in range(1, len(sizes)) if sizes[t - 1][0] and not sizes[t][0]
        )
        regained = next(t for t in range(emptied + 1, len(sizes)) if sizes[t][0])
        # While empty, cluster 0 keeps the bundle it had (no delta applied);
        # once it has members again it is their full bundle.
        assert np.array_equal(steps[emptied + 1][0], steps[emptied][0])
        assert np.array_equal(
            steps[regained + 1][0],
            backend.bundle_masked(storage, history[regained] == 0),
        )
        for iterations, result in enumerate(results, start=1):
            assert np.array_equal(result.centroids, steps[iterations])
            assert np.array_equal(result.history[-1], history[iterations - 1])
        _assert_identical(results[-1], reference)

    def test_two_clusters_where_deltas_are_not_opposite(self):
        # Warm start with a centroid no row picks: cluster 1 is empty after
        # pass 1 (its seed is kept, not a bundle), then takes the rows that
        # the grown cluster-0 bundle no longer fits.  At that update
        # delta_1 != -delta_0, so the k = 2 negation shortcut must not fire.
        rows = (0x3FF << 60,) * 6 + (0x3FF << 50,) * 2
        initial = np.zeros((2, 70))
        initial[0, :20] = 1
        initial[1, 10:14] = 1
        initial[1, 40:46] = 1
        _, _, results, reference = self._fit_steps(rows, 70, 2, 4, initial)
        history, steps = reference[4], reference[5]
        assert not np.any(history[0] == 1) and np.any(history[1] == 1)
        for before, after in zip(steps[:3], steps[1:3]):
            # While empty (pass 1) cluster 1 keeps its seed; after pass 2 it
            # is rebuilt from its new members.  Neither delta is -delta_0.
            deltas = after - before
            assert not np.array_equal(deltas[1], -deltas[0])
        for iterations, result in enumerate(results, start=1):
            assert np.array_equal(result.centroids, steps[iterations])
        _assert_identical(results[-1], reference)


class TestAssignState:
    def test_stateful_assign_matches_stateless(self, rng):
        backend = PackedBackend()
        hvs = rng.integers(0, 2, size=(50, 130), dtype=np.uint8)
        storage = backend.pack(hvs)
        state = AssignState()
        centroids = rng.integers(0, 40, size=(3, 130)).astype(np.float64)
        for step in range(6):
            # Growing changes: a negated pair (rows 0, 1) and a fixed row 2.
            change = rng.integers(-3 * step, 3 * step + 1, size=130)
            centroids[0] += change
            centroids[1] -= change
            centroids = np.maximum(centroids, 0)
            labels, inertia = backend.assign(storage, centroids, state=state)
            expected_labels, expected_inertia = backend.assign(storage, centroids)
            assert np.array_equal(labels, expected_labels)
            assert inertia == expected_inertia
            assert np.array_equal(
                state.dots, hvs.astype(np.int64) @ centroids.astype(np.int64).T
            )

    def test_state_for_another_storage_starts_afresh(self, rng):
        backend = PackedBackend()
        first = backend.pack(rng.integers(0, 2, size=(20, 64), dtype=np.uint8))
        second = backend.pack(rng.integers(0, 2, size=(20, 64), dtype=np.uint8))
        centroids = rng.integers(0, 9, size=(2, 64)).astype(np.float64)
        state = AssignState()
        backend.assign(first, centroids, state=state)
        assert backend.assign(second, centroids, state=state)[0].tolist() == (
            backend.assign(second, centroids)[0].tolist()
        )
        assert state.storage is second

    def test_dense_backend_keeps_no_state(self):
        assert DenseBackend().new_assign_state() is None
        assert isinstance(PackedBackend().new_assign_state(), AssignState)

    def test_lookup_table_popcounts_give_the_same_dots(self, rng, monkeypatch):
        import repro.hdc.backend as backend_module

        backend = PackedBackend()
        hvs = rng.integers(0, 2, size=(40, 200), dtype=np.uint8)
        centroids = rng.integers(0, 3000, size=(2, 200)).astype(np.float64)
        expected_labels, expected_inertia = backend.assign(backend.pack(hvs), centroids)
        monkeypatch.setattr(backend_module, "_HAS_BITWISE_COUNT", False)
        state = AssignState()
        labels, inertia = backend.assign(backend.pack(hvs), centroids, state=state)
        assert np.array_equal(labels, expected_labels)
        assert inertia == expected_inertia
        assert np.array_equal(
            state.dots, hvs.astype(np.int64) @ centroids.astype(np.int64).T
        )
