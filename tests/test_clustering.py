"""Random clustering and K-Means tests."""

from __future__ import annotations

import re
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phonoprep.clustering import (
    ClusterModel,
    SizeDistribution,
    derive_size_distribution,
    encode_with_clusters,
    kmeans_fit,
    load_cluster_model,
    random_cluster,
    random_cluster_uniform,
    save_cluster_model,
)
from phonoprep.encoders import metaphone_encode, soundex_encode
from phonoprep.errors import PhonoprepError


class TestSizeDistribution:
    def test_table1_group(self):
        dist = derive_size_distribution(["body", "but", "bad", "speak"], soundex_encode)
        assert sorted(dist.multiplicities) == [1, 3]

    def test_all_distinct_codes(self):
        dist = derive_size_distribution(["alpha", "kilo", "zulu"], soundex_encode)
        assert dist.multiplicities == (1, 1, 1)

    def test_shared_code_group(self):
        # brute-force the codes first, then compare the multiset
        words = ["car", "care", "cry"]
        codes = Counter(soundex_encode(w) for w in words)
        assert sorted(codes.values()) == [3]
        dist = derive_size_distribution(words, soundex_encode)
        assert dist.multiplicities == (3,)

    def test_non_alphabetic_units_pass_through(self):
        dist = derive_size_distribution(["body", "42", "42a"], soundex_encode)
        assert dist.total == 3

    def test_empty_units(self):
        with pytest.raises(PhonoprepError, match="^no units to cluster$"):
            derive_size_distribution([], soundex_encode)

    def test_units_without_a_code_are_their_own_groups(self):
        # metaphone gives "" for all three; they pass through, so no "" group forms
        dist = derive_size_distribution(["wh", "gh", "hw", "body"], metaphone_encode)
        assert dist.multiplicities == (1, 1, 1, 1)


class TestRandomCluster:
    UNITS = ["ant", "bee", "cat", "dog", "eel", "fox"]

    def test_single_cluster(self):
        model = random_cluster(self.UNITS[:4], SizeDistribution((4,)), seed=1)
        assert model.num_clusters == 1
        assert set(model.assignment) == set(self.UNITS[:4])

    def test_singletons(self):
        model = random_cluster(self.UNITS[:4], SizeDistribution((1, 1, 1, 1)), seed=1)
        assert model.num_clusters == 4

    def test_seed_determinism(self):
        dist = SizeDistribution((3, 2, 1))
        a = random_cluster(self.UNITS, dist, seed=7)
        b = random_cluster(self.UNITS, dist, seed=7)
        assert a.assignment == b.assignment

    def test_input_order_irrelevant(self):
        dist = SizeDistribution((3, 2, 1))
        a = random_cluster(self.UNITS, dist, seed=7)
        b = random_cluster(list(reversed(self.UNITS)), dist, seed=7)
        assert a.assignment == b.assignment

    def test_size_fidelity(self):
        dist = SizeDistribution((3, 2, 1))
        model = random_cluster(self.UNITS, dist, seed=3)
        assert model.cluster_sizes() == [3, 2, 1]

    def test_partition_covers_all_units(self):
        dist = SizeDistribution((2, 2, 2))
        model = random_cluster(self.UNITS, dist, seed=3)
        assert sum(model.cluster_sizes()) == len(self.UNITS)

    def test_seeds_differ(self):
        units = [f"w{i}" for i in range(12)]
        dist = SizeDistribution((4, 4, 4))
        assignments = {
            tuple(sorted(random_cluster(units, dist, seed=s).assignment.items()))
            for s in range(5)
        }
        assert len(assignments) > 1

    def test_size_mismatch(self):
        with pytest.raises(PhonoprepError, match="^distribution covers 4 units, got 6$"):
            random_cluster(self.UNITS, SizeDistribution((2, 2)), seed=0)


class TestRandomClusterUniform:
    def test_fifth_of_vocabulary(self):
        units = [f"w{i}" for i in range(10)]
        model = random_cluster_uniform(units, fraction=0.2, seed=0)
        assert model.cluster_sizes() == [5, 5]

    def test_full_fraction_gives_singletons(self):
        units = [f"w{i}" for i in range(10)]
        model = random_cluster_uniform(units, fraction=1.0, seed=0)
        assert model.cluster_sizes() == [1] * 10

    def test_near_equal_sizes(self):
        units = [f"w{i}" for i in range(7)]
        model = random_cluster_uniform(units, fraction=0.4, seed=0)
        assert model.cluster_sizes() == [3, 2, 2]

    def test_invalid_fraction(self):
        units = [f"w{i}" for i in range(10)]
        for fraction in (0.0, -0.5, 1.5, True):
            with pytest.raises(ValueError, match=r"^fraction must be a number in \(0, 1\]"):
                random_cluster_uniform(units, fraction=fraction, seed=0)
        with pytest.raises(ValueError, match="^fraction 0.01 yields no clusters for 3 units$"):
            random_cluster_uniform(units[:3], fraction=0.01, seed=0)


def _brute_force_best_2partition(points):
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    best = np.inf
    for size in range(1, n):
        for members in combinations(range(n), size):
            a = pts[list(members)]
            b = np.delete(pts, list(members), axis=0)
            cost = ((a - a.mean(axis=0)) ** 2).sum() + ((b - b.mean(axis=0)) ** 2).sum()
            best = min(best, cost)
    return best


def reference_lloyd_once(pts, k, rng, max_iter, reseeds):
    """Lloyd's iterations over an (n, k, d) broadcast and one mask per cluster."""
    centroids = np.empty((k, pts.shape[1]))
    centroids[0] = pts[rng.integers(len(pts))]
    closest_sq = np.sum((pts - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = closest_sq.sum()
        if total <= 0.0:
            centroids[j] = pts[rng.integers(len(pts))]
        else:
            r = rng.random() * total
            centroids[j] = pts[np.searchsorted(np.cumsum(closest_sq), r)]
        closest_sq = np.minimum(closest_sq, np.sum((pts - centroids[j]) ** 2, axis=1))

    assignment = np.full(len(pts), -1)
    costs = []
    for _ in range(max_iter):
        d2 = np.sum((pts[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_assignment = np.argmin(d2, axis=1)
        costs.append(float(d2[np.arange(len(pts)), new_assignment].sum()))
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for j in range(k):
            members = pts[assignment == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
            else:
                reseeds.append(j)
                dist_own = np.sum((pts - centroids[assignment]) ** 2, axis=1)
                centroids[j] = pts[np.argmax(dist_own)]
    return centroids, assignment, costs


def reference_kmeans_fit(points, k, seed, max_iter=100, n_init=10, reseeds=None):
    pts = np.asarray(points, dtype=float)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(max(1, n_init)):
        run = reference_lloyd_once(pts, k, rng, max_iter,
                                   reseeds if reseeds is not None else [])
        if best is None or run[2][-1] < best[2][-1]:
            best = run
    return best[0], best[1], tuple(best[2])


def assert_same_model(model, want) -> None:
    centroids, assignment, cost_history = want
    assert model.centroids.dtype == centroids.dtype
    assert model.assignment.dtype == assignment.dtype
    np.testing.assert_array_equal(model.centroids, centroids)
    np.testing.assert_array_equal(model.assignment, assignment)
    assert model.cost_history == cost_history


# a coarse grid makes duplicate points, equal distances and empty clusters common
_grid_points = st.integers(1, 7).flatmap(
    lambda d: st.lists(
        st.tuples(*[st.sampled_from([-1.5, 0.0, 0.25, 1.0, 3.0])] * d),
        min_size=1,
        max_size=25,
    )
)


class TestKMeansMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        points=_grid_points,
        k_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        max_iter=st.integers(1, 20),
        n_init=st.integers(1, 3),
    )
    @example(points=[(1.0, 1.0)] * 6, k_frac=0.5, seed=0, max_iter=100, n_init=10)
    def test_grid_points(self, points, k_frac, seed, max_iter, n_init):
        k = 1 + int(k_frac * (len(points) - 1))
        model = kmeans_fit(points, k=k, seed=seed, max_iter=max_iter, n_init=n_init)
        assert_same_model(model, reference_kmeans_fit(points, k, seed, max_iter, n_init))

    def test_empty_cluster_reseeding(self):
        points = [(0.0, 0.0)] * 5 + [(2.0, 1.0)] * 3
        reseeds: list[int] = []
        want = reference_kmeans_fit(points, 4, seed=3, n_init=2, reseeds=reseeds)
        assert reseeds  # the reference took the re-seeding branch
        assert_same_model(kmeans_fit(points, k=4, seed=3, n_init=2), want)

    @pytest.mark.parametrize("seed", range(5))
    def test_desk_sized_plane(self, seed):
        pts = np.random.default_rng(seed).normal(size=(400, 2))
        model = kmeans_fit(pts, k=30, seed=seed, max_iter=20, n_init=2)
        assert_same_model(model, reference_kmeans_fit(pts, 30, seed, 20, 2))

    @pytest.mark.parametrize("d", [8, 20])
    @pytest.mark.parametrize("seed", range(3))
    def test_high_dimension_assignments(self, d, seed):
        # from d = 8 numpy sums the (n, k, d) broadcast pairwise, so the
        # distances may differ in the last bit; the partition must not
        pts = np.random.default_rng(seed).normal(size=(200, d))
        model = kmeans_fit(pts, k=12, seed=seed, max_iter=20, n_init=2)
        centroids, assignment, costs = reference_kmeans_fit(pts, 12, seed, 20, 2)
        np.testing.assert_array_equal(model.assignment, assignment)
        np.testing.assert_allclose(model.centroids, centroids, rtol=1e-12)
        np.testing.assert_allclose(model.cost_history, costs, rtol=1e-12)


class TestKMeansLowDimensionMatchesReference:
    """1-D and 2-D inputs, where the assignment comes from a k-d tree over the centroids."""

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 2]),
        n=st.integers(50, 600),
        k_frac=st.floats(0.0, 1.0),
        spread=st.sampled_from([1e-3, 1.0, 37.5, 1e4]),
        copies=st.integers(0, 10),
        cloud_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=1, n=300, k_frac=0.0, spread=1.0, copies=0, cloud_seed=0, seed=0)
    def test_gaussian_clouds(self, d, n, k_frac, spread, copies, cloud_seed, seed):
        # in 1-D the clusters are large enough for a pairwise sum to round differently
        rng = np.random.default_rng(cloud_seed)
        pts = rng.normal(size=(n, d)) * spread + rng.normal(size=d)
        # overwrite a few points with copies of others: duplicates meet equal distances
        pts[rng.integers(n, size=copies)] = pts[rng.integers(n, size=copies)]
        k = 1 + int(k_frac * (n // 4 - 1))
        model = kmeans_fit(pts, k=k, seed=seed, max_iter=20, n_init=2)
        assert_same_model(model, reference_kmeans_fit(pts, k, seed, 20, 2))

    @pytest.mark.parametrize("seed", [0, 2, 3, 4])  # seeds that pick (-1, 0) and (1, 0)
    def test_equidistant_point_goes_to_the_first_centroid(self, seed):
        points = [(-1.0, 0.0)] * 3 + [(1.0, 0.0)] * 3 + [(0.0, 0.0)]
        seeded, _, _ = reference_lloyd_once(np.array(points), 2, np.random.default_rng(seed),
                                            0, [])
        assert sorted(map(tuple, seeded.tolist())) == [(-1.0, 0.0), (1.0, 0.0)]
        first = kmeans_fit(points, k=2, seed=seed, max_iter=1, n_init=1)
        assert first.assignment[-1] == 0  # the tied point, by the lowest index
        assert_same_model(first, reference_kmeans_fit(points, 2, seed, 1, 1))
        assert_same_model(kmeans_fit(points, k=2, seed=seed, n_init=1),
                          reference_kmeans_fit(points, 2, seed, n_init=1))

    @pytest.mark.parametrize("seed", range(3))
    def test_empty_cluster_in_a_cloud(self, seed):
        # once the seeding has covered every distinct point, the remaining
        # centroids are drawn uniformly, duplicate others and leave clusters empty
        pts = np.random.default_rng(seed).normal(size=(40, 2))
        pts = np.vstack([pts, np.full((30, 2), 5.0)])
        reseeds: list[int] = []
        want = reference_kmeans_fit(pts, 45, seed, 20, 2, reseeds=reseeds)
        assert reseeds
        assert_same_model(kmeans_fit(pts, k=45, seed=seed, max_iter=20, n_init=2), want)

    def test_non_finite_points_take_the_table(self):
        pts = np.random.default_rng(5).normal(size=(30, 2))
        pts[3] = (np.inf, 0.0)
        with np.errstate(invalid="ignore"):
            centroids, assignment, costs = reference_kmeans_fit(pts, 4, 1, 20, 2)
            model = kmeans_fit(pts, k=4, seed=1, max_iter=20, n_init=2)
        np.testing.assert_array_equal(model.centroids, centroids)
        np.testing.assert_array_equal(model.assignment, assignment)
        np.testing.assert_array_equal(model.cost_history, costs)  # NaN where the reference has one

    @pytest.mark.parametrize("scale", [1e160, 1e-155, 1e-162])
    def test_squared_distances_that_overflow_or_go_subnormal(self, scale):
        pts = np.random.default_rng(6).normal(size=(60, 2)) * scale
        with np.errstate(over="ignore", under="ignore"):
            want = reference_kmeans_fit(pts, 6, 2, 20, 2)
            model = kmeans_fit(pts, k=6, seed=2, max_iter=20, n_init=2)
        assert_same_model(model, want)


class TestKMeans:
    SQUARE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]

    def test_k1_centroid_is_mean(self):
        model = kmeans_fit(self.SQUARE, k=1, seed=0)
        np.testing.assert_allclose(model.centroids[0], [0.5, 0.5])

    def test_k_equals_n(self):
        model = kmeans_fit(self.SQUARE, k=4, seed=0)
        assert model.cost_history[-1] == pytest.approx(0.0)
        assert len(set(model.assignment.tolist())) == 4

    @pytest.mark.parametrize("seed", range(5))
    def test_square_matches_brute_force(self, seed):
        model = kmeans_fit(self.SQUARE, k=2, seed=seed)
        assert model.cost_history[-1] == pytest.approx(_brute_force_best_2partition(self.SQUARE))

    def test_cost_monotone(self):
        rng = np.random.default_rng(42)
        pts = rng.normal(size=(60, 2))
        model = kmeans_fit(pts, k=5, seed=1)
        hist = model.cost_history
        assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))

    @pytest.mark.parametrize("max_iter, n_init, name", [
        (0, 1, "max_iter"), (0, 2, "max_iter"), (-1, 1, "max_iter"),
        (5, 0, "n_init"), (5, -3, "n_init"),
    ])
    def test_refuses_no_iteration_or_no_restart(self, max_iter, n_init, name):
        pts = np.random.default_rng(0).random((10, 2))
        with pytest.raises(ValueError, match=name):
            kmeans_fit(pts, 3, 0, max_iter=max_iter, n_init=n_init)

    def test_too_few_points(self):
        with pytest.raises(PhonoprepError, match=r"^need k in \[1, 4\], got 5$"):
            kmeans_fit(self.SQUARE, k=5, seed=0)

    @pytest.mark.parametrize("k", [0, -1, True, 2.0, 2.5, "2"])
    def test_refuses_a_k_that_is_no_count(self, k):
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            kmeans_fit(self.SQUARE, k=k, seed=0)

    def test_duplicate_points_ok(self):
        pts = [(1.0, 1.0)] * 6
        model = kmeans_fit(pts, k=3, seed=0)
        assert model.cost_history[-1] == pytest.approx(0.0)


class TestEncodeWithClusters:
    MODEL = ClusterModel(assignment={"red": "G1", "green": "G1", "blue": "G2"}, seed=0, source="uniform-k")

    def test_known_tokens(self):
        assert encode_with_clusters(["red", "blue", "green"], self.MODEL) == ["G1", "G2", "G1"]

    def test_unknown_token(self):
        assert encode_with_clusters(["purple"], self.MODEL) == ["G_UNK"]

    def test_mapping_consistency(self):
        assert encode_with_clusters(["red", "red"], self.MODEL) == ["G1", "G1"]


# any token str.split() can produce, '#'-prefixed ones made common
_unit = st.one_of(
    st.text(min_size=1, max_size=6),
    st.text(max_size=5).map(lambda t: "#" + t),
).filter(lambda t: t.split() == [t])


class TestModelFile:
    def test_round_trip(self, tmp_path):
        units = [f"w{i}" for i in range(9)]
        model = random_cluster_uniform(units, fraction=0.3, seed=11)
        path = tmp_path / "clusters.tsv"
        save_cluster_model(model, path)
        loaded = load_cluster_model(path)
        assert loaded == model

    def test_header_metadata(self, tmp_path):
        model = random_cluster_uniform(["a", "b"], fraction=0.5, seed=99)
        path = tmp_path / "clusters.tsv"
        save_cluster_model(model, path)
        text = path.read_text(encoding="utf-8")
        assert "# seed: 99" in text
        assert "# source: uniform-k" in text

    def test_units_starting_with_hash(self, tmp_path):
        model = ClusterModel(assignment={"#": "G1", "#tag": "G2", "#seed:": "G1", "a#": "G2"},
                             seed=5, source="uniform-k")
        path = tmp_path / "clusters.tsv"
        save_cluster_model(model, path)
        loaded = load_cluster_model(path)
        assert loaded == model
        assert encode_with_clusters(["#tag"], loaded) == ["G2"]

    @settings(max_examples=200, deadline=None)
    @given(
        assignment=st.dictionaries(_unit, _unit, min_size=1, max_size=12),
        seed=st.integers(0, 2**63 - 1),
        source=st.sampled_from(["baseline-derived", "uniform-k"]),
    )
    def test_round_trip_any_split_token(self, tmp_path_factory, assignment, seed, source):
        model = ClusterModel(assignment=assignment, seed=seed, source=source)
        path = tmp_path_factory.mktemp("clusters") / "clusters.tsv"
        save_cluster_model(model, path)
        assert load_cluster_model(path) == model

    @pytest.mark.parametrize("row,message", [
        ("a\t", "cluster id must be one token, got ''"),  # "a" would drop out of its line
        ("a\tG 1", "cluster id must be one token"),  # one token would become two
        ("a\tG1\tG2", "cluster id must be one token"),
        ("# seed: abc", "seed must be an integer >= 0, got 'abc'"),
        ("# seed: -1", "seed must be an integer >= 0"),
        ("\tG1", "unit must be one token, got ''"),
        ("a b\tG1", "unit must be one token, got 'a b'"),
        ("a\x1cb\tG1", "unit must be one token"),  # str.split() whitespace
        ("b\tG3", "unit 'b' is listed twice"),
    ])
    def test_malformed_row_is_refused_by_line(self, tmp_path, row, message):
        path = tmp_path / "clusters.tsv"
        path.write_text(f"# source: uniform-k\nb\tG2\n{row}\n", encoding="utf-8")
        with pytest.raises(PhonoprepError, match=f"^{re.escape(f'{path}:3: {message}')}"):
            load_cluster_model(path)
