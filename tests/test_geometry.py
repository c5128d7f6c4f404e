"""Geometry analysis tests: hulls, PCA, gamma, density, embeddings."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from phonoprep.errors import PhonoprepError
from phonoprep.geometry import (
    EmbeddingTable,
    HullParams,
    _unit_rows,
    concentration_factor,
    convex_hull,
    cooccurrence_counts,
    coverage_curve,
    density_measure,
    group_points,
    load_embeddings,
    pca_project,
    polygon_area,
    ppmi,
    save_embeddings,
    smooth_hull,
    train_embeddings,
    volume_cdf,
)

SQUARE = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
DESK_CORPUS = Path(__file__).parent.parent / "data" / "desk_en.txt"


def reference_cooccurrence_counts(corpus, window: int = 5):
    """Naive counter: one Python pair tuple per co-occurrence, both directions."""
    sentences = [line.split() for line in corpus if line.split()]
    freq = Counter(tok for sent in sentences for tok in sent)
    vocab = sorted(freq, key=lambda w: (-freq[w], w))
    index = {w: i for i, w in enumerate(vocab)}
    pair_counts: Counter[tuple[int, int]] = Counter()
    for sent in sentences:
        ids = [index[t] for t in sent]
        for i, a in enumerate(ids):
            for b in ids[i + 1:i + 1 + window]:
                pair_counts[(a, b)] += 1
                pair_counts[(b, a)] += 1
    n = len(vocab)
    if pair_counts:
        rows, cols = zip(*pair_counts)
        data = np.fromiter(pair_counts.values(), dtype=float, count=len(pair_counts))
        return vocab, csr_matrix((data, (rows, cols)), shape=(n, n))
    return vocab, csr_matrix((n, n))


def assert_same_csr(got: csr_matrix, want: csr_matrix) -> None:
    assert got.shape == want.shape
    assert got.has_canonical_format and want.has_canonical_format
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def brute_force_hull_area(points: np.ndarray) -> float:
    """Independent oracle: max shoelace area over all vertex subsets in order.

    For point sets of modest size, the hull area equals the maximum area of
    any convex polygon formed by the points; enumerate subsets, order them
    by angle around the centroid, keep those forming a convex polygon.
    """
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    n = len(pts)
    if n < 3:
        return 0.0
    best = 0.0
    for size in range(3, n + 1):
        for subset in combinations(range(n), size):
            sub = pts[list(subset)]
            center = sub.mean(axis=0)
            angles = np.arctan2(sub[:, 1] - center[1], sub[:, 0] - center[0])
            ordered = sub[np.argsort(angles)]
            area = polygon_area(ordered)
            best = max(best, area)
    return best


def reference_convex_hull(points) -> np.ndarray:
    """Monotone chain over np.unique rows, with a cross-product helper on array rows."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if len(pts) <= 2:
        return pts
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[np.ndarray] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[np.ndarray] = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


# a coarse grid gives duplicates and collinear runs; the odd coordinates
# make cross products that round
_hull_coordinate = st.sampled_from([-2.0, -1.0, 0.0, 0.1, 0.3, 1.0, 1.5, 2.0, 1e-3, 7.0 / 3.0])
_hull_points = st.lists(st.tuples(_hull_coordinate, _hull_coordinate), min_size=1, max_size=40)


class TestHull:
    def test_unit_square(self):
        metrics = smooth_hull(SQUARE)
        assert metrics.volume == pytest.approx(1.0)
        assert len(metrics.vertices) == 4

    def test_triangle_shoelace(self):
        metrics = smooth_hull([(0, 0), (1, 0), (0, 1)])
        assert metrics.volume == pytest.approx(0.5)

    def test_interior_points_ignored(self):
        pts = np.vstack([SQUARE, [[0.5, 0.5], [0.25, 0.75]]])
        assert smooth_hull(pts).volume == pytest.approx(1.0)

    def test_collinear_is_degenerate(self):
        metrics = smooth_hull([(0, 0), (1, 1), (2, 2)])
        assert metrics.volume == 0.0
        assert metrics.degenerate

    def test_counter_clockwise_orientation(self):
        verts = smooth_hull(SQUARE).vertices
        x, y = verts[:, 0], verts[:, 1]
        signed = (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) / 2
        assert signed > 0

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(1234)
        for trial in range(1000):
            n = rng.integers(1, 9)
            pts = rng.normal(size=(n, 2))
            got = smooth_hull(pts).volume
            want = brute_force_hull_area(pts)
            assert got == pytest.approx(want, abs=1e-9), f"trial {trial}"

    @settings(max_examples=400, deadline=None)
    @given(points=_hull_points, line=st.integers(0, 12))
    @example(points=[(0.0, 0.0)] * 3, line=0)
    @example(points=[(1.0, 1.0), (0.0, 0.0), (1.0, 1.0), (2.0, 2.0)], line=0)
    def test_vertices_match_reference(self, points, line):
        # ``line`` more points on the x = y diagonal make a longer collinear run
        pts = np.array(points + [(0.1 * i, 0.1 * i) for i in range(line)])
        got = convex_hull(pts)
        want = reference_convex_hull(pts)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("points", [
        [[0.0], [1.0], [5.0]], [[0, 0, 0], [1, 0, 0], [0, 1, 9]], np.zeros((0, 2)),
    ])
    def test_points_must_be_2d(self, points):
        with pytest.raises(ValueError, match="2-D points"):
            smooth_hull(points)


class TestSmoothing:
    def test_no_removal_when_beta_low(self):
        metrics = smooth_hull(SQUARE, HullParams(beta=1, radius=2.0))
        assert metrics.removed_outliers == 0
        assert metrics.volume == pytest.approx(1.0)

    def test_outlier_removed(self):
        pts = np.vstack([SQUARE, [[50.0, 50.0]]])
        metrics = smooth_hull(pts, HullParams(beta=1, radius=2.0))
        assert metrics.removed_outliers == 1
        assert metrics.volume == pytest.approx(1.0)

    def test_fractional_beta(self):
        # beta=0.5 with 5 points needs 2.5 other points in the ball
        pts = np.vstack([SQUARE, [[50.0, 50.0]]])
        metrics = smooth_hull(pts, HullParams(beta=0.5, radius=2.0))
        assert metrics.removed_outliers == 1

    def test_all_points_removed(self):
        pts = [(0, 0), (10, 10), (20, 20)]
        metrics = smooth_hull(pts, HullParams(beta=2, radius=1.0))
        assert metrics.vertices.shape == (0, 2)
        assert metrics.volume == 0.0
        assert metrics.removed_outliers == 3
        assert metrics.degenerate

    @pytest.mark.parametrize("field", ["beta", "radius"])
    @pytest.mark.parametrize("value", [0, -1.0, float("nan"), float("inf"), float("-inf")])
    def test_params_must_be_finite_and_positive(self, field, value):
        params = {"beta": 1, "radius": 2.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            HullParams(**params)


class TestCoverage:
    def test_single_group(self):
        curve = coverage_curve([SQUARE], order_seed=0)
        assert curve == [(1, pytest.approx(1.0))]

    def test_identical_groups_plateau(self):
        curve = coverage_curve([SQUARE, SQUARE.copy()], order_seed=0)
        assert curve[0][1] == pytest.approx(curve[1][1])

    def test_nested_squares_strictly_increasing(self):
        inner = SQUARE
        outer = SQUARE * 2.0
        # force inner-first by trying seeds until permutation is (inner, outer)
        for seed in range(20):
            curve = coverage_curve([inner, outer], order_seed=seed)
            if curve[0][1] == pytest.approx(1.0):
                assert curve[1][1] == pytest.approx(4.0)
                return
        pytest.fail("no seed put the inner square first")

    def test_monotone_without_smoothing(self):
        rng = np.random.default_rng(5)
        groups = [rng.normal(size=(6, 2)) for _ in range(8)]
        curve = coverage_curve(groups, order_seed=3)
        vols = [v for _, v in curve]
        assert all(b >= a - 1e-12 for a, b in zip(vols, vols[1:]))

    def test_step_whose_points_smoothing_removes_has_volume_zero(self):
        # the pair's two points have no neighbour within the radius: alone in the
        # pool they are all removed, as a group of them is in ``volume_cdf``
        pair = np.array([(50.0, 50.0), (80.0, 80.0)])
        params = HullParams(beta=1, radius=2.0)
        assert coverage_curve([pair], order_seed=0, params=params) == [(1, 0.0)]
        curves = {tuple(coverage_curve([pair, SQUARE], order_seed=seed, params=params))
                  for seed in range(10)}
        assert curves == {((1, 0.0), (2, 1.0)), ((1, 1.0), (2, 1.0))}


class TestVolumeCdf:
    def test_singleton_groups_step_at_zero(self):
        groups = [np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]])]
        cdf = volume_cdf(groups)
        assert cdf == [(0.0, 0.5), (0.0, 1.0)]

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_every_group_needs_2d_points(self, size):
        # a group too small for an area meets the hull's 2-D rule all the same
        with pytest.raises(ValueError, match="2-D points"):
            volume_cdf([np.arange(size, dtype=float).reshape(size, 1)])

    def test_two_groups(self):
        half = np.array([(0, 0), (1, 0), (0, 1)], dtype=float)
        cdf = volume_cdf([SQUARE, half])
        assert cdf[0] == (pytest.approx(0.5), 0.5)
        assert cdf[1] == (pytest.approx(1.0), 1.0)


class TestGamma:
    def test_single_group_is_zero(self):
        rng = np.random.default_rng(0)
        report = concentration_factor([rng.normal(size=(10, 2))])
        assert report.gamma == pytest.approx(0.0)

    def test_hand_example(self):
        groups = [
            np.array([(0.0, 0.0), (2.0, 0.0)]),
            np.array([(0.0, 2.0), (2.0, 2.0)]),
        ]
        report = concentration_factor(groups)
        assert report.gamma == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(report.centroids, [[1.0, 0.0], [1.0, 2.0]])

    def test_zero_dispersion(self):
        groups = [np.array([(0.0, 0.0), (0.0, 0.0)]), np.array([(5.0, 5.0)])]
        with pytest.raises(PhonoprepError, match="^every group is a single repeated point$"):
            concentration_factor(groups)

    def test_tight_groups_have_larger_gamma(self):
        rng = np.random.default_rng(7)
        centers = rng.uniform(-10, 10, size=(6, 2))
        tight = [c + 0.01 * rng.normal(size=(20, 2)) for c in centers]
        loose = [c + 5.0 * rng.normal(size=(20, 2)) for c in centers]
        assert concentration_factor(tight).gamma > concentration_factor(loose).gamma


class TestDensity:
    def _groups(self, rng, n_groups=8, per_group=12, spread=1.0):
        return [rng.uniform(-5, 5, size=(per_group, 2)) * spread for _ in range(n_groups)]

    def test_requires_five_groups(self):
        rng = np.random.default_rng(0)
        with pytest.raises(PhonoprepError, match="^need >= 5 groups, got 4$"):
            density_measure(rng.normal(size=(30, 2)), self._groups(rng)[:4], seed=0)

    def test_monotone_in_neighbor_index(self):
        rng = np.random.default_rng(3)
        groups = self._groups(rng)
        pts = np.vstack(groups)
        report = density_measure(pts, groups, neighbor_index=3, m=2000, seed=5)
        assert report.max_density[1] <= report.max_density[2] <= report.max_density[3]
        assert report.mean_density[1] <= report.mean_density[2] <= report.mean_density[3]

    def test_single_reference_point_oracle(self):
        # reference collapses to one location: every sample measures the
        # distance to that point; cross-check against a direct loop
        center = np.array([0.5, 0.5])
        groups = [np.array([center])] * 5
        report = density_measure(SQUARE, groups, neighbor_index=1, m=256, threshold=0.0, seed=9)
        rng = np.random.default_rng(9)
        rng.choice(5, size=5, replace=False)  # replay group choice
        corners = smooth_hull(SQUARE).vertices
        total = 0.0
        biggest = 0.0
        for _ in range(report.samples_used // 64):
            q = rng.random((64, len(corners)))
            w = q / q.sum(axis=1, keepdims=True)
            samples = w @ corners
            d = np.linalg.norm(samples - center, axis=1)
            total += d.sum()
            biggest = max(biggest, d.max())
        assert report.sum_density[1] == pytest.approx(total)
        assert report.max_density[1] == pytest.approx(biggest)

    def test_denser_reference_gives_smaller_density(self):
        rng = np.random.default_rng(11)
        box = rng.uniform(0, 1, size=(400, 2))
        sparse_groups = [box[i::40][:5] for i in range(5)]
        dense_groups = [box[i::5] for i in range(5)]
        pts = box
        sparse = density_measure(pts, sparse_groups, neighbor_index=1, m=4000, seed=2)
        dense = density_measure(pts, dense_groups, neighbor_index=1, m=4000, seed=2)
        assert dense.mean_density[1] < sparse.mean_density[1]

    @pytest.mark.parametrize("m", [0, -1, True, 2.0, 2.5])
    def test_rejects_an_empty_sample_budget(self, m):
        rng = np.random.default_rng(1)
        groups = self._groups(rng)
        with pytest.raises(ValueError, match="m must be an integer >= 1"):
            density_measure(np.vstack(groups), groups, m=m, seed=0)

    def test_budget_respected(self):
        rng = np.random.default_rng(1)
        groups = self._groups(rng)
        report = density_measure(np.vstack(groups), groups, m=128, threshold=0.0, seed=0)
        assert report.samples_used <= 128


class TestGroupPoints:
    def test_one_group_per_code(self):
        projected = {"body": np.array([0.0, 0.0]), "but": np.array([1.0, 0.0]),
                     "bad": np.array([0.0, 1.0])}
        encoding = {"body": "B300", "but": "B300", "bad": "B300"}
        groups = group_points(projected, encoding)
        assert len(groups) == 1
        assert len(groups[0]) == 3

    def test_bijective_encoding(self):
        projected = {c: np.array([float(i), 0.0]) for i, c in enumerate("abc")}
        encoding = {c: c.upper() for c in "abc"}
        groups = group_points(projected, encoding)
        assert [len(g) for g in groups] == [1, 1, 1]

    def test_missing_units_skipped(self):
        projected = {"a": np.array([0.0, 0.0])}
        encoding = {"a": "X", "b": "X", "c": "Y"}
        groups = group_points(projected, encoding)
        assert sum(len(g) for g in groups) == 1


class TestPca:
    def test_isometric_recovery(self):
        rng = np.random.default_rng(21)
        plane = rng.normal(size=(12, 2))
        embedded = np.zeros((12, 6))
        embedded[:, :2] = plane
        table = EmbeddingTable(
            dimension=6, vectors={f"w{i}": embedded[i] for i in range(12)}
        )
        _, projected = pca_project(table)
        got = np.array([projected[f"w{i}"] for i in range(12)])
        want = plane - plane.mean(axis=0)
        d_got = np.linalg.norm(got[:, None] - got[None, :], axis=2)
        d_want = np.linalg.norm(want[:, None] - want[None, :], axis=2)
        np.testing.assert_allclose(d_got, d_want, atol=1e-9)

    def test_collinear_second_component_zero(self):
        line = np.arange(10.0)
        vectors = {f"w{i}": np.array([x, 2 * x, 0.0]) for i, x in enumerate(line)}
        table = EmbeddingTable(dimension=3, vectors=vectors)
        _, projected = pca_project(table)
        second = np.array([projected[u][1] for u in projected])
        assert np.allclose(second, 0.0, atol=1e-9)

    def test_pc1_beats_any_axis(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(5, 4)) * np.array([3.0, 1.0, 0.5, 0.2])
        table = EmbeddingTable(dimension=4, vectors={f"w{i}": pts[i] for i in range(5)})
        _, projected = pca_project(table)
        coords = np.array([projected[u] for u in sorted(projected)])
        axis_vars = (pts - pts.mean(axis=0)).var(axis=0)
        assert coords[:, 0].var() >= axis_vars.max() - 1e-12

    def test_components_orthonormal(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(20, 7))
        table = EmbeddingTable(dimension=7, vectors={f"w{i}": pts[i] for i in range(20)})
        projection, projected = pca_project(table)
        gram = projection.components @ projection.components.T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-9)
        centroid = np.mean([projected[u] for u in projected], axis=0)
        np.testing.assert_allclose(centroid, [0.0, 0.0], atol=1e-9)

    def test_degenerate_data(self):
        vectors = {f"w{i}": np.ones(4) for i in range(5)}
        table = EmbeddingTable(dimension=4, vectors=vectors)
        with pytest.raises(PhonoprepError, match="^all embedding vectors identical$"):
            pca_project(table)


class TestEmbeddings:
    def test_identical_contexts_near_identical_vectors(self):
        corpus = ["left xx right", "left yy right"] * 30
        table = train_embeddings(corpus, d=4, window=2, seed=0)
        a, b = table.vectors["xx"], table.vectors["yy"]
        cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        assert cos > 0.99

    def test_full_rank_reconstruction(self):
        corpus = ["a b c a b", "c a b c c b a"]
        vocab, counts = cooccurrence_counts(corpus, window=2)
        weights = ppmi(counts).toarray()
        u, s, vt = np.linalg.svd(weights)
        np.testing.assert_allclose(u @ np.diag(s) @ vt, weights, atol=1e-9)

    def test_two_topic_corpus_separation(self):
        rng = np.random.default_rng(4)
        topics = {
            "sport": ["goal", "team", "match", "score", "coach"],
            "food": ["bread", "salt", "oven", "flour", "spice"],
        }
        lines = []
        for _ in range(300):
            words = topics["sport"] if rng.random() < 0.5 else topics["food"]
            lines.append(" ".join(rng.choice(words, size=6)))
        table = train_embeddings(lines, d=4, window=3, seed=0)

        def cos(a, b):
            va, vb = table.vectors[a], table.vectors[b]
            return va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb) + 1e-12)

        within, across = [], []
        for group in topics.values():
            within += [cos(a, b) for a, b in combinations(group, 2)]
        for a in topics["sport"]:
            across += [cos(a, b) for b in topics["food"]]
        assert np.mean(within) > np.mean(across)

    def test_seed_determinism(self):
        corpus = ["some words here repeat some words there"] * 10
        t1 = train_embeddings(corpus, d=3, window=2, seed=5)
        t2 = train_embeddings(corpus, d=3, window=2, seed=5)
        for u in t1.vectors:
            np.testing.assert_array_equal(t1.vectors[u], t2.vectors[u])

    def test_dimension_reduced_with_warning(self):
        with pytest.warns(UserWarning):
            table = train_embeddings(["a b a b"], d=50, window=2, seed=0)
        assert table.dimension == 2

    @pytest.mark.parametrize("corpus, window", [
        (["the cat sat", "a dog ran"], 0),           # no pair within the window
        (["a", "b", "c"], 5),                        # one token per line
        (["a a", "a a a"], 5),                       # one type: PMI 0, stored as an explicit zero
    ])
    def test_no_positive_ppmi_is_refused(self, corpus, window):
        assert not (ppmi(cooccurrence_counts(corpus, window=window)[1]).toarray() > 0).any()
        with pytest.raises(PhonoprepError, match="above chance"):
            train_embeddings(corpus, d=2, window=window, seed=0)


# the desk embedding and its noise stream (TestDeskStreamsArePinned's spec)
DESK_EMBEDDING_AND_NOISE = """
import hashlib, json, sys
from pathlib import Path
import numpy as np
from phonoprep.augment import NoiseSpec, noise_augment
from phonoprep.geometry import train_embeddings

lines = Path(sys.argv[1]).read_text(encoding="utf-8").splitlines()
table = train_embeddings(lines, d=100, window=5, seed=7, normalize=True)
units, matrix = table.matrix()
np.save(sys.argv[2], matrix)
stats = {}
out = noise_augment(lines, table, NoiseSpec(0.2, 10, 11), stats_out=stats)
print(json.dumps({"units": units, "replaced_tokens": stats["replaced_tokens"],
                  "noise": hashlib.sha256("\\n".join(out).encode("utf-8")).hexdigest()}))
"""


def test_blas_thread_count_moves_only_the_embeddings_last_bits(tmp_path):
    # each OpenBLAS thread count may sum the solver's products in its own order:
    # the vectors then differ by rounding, and the noise drawn from them must not
    one, two = (json.loads(subprocess.run(
        [sys.executable, "-c", DESK_EMBEDDING_AND_NOISE, str(DESK_CORPUS),
         str(tmp_path / f"{threads}.npy")], env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
        capture_output=True, text=True, check=True).stdout) for threads in ("1", "2"))
    assert one["units"] == two["units"]
    gap = np.abs(np.load(tmp_path / "1.npy") - np.load(tmp_path / "2.npy")).max()
    assert gap <= 1e-9
    assert (one["replaced_tokens"], one["noise"]) == (two["replaced_tokens"], two["noise"])


class TestUnitRows:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32),
        st.floats(min_value=0.0, max_value=0.5),
    )
    @example(rows=129, cols=3, seed=0, zeros=1.0)
    def test_in_place_rows_equal_the_whole_matrix_division(self, rows, cols, seed, zeros):
        rng = np.random.default_rng(seed)
        # rows of every scale, and some all-zero ones
        m = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-100, 100, size=(rows, 1))
        m[rng.random(rows) < zeros] = 0.0
        m0 = m.copy()
        n = np.linalg.norm(m0, axis=1)
        assert _unit_rows(m) is m
        assert m.tobytes() == (m0 / np.where(n == 0, 1.0, n)[:, None]).tobytes()


_token = st.sampled_from(["a", "b", "c", "dd", "e9", "Ω"])
_corpus = st.lists(
    st.lists(_token, max_size=12).map(" ".join) | st.sampled_from(["", "  ", "\t"]),
    min_size=1,
    max_size=8,
)


class TestCooccurrenceCounts:
    @settings(max_examples=300, deadline=None)
    @given(corpus=_corpus, window=st.integers(0, 7))
    @example(corpus=["a"], window=5)
    @example(corpus=["a b", "", "b a a"], window=1)
    def test_matches_reference(self, corpus, window):
        if not any(line.split() for line in corpus):
            with pytest.raises(PhonoprepError, match="^corpus has no tokens$"):
                cooccurrence_counts(corpus, window=window)
            return
        vocab, matrix = cooccurrence_counts(corpus, window=window)
        want_vocab, want = reference_cooccurrence_counts(corpus, window=window)
        assert vocab == want_vocab
        assert_same_csr(matrix, want)

    @settings(max_examples=200, deadline=None)
    @given(corpus=_corpus, window=st.integers(0, 7))
    def test_ppmi_is_exactly_symmetric(self, corpus, window):
        # train_embeddings hands svds the PPMI matrix as its own adjoint
        if not any(line.split() for line in corpus):
            return
        weights = ppmi(cooccurrence_counts(corpus, window=window)[1])
        assert_same_csr(weights, weights.T.tocsr())

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            cooccurrence_counts(["a b c d e"], window=-2)

    def test_desk_corpus_matches_reference(self):
        lines = DESK_CORPUS.read_text(encoding="utf-8").splitlines()
        vocab, matrix = cooccurrence_counts(lines, window=5)
        want_vocab, want = reference_cooccurrence_counts(lines, window=5)
        assert vocab == want_vocab
        assert matrix.nnz == 601302
        assert_same_csr(matrix, want)


class TestCooccurrenceMemory:
    def test_desk_counts_stay_under_40_mb(self):
        # one key per ordered occurrence: about 25 MB here, where counting
        # both directions from per-sentence token lists took 60 MB
        lines = DESK_CORPUS.read_text(encoding="utf-8").splitlines()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cooccurrence_counts(lines, window=5)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20


# any token str.split() can produce, with number-like and '#'-prefixed ones made common
_unit = st.one_of(
    st.text(min_size=1, max_size=6),
    st.sampled_from(["1.5", "nan", "-inf", "#", "#x", "é"]),
).filter(lambda t: t.split() == [t])


class TestEmbeddingTable:
    @pytest.mark.parametrize("vec", [np.array(1.0), np.zeros(3), np.zeros((1, 2))],
                             ids=["0-d", "3", "1x2"])
    def test_vector_of_another_shape_is_named_with_its_unit(self, vec):
        # a 0-d vector once raised IndexError from reading its shape
        shape = re.escape(str(vec.shape))
        with pytest.raises(PhonoprepError, match=rf"^vector for 'w' has shape {shape}, expected"):
            EmbeddingTable(dimension=2, vectors={"v": np.zeros(2), "w": vec})


class TestEmbeddingFile:
    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(1, 4), data=st.data())
    def test_round_trip_property(self, tmp_path_factory, d, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)  # EmbeddingTable refuses others
        vectors = data.draw(st.dictionaries(
            _unit, st.lists(finite, min_size=d, max_size=d).map(np.array),
            min_size=1, max_size=10))
        path = tmp_path_factory.mktemp("vec") / "vec.txt"
        save_embeddings(EmbeddingTable(dimension=d, vectors=vectors), path)
        loaded = load_embeddings(path)
        assert loaded.dimension == d
        assert sorted(loaded.vectors) == sorted(vectors)
        for unit, vec in vectors.items():
            assert loaded.vectors[unit].tobytes() == vec.tobytes()

    def test_round_trip(self, tmp_path):
        table = train_embeddings(["one two three two one"] * 3, d=2, window=2, seed=0)
        path = tmp_path / "vec.txt"
        save_embeddings(table, path)
        loaded = load_embeddings(path)
        assert loaded.dimension == table.dimension
        for u in table.vectors:
            np.testing.assert_allclose(loaded.vectors[u], table.vectors[u])

    def test_basic_format(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("w1 0.5 1.5\nw2 -1 2\nw3 0 0\n", encoding="utf-8")
        table = load_embeddings(path)
        assert table.dimension == 2
        np.testing.assert_allclose(table.vectors["w2"], [-1.0, 2.0])

    def test_dimension_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("w1 0.5 1.5\nw2 1.0\n", encoding="utf-8")
        with pytest.raises(PhonoprepError, match=r"vec\.txt:2: expected 2 components, got 1$"):
            load_embeddings(path)

    def test_malformed_float(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("w1 0.5 oops\n", encoding="utf-8")
        with pytest.raises(PhonoprepError, match=r"vec\.txt:1: could not convert .*'oops'$"):
            load_embeddings(path)

    def test_duplicate_last_wins(self, tmp_path, caplog):
        path = tmp_path / "vec.txt"
        path.write_text("w1 1 1\nw1 2 2\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            table = load_embeddings(path)
        np.testing.assert_allclose(table.vectors["w1"], [2.0, 2.0])
        assert "duplicate" in caplog.text
