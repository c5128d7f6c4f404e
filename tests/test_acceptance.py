"""Acceptance suite: one test per release criterion, run at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. The geometric checks use the bundled desk corpus
(data/desk_en.txt) with PPMI+SVD embeddings (d=100, unit-normalized)
projected to 2-D by PCA; group counts are equal across the three grouping
methods being compared.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from phonoprep.augment import (
    NoiseSpec,
    PerturbationSpec,
    _NeighborSampler,
    noise_augment,
    perturb_edit,
)
from phonoprep.clustering import (
    derive_size_distribution,
    kmeans_fit,
    random_cluster,
)
from phonoprep.encoders import (
    bundled_table_path,
    load_code_table,
    metaphone_encode,
    nysiis_encode,
    soundex_encode,
    table_encode,
)
from phonoprep.evaluate import bleu
from phonoprep.geometry import (
    concentration_factor,
    coverage_curve,
    density_measure,
    group_points,
    pca_project,
    polygon_area,
    smooth_hull,
    train_embeddings,
    volume_cdf,
)
from phonoprep.pipeline import PipelineConfig, run_pipeline
from phonoprep.subword import bpe_apply, bpe_decode, bpe_learn, save_bpe_model, token_counts

DATA = Path(__file__).parent / "data"
DESK_CORPUS = Path(__file__).parent.parent / "data" / "desk_en.txt"

TIMINGS: dict[str, float] = {}


def report(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS: {text}")


@pytest.fixture(scope="module")
def desk_lines() -> list[str]:
    return DESK_CORPUS.read_text(encoding="utf-8").splitlines()


@pytest.fixture(scope="module")
def desk_vocab(desk_lines) -> list[str]:
    return sorted({tok for line in desk_lines for tok in line.split()})


@pytest.fixture(scope="module")
def desk_projection(desk_lines):
    """d=100 PPMI+SVD embeddings (unit-normalized) with their 2-D PCA."""
    t0 = time.perf_counter()
    table = train_embeddings(desk_lines, d=100, window=5, seed=7, normalize=True)
    _, projected = pca_project(table)
    TIMINGS["embedding"] = time.perf_counter() - t0
    return table, projected


class TestCriterion1Codecs:
    def test_codec_conformance(self):
        t0 = time.perf_counter()
        # Soundex / Pinyin paper vectors
        for word in ("body", "but", "bad"):
            assert soundex_encode(word) == "B300"
        for word in ("speak", "space", "suppose"):
            assert soundex_encode(word) == "S120"
        for word in ("car", "care", "chair", "cherry", "choir", "cry", "crow", "core"):
            assert soundex_encode(word) == "C600"
        pinyin = load_code_table(bundled_table_path("pinyin"))
        for char in "笑校孝效":
            assert table_encode(char, pinyin) == ["xiao4"], char
        for char in "氏事市视":
            assert table_encode(char, pinyin) == ["shi4"], char

        # independently generated reference vectors, frozen before the build
        counts = {}
        rows = [r.split("\t") for r in
                (DATA / "soundex_vectors.tsv").read_text(encoding="utf-8").splitlines()]
        for word, expected in rows:
            assert soundex_encode(word) == expected, word
        counts["soundex"] = len(rows)
        rows = [r.split("\t") for r in
                (DATA / "nysiis_vectors.tsv").read_text(encoding="utf-8").splitlines()]
        for word, expected, expected6 in rows:
            assert nysiis_encode(word) == expected, word
            assert nysiis_encode(word)[:6] == expected6, word
        counts["nysiis"] = len(rows)
        rows = [r.split("\t") for r in
                (DATA / "metaphone_vectors.tsv").read_text(encoding="utf-8").splitlines()]
        for word, expected in rows:
            assert metaphone_encode(word) == expected, word
        counts["metaphone"] = len(rows)
        assert all(n >= 50 for n in counts.values())

        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"codec conformance took {elapsed:.2f}s"
        report(1, f"codec vectors {counts} in {elapsed:.2f}s")


class TestCriterion2RandomClustering:
    def test_size_fidelity_and_determinism(self, desk_vocab):
        t0 = time.perf_counter()
        units = desk_vocab[:5000]
        assert len(units) == 5000
        dist = derive_size_distribution(units, metaphone_encode)
        baseline_multiset = sorted(dist.multiplicities)
        for seed in range(10):
            model = random_cluster(units, dist, seed=seed)
            assert sorted(model.cluster_sizes()) == baseline_multiset
            again = random_cluster(units, dist, seed=seed)
            assert again.assignment == model.assignment
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"random clustering took {elapsed:.2f}s"
        report(2, f"5k-word multiset fidelity + determinism over 10 seeds "
                  f"in {elapsed:.2f}s")


class TestCriterion3HypothesisGeometry:
    N_COVERAGE_GROUPS = 12

    def test_directional_findings(self, desk_vocab, desk_projection):
        t0 = time.perf_counter()
        _, projected = desk_projection
        units = desk_vocab
        pts = np.array([projected[u] for u in units])

        phonetic_encoding = {u: metaphone_encode(u) for u in units}
        phonetic_groups = group_points(projected, phonetic_encoding)
        k = len(phonetic_groups)
        dist = derive_size_distribution(units, metaphone_encode)
        gamma_phonetic = concentration_factor(phonetic_groups).gamma

        km_groups_by_seed = {}
        rnd_groups_by_seed = {}
        for seed in range(5):
            km = kmeans_fit(pts, k=k, seed=seed, n_init=2)
            km_groups = [pts[km.assignment == j] for j in range(k)
                         if (km.assignment == j).any()]
            rnd = random_cluster(units, dist, seed=seed)
            rnd_groups = group_points(projected, rnd.assignment)
            km_groups_by_seed[seed] = km_groups
            rnd_groups_by_seed[seed] = rnd_groups

            # (a) concentration-factor ordering in every seeded run
            gamma_km = concentration_factor(km_groups).gamma
            gamma_rnd = concentration_factor(rnd_groups).gamma
            assert gamma_km > gamma_phonetic, f"seed {seed}"
            assert gamma_km > gamma_rnd, f"seed {seed}"

        # (b) volume CDF of K-Means lies left at >= 80% of deciles
        def decile_volumes(groups):
            vols = np.array([v for v, _ in volume_cdf(groups)])
            return np.quantile(vols, np.arange(0.1, 1.0, 0.1))

        d_km = decile_volumes(km_groups_by_seed[0])
        d_ph = decile_volumes(phonetic_groups)
        d_rnd = decile_volumes(rnd_groups_by_seed[0])
        frac_ph = float(np.mean(d_km < d_ph))
        frac_rnd = float(np.mean(d_km < d_rnd))
        assert frac_ph >= 0.8, f"K-Means left of phonetic at {frac_ph:.0%} of deciles"
        assert frac_rnd >= 0.8, f"K-Means left of random at {frac_rnd:.0%} of deciles"

        # (c) coverage curves dominate K-Means at every step t >= 3
        for seed in range(1, 6):
            rng = np.random.default_rng(seed)

            def sample(groups):
                idx = rng.choice(len(groups), self.N_COVERAGE_GROUPS, replace=False)
                return [groups[i] for i in idx]

            cov_km = [v for _, v in coverage_curve(sample(km_groups_by_seed[0]),
                                                   order_seed=seed)]
            cov_ph = [v for _, v in coverage_curve(sample(phonetic_groups),
                                                   order_seed=seed)]
            cov_rnd = [v for _, v in coverage_curve(sample(rnd_groups_by_seed[0]),
                                                    order_seed=seed)]
            for t in range(3, self.N_COVERAGE_GROUPS + 1):
                assert cov_ph[t - 1] >= cov_km[t - 1] - 1e-9, f"seed {seed} t={t}"
                assert cov_rnd[t - 1] >= cov_km[t - 1] - 1e-9, f"seed {seed} t={t}"

        # (d) density: Max/Sum non-decreasing in i; K-Means >= random at
        # i=1 with 20% slack across 5 seeds
        km_means, rnd_means = [], []
        for seed in range(5):
            r_km = density_measure(pts, km_groups_by_seed[0], neighbor_index=3,
                                   m=4000, seed=seed)
            r_rnd = density_measure(pts, rnd_groups_by_seed[0], neighbor_index=3,
                                    m=4000, seed=seed)
            for r in (r_km, r_rnd):
                assert r.max_density[1] <= r.max_density[2] <= r.max_density[3]
                assert r.sum_density[1] <= r.sum_density[2] <= r.sum_density[3]
            km_means.append(r_km.mean_density[1])
            rnd_means.append(r_rnd.mean_density[1])
        km_avg, rnd_avg = float(np.mean(km_means)), float(np.mean(rnd_means))
        assert km_avg >= 0.8 * rnd_avg, f"km {km_avg:.4f} vs rnd {rnd_avg:.4f}"

        elapsed = time.perf_counter() - t0 + TIMINGS.get("embedding", 0.0)
        assert elapsed < 300.0, f"geometry suite took {elapsed:.1f}s"
        report(3, f"gamma/CDF/coverage/density directions over {k} groups "
                  f"in {elapsed:.1f}s")


class TestCriterion4GammaOracle:
    def test_hand_example(self):
        groups = [
            np.array([(0.0, 0.0), (2.0, 0.0)]),
            np.array([(0.0, 2.0), (2.0, 2.0)]),
        ]
        gamma = concentration_factor(groups).gamma
        assert abs(gamma - 0.5) <= 1e-12
        single = concentration_factor([np.array([(0.0, 0.0), (1.0, 3.0)])]).gamma
        assert single == 0.0
        report(4, f"hand gamma {gamma} (|err| <= 1e-12), single-group gamma 0")


class TestCriterion5HullOracle:
    @staticmethod
    def brute_force_hull_area(points: np.ndarray) -> float:
        # max shoelace area over all angularly-ordered vertex subsets
        pts = np.unique(points, axis=0)
        if len(pts) < 3:
            return 0.0
        best = 0.0
        for size in range(3, len(pts) + 1):
            for subset in combinations(range(len(pts)), size):
                sub = pts[list(subset)]
                center = sub.mean(axis=0)
                order = np.argsort(np.arctan2(sub[:, 1] - center[1],
                                              sub[:, 0] - center[0]))
                best = max(best, polygon_area(sub[order]))
        return best

    def test_thousand_random_point_sets(self):
        rng = np.random.default_rng(20260809)
        for trial in range(1000):
            n = int(rng.integers(1, 9))
            pts = rng.normal(size=(n, 2)) * rng.uniform(0.5, 3.0)
            got = smooth_hull(pts).volume
            want = self.brute_force_hull_area(pts)
            assert abs(got - want) <= 1e-9, f"trial {trial}"
        report(5, "1000 random point sets (n <= 8) match brute force to 1e-9")


class TestCriterion6Bpe:
    def test_round_trip_and_determinism(self, desk_lines, tmp_path):
        t0 = time.perf_counter()
        model = bpe_learn(token_counts(desk_lines), 2000)
        for line in desk_lines:
            tokens = line.split()
            assert bpe_decode(bpe_apply(tokens, model), model) == tokens

        zero = bpe_learn(token_counts(desk_lines[:100]), 0)
        word = desk_lines[0].split()[0]
        pieces = bpe_apply([word], zero)
        assert len(pieces) == len(word)
        assert [p.rstrip("@") for p in pieces] == list(word)

        p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        save_bpe_model(bpe_learn(token_counts(desk_lines), 2000), p1)
        save_bpe_model(bpe_learn(token_counts(desk_lines), 2000), p2)
        assert p1.read_bytes() == p2.read_bytes()

        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"BPE suite took {elapsed:.1f}s"
        report(6, f"10k-sentence round trip at 2000 ops, byte-identical "
                  f"merge files, in {elapsed:.1f}s")


class TestCriterion7Augmentation:
    @staticmethod
    def dp_edit_distance(a, b):
        m, n = len(a), len(b)
        tbl = [[0] * (n + 1) for _ in range(m + 1)]
        for i in range(m + 1):
            tbl[i][0] = i
        for j in range(n + 1):
            tbl[0][j] = j
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                cost = 0 if a[i - 1] == b[j - 1] else 1
                tbl[i][j] = min(tbl[i - 1][j] + 1, tbl[i][j - 1] + 1,
                                tbl[i - 1][j - 1] + cost)
        return tbl[m][n]

    def test_perturbation_bound(self):
        rng = np.random.default_rng(99)
        vocab = [f"w{i}" for i in range(50)]
        for trial in range(1000):
            length = int(rng.integers(1, 15))
            sentence = [vocab[i] for i in rng.integers(0, len(vocab), size=length)]
            k = int(rng.integers(0, 6))
            out = perturb_edit(sentence, vocab, PerturbationSpec(k=k, seed=trial))
            assert self.dp_edit_distance(sentence, out) <= k, f"trial {trial}"
        report(7, "edit distance <= k over 1000 trials (DP oracle)")

    def test_noise_replacement_rate(self, desk_lines, desk_projection):
        table, _ = desk_projection
        stats: dict = {}
        noise_augment(desk_lines, table, NoiseSpec(fraction=0.2, top_n=10, seed=11),
                      stats_out=stats)
        rate = stats["replacement_rate"]
        assert abs(rate - 0.2) <= 0.01, f"realized rate {rate:.4f}"
        report(7, f"noise replacement rate {rate:.4f} within 0.20 +/- 0.01 "
                  f"on {len(desk_lines)} sentences")


class TestCriterion8Bleu:
    def test_scorer_contract(self):
        corpus = ["the cat sat on the mat today",
                  "a quick brown fox jumps over the lazy dog"]
        assert bleu(corpus, corpus).bleu == pytest.approx(100.0, abs=0.005)
        assert bleu(["w x y z w x y z"], ["a b c d e f g h"]).bleu == 0.0
        report8 = bleu(["the the the the"], ["the cat"])
        assert report8.precisions[0] == pytest.approx(0.25, abs=0.0001)
        assert report8.bleu == pytest.approx(0.0, abs=0.01)
        # clipped-precision DP example, hand-computed score
        rep = bleu(["a b c d e f"], ["a b c d x f"])
        want = float(np.exp(np.mean(np.log([5 / 6, 3 / 5, 2 / 4, 1 / 3]))) * 100)
        assert rep.bleu == pytest.approx(want, abs=0.01)
        report(8, f"identity 100.00, zero-overlap 0.00, clipped example "
                  f"{rep.bleu:.2f} == {want:.2f} +/- 0.01")


class TestCriterion9Pipeline:
    def test_reproducibility_and_vocab_bounds(self, desk_lines, tmp_path):
        train = tmp_path / "train.txt"
        train.write_text("\n".join(desk_lines[:3000]) + "\n", encoding="utf-8")
        config = PipelineConfig(
            train_path=str(train),
            output_dir=str(tmp_path / "artifacts"),
            encoder="soundex",
            combine_mode="concat",
            seed=23,
            bpe_operations_words=300,
            bpe_operations_codes=150,
        )

        def run_and_hash():
            out = run_pipeline(config)
            return {
                str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.rglob("*")) if p.is_file()
            }

        h1 = run_and_hash()
        h2 = run_and_hash()
        assert h1 == h2

        vocab = json.loads(
            (tmp_path / "artifacts" / "reports" / "vocab.json").read_text(encoding="utf-8")
        )
        words = vocab["streams"]["words"]["unique"]
        codes = vocab["streams"]["codes"]["unique"]
        combined = vocab["streams"]["combined"]["unique"]
        assert max(words, codes) <= combined <= words + codes
        report(9, f"byte-identical reruns over {len(h1)} files; vocab bounds "
                  f"max({words},{codes}) <= {combined} <= {words + codes}")


class TestDeskGeometrySpeedUpsKeepTheBytes:
    """At desk scale the fast forms give the bytes of the plain ones, in this process.

    The embedding is the fixtures' (d=100, window=5, seed=7, unit rows);
    K-Means runs at the geometry benchmark's settings. Both sides run on the
    same BLAS build and thread count, so the comparison holds on any machine.
    """

    def test_self_adjoint_operator_gives_the_plain_svds_embedding(
            self, desk_lines, desk_projection, monkeypatch):
        import scipy.sparse.linalg

        # hand ``svds`` the PPMI matrix itself, as before the operator
        monkeypatch.setattr(scipy.sparse.linalg, "LinearOperator",
                            lambda shape, matvec, **_: matvec.__self__)
        plain = train_embeddings(desk_lines, d=100, window=5, seed=7, normalize=True)
        table, _ = desk_projection
        assert table.matrix()[1].tobytes() == plain.matrix()[1].tobytes()

    def test_kmeans_equals_the_reference_at_the_benchmark_settings(self, desk_projection):
        from test_clustering import assert_same_model, reference_kmeans_fit

        _, projected = desk_projection
        units = sorted(projected)
        pts = np.array([projected[u] for u in units])
        k = len(group_points(projected, {u: metaphone_encode(u) for u in units}))
        assert k == 390
        assert_same_model(kmeans_fit(pts, k=k, seed=0, n_init=2, max_iter=20),
                          reference_kmeans_fit(pts, k, 0, 20, 2))

    def test_neighbour_sampler_equals_the_whole_matrix_formulation(self, desk_projection):
        table, _ = desk_projection
        words = set(table.vectors)
        # one normalised copy of the table and one full-width ``argpartition``
        # per 128-row block, around the same 128-row products
        units, matrix = table.matrix()
        norms = np.linalg.norm(matrix, axis=1)
        norms[norms == 0] = 1.0
        normed = matrix / norms[:, None]
        rows = [i for i, u in enumerate(units) if u in words]
        n = max(min(10, len(units) - 1), 1)
        want = {}
        for start in range(0, len(rows), 128):
            block = rows[start:start + 128]
            sims = normed[block] @ normed.T
            sims[np.arange(len(block)), block] = -np.inf
            top = np.argpartition(sims, -n, axis=1)[:, -n:]
            order = np.argsort(np.take_along_axis(sims, top, axis=1), axis=1)[:, ::-1]
            top = np.take_along_axis(top, order, axis=1)
            weights = np.maximum(np.take_along_axis(sims, top, axis=1), 0.0)
            totals = weights.sum(axis=1)
            live = totals > 0
            cdfs = np.cumsum(weights[live] / totals[live, None], axis=1)
            cdfs /= cdfs[:, -1:]
            live_cdfs = iter(cdfs.tolist())
            for wi, neighbors, alive in zip(block, top.tolist(), live.tolist()):
                want[units[wi]] = (([units[i] for i in neighbors], next(live_cdfs))
                                   if alive else None)
        assert _NeighborSampler(table, 10, words)._candidates == want
