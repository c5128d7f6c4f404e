"""Noise augmentation and edit perturbation tests."""

from __future__ import annotations

import hashlib
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonoprep.augment import (
    NoiseSpec,
    PerturbationSpec,
    _cdf,
    _draw,
    _NeighborSampler,
    _SeedWords,
    _seed_words,
    _sentence_generators,
    edit_distance,
    noise_augment,
    perturb_corpus,
    perturb_edit,
)
from phonoprep.errors import EmptyEmbedding
from phonoprep.evaluate import BleuReport, bleu
from phonoprep.geometry import EmbeddingTable, train_embeddings

DESK_CORPUS = Path(__file__).parent.parent / "data" / "desk_en.txt"


def table_from(vectors: dict[str, list[float]]) -> EmbeddingTable:
    dim = len(next(iter(vectors.values())))
    return EmbeddingTable(
        dimension=dim, vectors={k: np.array(v, dtype=float) for k, v in vectors.items()}
    )


class TestEditDistance:
    def test_identity(self):
        s = "the quick brown fox".split()
        assert edit_distance(s, s) == 0

    def test_single_deletion(self):
        s = "the quick brown fox".split()
        assert edit_distance(s, s[:-1]) == 1

    def test_hand_dp_example(self):
        assert edit_distance("a b c".split(), "a x c y".split()) == 2

    def test_symmetry(self):
        a, b = "x y z".split(), "x z w q".split()
        assert edit_distance(a, b) == edit_distance(b, a)

    def test_empty_cases(self):
        assert edit_distance([], []) == 0
        assert edit_distance(["a", "b"], []) == 2


def _dp_oracle(a, b):
    # plain quadratic DP, independent of the library implementation
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        table[i][0] = i
    for j in range(n + 1):
        table[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1,
                              table[i - 1][j - 1] + cost)
    return table[m][n]


class TestSpecChecks:
    @pytest.mark.parametrize("field, value", [
        ("fraction", True), ("fraction", "0.2"), ("fraction", None),
        ("top_n", 2.5), ("top_n", True), ("top_n", "3"),
        ("seed", -1), ("seed", True), ("seed", 1.5), ("seed", "3"),
    ])
    def test_noise_spec_refuses(self, field, value):
        with pytest.raises(ValueError, match=field):
            NoiseSpec(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("k", 2.5), ("k", True), ("k", "2"),
        ("seed", -1), ("seed", False), ("seed", 2.0), ("seed", "1"),
    ])
    def test_perturbation_spec_refuses(self, field, value):
        with pytest.raises(ValueError, match=field):
            PerturbationSpec(**{"k": 1, field: value})

    def test_numpy_numbers_are_accepted(self):
        noise = NoiseSpec(fraction=np.float64(0.5), top_n=np.int64(3), seed=np.uint64(2**63))
        assert noise.seed == 2**63
        assert PerturbationSpec(k=np.int32(2), seed=np.int64(4)).k == 2


class TestPerturbEdit:
    VOCAB = [f"w{i}" for i in range(30)]

    def test_zero_ops_identity(self):
        s = ["a", "b", "c"]
        assert perturb_edit(s, self.VOCAB, PerturbationSpec(k=0, seed=1)) == s

    def test_single_deletion(self):
        s = ["a", "b", "c", "d"]
        spec = PerturbationSpec(k=1, seed=4, op_weights=(1, 0, 0))
        out = perturb_edit(s, self.VOCAB, spec)
        assert len(out) == 3
        assert edit_distance(s, out) == 1

    def test_deterministic_per_seed(self):
        s = ["a", "b", "c", "d", "e"]
        spec = PerturbationSpec(k=3, seed=11)
        assert perturb_edit(s, self.VOCAB, spec) == perturb_edit(s, self.VOCAB, spec)

    def test_exhausted_sentence_turns_into_insertions(self):
        spec = PerturbationSpec(k=4, seed=2, op_weights=(1, 0, 0))
        out = perturb_edit(["only", "two"], self.VOCAB, spec)
        # two deletions empty the sentence; the remaining ops insert
        assert len(out) == 2
        assert all(w in self.VOCAB for w in out)

    def test_distance_bounded_by_k(self):
        rng = np.random.default_rng(99)
        for trial in range(300):
            length = rng.integers(1, 12)
            s = [self.VOCAB[i] for i in rng.integers(0, len(self.VOCAB), size=length)]
            k = int(rng.integers(0, 6))
            out = perturb_edit(s, self.VOCAB, PerturbationSpec(k=k, seed=trial))
            assert _dp_oracle(s, out) <= k

    @settings(max_examples=60)
    @given(
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_distance_property(self, sentence, k, seed):
        out = perturb_edit(sentence, list("abcdef"), PerturbationSpec(k=k, seed=seed))
        assert edit_distance(sentence, out) <= k

    def test_corpus_perturbation_preserves_line_count(self):
        corpus = ["a b c", "d e", "f"]
        out = perturb_corpus(corpus, self.VOCAB, PerturbationSpec(k=2, seed=0))
        assert len(out) == 3


@settings(max_examples=300)
@given(
    st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e6)),
             min_size=1, max_size=12).filter(lambda w: sum(w) > 0),
    st.integers(min_value=0, max_value=2**32),
)
def test_cdf_draw_matches_generator_choice(weights, seed):
    p = np.array(weights) / sum(weights)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    cdf = _cdf(p)
    for _ in range(4):
        assert _draw(cdf, ours) == theirs.choice(len(p), p=p)
    assert ours.bit_generator.state == theirs.bit_generator.state


def reference_perturb_edit(sentence, vocab, spec, rng):
    """Reference ``perturb_edit`` that draws each operation with ``Generator.choice(p=...)``."""
    tokens = list(sentence)
    exhausted = not tokens
    for _ in range(spec.k):
        op = ("deletion", "substitution", "insertion")[rng.choice(3, p=spec.op_weights)]
        if exhausted:
            op = "insertion"
        if op == "deletion":
            del tokens[rng.integers(len(tokens))]
        elif op == "substitution":
            tokens[rng.integers(len(tokens))] = vocab[rng.integers(len(vocab))]
        else:
            tokens.insert(rng.integers(len(tokens) + 1), vocab[rng.integers(len(vocab))])
        if not tokens:
            exhausted = True
    return tokens


class TestPerturbEditMatchesReference:
    VOCAB = [f"w{i}" for i in range(7)]

    @settings(max_examples=200)
    @given(
        st.lists(st.sampled_from("abcdef"), max_size=8),
        st.integers(min_value=0, max_value=8),
        st.sampled_from([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0.7, 0.2, 0.1),
                         (0, 0.5, 0.5), (1 / 3, 1 / 3, 1 / 3), (2, 0, 1e-9)]),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_same_tokens_and_generator_state(self, sentence, k, weights, seed):
        spec = PerturbationSpec(k=k, seed=seed, op_weights=weights)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert perturb_edit(sentence, self.VOCAB, spec, rng=ours) == \
            reference_perturb_edit(sentence, self.VOCAB, spec, theirs)
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestPerturbCorpus:
    VOCAB = [f"w{i}" for i in range(7)]

    @settings(max_examples=100)
    @given(
        st.lists(st.lists(st.sampled_from("abcdef"), max_size=6).map(" ".join), max_size=12),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=2**70),
    )
    def test_each_sentence_draws_from_its_index_derived_generator(self, lines, k, seed):
        spec = PerturbationSpec(k=k, seed=seed, op_weights=(0.5, 0.3, 0.2))
        want = [" ".join(reference_perturb_edit(line.split(), self.VOCAB, spec,
                                                np.random.default_rng([seed, i])))
                for i, line in enumerate(lines)]
        assert perturb_corpus(lines, self.VOCAB, spec) == want

    def test_empty_vocab_is_refused_only_with_sentences(self):
        assert perturb_corpus([], [], PerturbationSpec(k=1)) == []
        with pytest.raises(ValueError, match="vocab"):
            perturb_corpus([""], [], PerturbationSpec(k=0))


def assert_rows_are_numpy_seeds(seed, count: int, indices) -> None:
    """Rows ``indices`` of ``_seed_words(seed, count)`` are ``SeedSequence([seed, i])``'s
    words, and a PCG64 seeded from a row is in ``default_rng([seed, i])``'s state."""
    words = _seed_words(seed, count)
    assert words.shape == (count, 4) and words.dtype == np.uint64
    for i in indices:
        want = np.random.SeedSequence([seed, i]).generate_state(4, np.uint64)
        assert words[i].tolist() == want.tolist()
        rng = np.random.Generator(np.random.PCG64(_SeedWords(words[i])))
        assert rng.bit_generator.state == np.random.default_rng([seed, i]).bit_generator.state


# a seed of more than 32 bits hashes as several words; numpy integers hash as ints
_seeds = st.one_of(st.integers(min_value=0, max_value=2**200),
                   st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**200]),
                   st.integers(min_value=0, max_value=2**64 - 1).map(np.uint64),
                   st.integers(min_value=0, max_value=2**63 - 1).map(np.int64))


class TestSentenceStates:
    @settings(max_examples=200, deadline=None)
    @given(_seeds, st.integers(min_value=0, max_value=40))
    def test_state_of_every_sentence(self, seed, count):
        assert_rows_are_numpy_seeds(seed, count, range(count))
        generators = list(_sentence_generators(seed, count))
        assert [rng.bit_generator.state for rng in generators] == \
            [np.random.default_rng([seed, i]).bit_generator.state for i in range(count)]

    @settings(max_examples=25, deadline=None)
    @given(_seeds, st.integers(min_value=0, max_value=10**6))
    def test_state_at_a_large_index(self, seed, i):
        assert_rows_are_numpy_seeds(seed, i + 1, [i])

    def test_no_sentences(self):
        assert _seed_words(7, 0).shape == (0, 4)
        assert list(_sentence_generators(7, 0)) == []

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint32(2**32 - 1), np.uint64(2**64 - 1)])
    def test_numpy_integer_seed(self, seed):
        assert_rows_are_numpy_seeds(seed, 3, range(3))

    @pytest.mark.parametrize("n_words, dtype", [(8, np.uint32), (4, np.uint32), (2, np.uint64)])
    def test_seed_words_refuse_any_other_request(self, n_words, dtype):
        with pytest.raises(ValueError, match="4 uint64 words"):
            _SeedWords(_seed_words(1, 1)[0]).generate_state(n_words, dtype)

    def test_generators_stay_distinct_after_the_list_is_built(self):
        generators = list(_sentence_generators(3, 5))
        assert len({id(rng) for rng in generators}) == 5
        assert [rng.random(2).tolist() for rng in generators] == \
            [np.random.default_rng([3, i]).random(2).tolist() for i in range(5)]

    def test_generators_draw_the_index_derived_streams(self):
        ours = [rng.random(3).tolist() for rng in _sentence_generators(2**40 + 9, 5)]
        assert ours == [np.random.default_rng([2**40 + 9, i]).random(3).tolist()
                        for i in range(5)]

    def test_full_32_bit_buffer_does_not_leak_into_the_next_sentence(self):
        # one float32 draw takes half of a 64-bit output and buffers the other half
        ours = [rng.random(dtype=np.float32) for rng in _sentence_generators(3, 6)]
        assert ours == [np.random.default_rng([3, i]).random(dtype=np.float32)
                        for i in range(6)]


class TestNoiseAugment:
    def test_forced_swap_with_two_words(self):
        table = table_from({"hot": [1.0, 0.1], "warm": [1.0, 0.0]})
        corpus = ["hot hot hot hot hot"]
        out = noise_augment(corpus, table, NoiseSpec(fraction=1.0, top_n=5, seed=3))
        assert out == ["warm warm warm warm warm"]

    def test_tiny_fraction_identity(self):
        table = table_from({"a": [1.0, 0.0], "b": [0.9, 0.1]})
        corpus = ["a b a b"]
        out = noise_augment(corpus, table, NoiseSpec(fraction=0.05, seed=0))
        assert out == corpus

    def test_lengths_and_counts_preserved(self):
        rng = np.random.default_rng(0)
        vocab = {f"w{i}": rng.normal(size=4).tolist() for i in range(50)}
        table = table_from(vocab)
        corpus = [" ".join(rng.choice(list(vocab), size=rng.integers(3, 15)))
                  for _ in range(40)]
        out = noise_augment(corpus, table, NoiseSpec(fraction=0.2, seed=1))
        assert len(out) == len(corpus)
        for before, after in zip(corpus, out):
            assert len(before.split()) == len(after.split())

    def test_replacement_rate_near_fraction(self):
        rng = np.random.default_rng(7)
        vocab = {f"w{i}": rng.normal(size=8).tolist() for i in range(200)}
        table = table_from(vocab)
        corpus = [" ".join(rng.choice(list(vocab), size=rng.integers(8, 25)))
                  for _ in range(2000)]
        stats: dict = {}
        noise_augment(corpus, table, NoiseSpec(fraction=0.2, seed=5), stats_out=stats)
        assert abs(stats["replacement_rate"] - 0.2) < 0.01

    def test_words_without_vectors_unchanged(self):
        table = table_from({"a": [1.0, 0.0], "b": [0.9, 0.1]})
        corpus = ["zzz zzz zzz zzz"]
        out = noise_augment(corpus, table, NoiseSpec(fraction=1.0, seed=0))
        assert out == corpus

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(1)
        vocab = {f"w{i}": rng.normal(size=4).tolist() for i in range(30)}
        table = table_from(vocab)
        corpus = [" ".join(rng.choice(list(vocab), size=10)) for _ in range(20)]
        spec = NoiseSpec(fraction=0.3, seed=42)
        assert noise_augment(corpus, table, spec) == noise_augment(corpus, table, spec)
        other = noise_augment(corpus, table, NoiseSpec(fraction=0.3, seed=43))
        assert other != noise_augment(corpus, table, spec)

    def test_empty_embedding(self):
        with pytest.raises(EmptyEmbedding):
            noise_augment(["a b"], EmbeddingTable(dimension=2, vectors={}),
                          NoiseSpec(fraction=0.5, seed=0))

    def test_low_coverage_warning(self, caplog):
        table = table_from({"a": [1.0, 0.0], "b": [0.5, 0.5]})
        with caplog.at_level("WARNING"):
            noise_augment(["x y z q r s t u v w"], table, NoiseSpec(fraction=0.2, seed=0))
        assert "covers only" in caplog.text


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vector_is_refused_at_construction(bad):
    # the sampler draws without re-validating its weights; this keeps them finite
    with pytest.raises(ValueError, match="non-finite"):
        table_from({"a": [1.0, 0.0], "b": [bad, 0.5]})


@pytest.fixture
def products(monkeypatch) -> list[int]:
    """Row count of every similarity product a sampler takes, in order."""
    counts: list[int] = []

    class CountingMatrix(np.ndarray):
        def __matmul__(self, other):
            counts.append(len(self))
            return np.asarray(self) @ np.asarray(other)

    matrix = EmbeddingTable.matrix

    def counting_matrix(table):
        units, m = matrix(table)
        return units, m.view(CountingMatrix)

    monkeypatch.setattr(EmbeddingTable, "matrix", counting_matrix)
    return counts


def gaussian_table(units: int, dim: int, seed: int) -> EmbeddingTable:
    rng = np.random.default_rng(seed)
    return table_from({f"w{i}": rng.normal(size=dim).tolist() for i in range(units)})


def reference_candidates(table: EmbeddingTable, top_n: int, word: str):
    """Neighbors of one word from its own ``normed @ normed[wi]`` product."""
    units, matrix = table.matrix()
    norms = np.linalg.norm(matrix, axis=1)
    norms[norms == 0] = 1.0
    normed = matrix / norms[:, None]
    wi = units.index(word)
    if len(units) < 2:
        return None
    sims = normed @ normed[wi]
    sims[wi] = -np.inf
    n = min(top_n, len(units) - 1)
    top = np.argpartition(sims, -n)[-n:]
    top = top[np.argsort(sims[top])[::-1]]
    weights = np.maximum(sims[top], 0.0)
    if weights.sum() <= 0:
        return None
    return [units[i] for i in top], _cdf(weights / weights.sum())


class TestNeighborSampler:
    def test_word_without_similar_neighbor_is_computed_once(self, products):
        sampler = _NeighborSampler(table_from({"a": [1.0, 0.0], "b": [-1.0, 0.0]}), 1, {"a"})
        assert [sampler.candidates("a") for _ in range(3)] == [None, None, None]
        assert products == [1]

    def test_rows_without_positive_weight_warn_nothing(self):
        table = table_from({"a": [1.0, 0.0], "b": [-1.0, 0.0], "z": [0.0, 0.0], "c": [0.9, 0.1]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sampler = _NeighborSampler(table, 1, {"a", "b", "z", "c"})
        assert sampler.candidates("b") is None and sampler.candidates("z") is None
        assert sampler.candidates("a")[0] == ["c"]

    def test_candidates_are_cached(self, products):
        sampler = _NeighborSampler(
            table_from({"a": [1.0, 0.0], "b": [0.9, 0.1], "c": [0.0, 1.0]}), 2, {"a", "b", "c"}
        )
        first = sampler.candidates("a")
        assert sampler.candidates("a") is first
        assert first[0] == ["b", "c"]
        assert products == [3]

    def test_every_word_comes_from_one_blocked_product(self, products):
        table = gaussian_table(300, 6, seed=3)
        words = set(table.vectors)
        sampler = _NeighborSampler(table, 5, words)
        assert _NeighborSampler.BLOCK == 128
        assert products == [128, 128, 44]  # ceil(300 / 128) products, one row per word
        assert all(sampler.candidates(w) is sampler.candidates(w) for w in words)
        assert products == [128, 128, 44]

    def test_table_word_absent_from_corpus_is_never_computed(self, products):
        table = gaussian_table(300, 6, seed=4)
        corpus = ["w1 w2 oov w1", "w7 w2 w3", "", "w250 oov"]
        noise_augment(corpus, table, NoiseSpec(fraction=0.5, top_n=4, seed=0))
        assert products == [5]
        assert _NeighborSampler(table, 4, {"w1"}).candidates("w2") is None
        assert products == [5, 1]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**32),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.3),
    )
    def test_matches_per_word_product(self, units, dim, top_n, seed, share, zeros):
        table = gaussian_table(units, dim, seed)
        # a zero vector is similar to nothing, so its row has no positive weight
        for i in np.flatnonzero(np.random.default_rng(seed + 2).random(units) < zeros):
            table.vectors[f"w{i}"][:] = 0.0
        pick = np.random.default_rng(seed + 1).random(units) < share
        words = {f"w{i}" for i in np.flatnonzero(pick)} | {"oov"}
        sampler = _NeighborSampler(table, top_n, words)
        for word in sorted(words - {"oov"}):
            ours, ref = sampler.candidates(word), reference_candidates(table, top_n, word)
            assert (ours is None) == (ref is None)
            if ours is not None:
                assert ours[0] == ref[0]
                np.testing.assert_allclose(ours[1], ref[1], rtol=0, atol=1e-12)
        assert sampler.candidates("oov") is None


class TestDeskStreamsArePinned:
    """SHA-256 of the desk-corpus noise and perturbation streams.

    Any change to a draw, to the order of draws or to the per-sentence
    generators moves these; re-record them only for a deliberate change.
    """

    @pytest.fixture(scope="class")
    def desk(self):
        lines = DESK_CORPUS.read_text(encoding="utf-8").splitlines()
        return lines, train_embeddings(lines, d=100, window=5, seed=7, normalize=True)

    @staticmethod
    def digest(lines: list[str]) -> str:
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()

    def test_noise_stream(self, desk):
        lines, table = desk
        stats: dict = {}
        out = noise_augment(lines, table, NoiseSpec(0.2, 10, 11), stats_out=stats)
        assert stats["replaced_tokens"] == 32401
        assert self.digest(out) == (
            "97f473f0644a7d38082dae0351cc57eb802bf9e7fc50dfe7757e8b6854784f43"
        )
        assert bleu(out, lines) == BleuReport(
            bleu=54.59114849922228,
            precisions=(0.8020762455288308, 0.6265871245663912, 0.48362614395868553,
                        0.365411350840675),
            brevity_penalty=1.0, hyp_length=160193, ref_length=160193)

    def test_perturb_stream(self, desk):
        lines, table = desk
        out = perturb_corpus(lines, sorted(table.vectors), PerturbationSpec(k=3, seed=5))
        assert self.digest(out) == (
            "6776ff98d4352b8ec97107d96d0b1f3123a780cbd7ae1e562d5651ae0c4efefe"
        )
        assert bleu(out, lines) == BleuReport(
            bleu=65.79095854521556,
            precisions=(0.8814676857887468, 0.7294059610551508, 0.5988414864971037,
                        0.488873676032829),
            brevity_penalty=0.9988382262394304, hyp_length=160007, ref_length=160193)
