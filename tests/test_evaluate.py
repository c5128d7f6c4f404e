"""BLEU scorer and vocabulary statistics tests."""

from __future__ import annotations

import math
import random
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phonoprep import evaluate
from phonoprep.encoders import soundex_encode
from phonoprep.errors import PhonoprepError
from phonoprep.evaluate import MAX_ORDER, BleuReport, _token_ids, bleu, vocab_stats
from phonoprep.subword import token_counts

CORPUS = [
    "the cat sat on the mat today",
    "a quick brown fox jumps over the lazy dog",
    "machines translate sentences into other languages",
]


DESK_CORPUS = Path(__file__).parent.parent / "data" / "desk_en.txt"


def _reference_ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def reference_bleu(hypotheses, references, smooth=False) -> BleuReport:
    """Per-sentence Counter clipping, as in the multi-bleu script."""
    matches = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    hyp_length = ref_length = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_tokens, ref_tokens = hyp.split(), ref.split()
        hyp_length += len(hyp_tokens)
        ref_length += len(ref_tokens)
        for n in range(1, MAX_ORDER + 1):
            hyp_counts = _reference_ngrams(hyp_tokens, n)
            ref_counts = _reference_ngrams(ref_tokens, n)
            totals[n - 1] += sum(hyp_counts.values())
            matches[n - 1] += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
    precisions = []
    for n in range(MAX_ORDER):
        m, t = matches[n], totals[n]
        if smooth and n > 0:
            m, t = m + 1, t + 1
        precisions.append(m / t if t > 0 else 0.0)
    if hyp_length == 0:
        bp = 0.0
    elif hyp_length > ref_length:
        bp = 1.0
    else:
        bp = math.exp(1 - ref_length / hyp_length)
    score = 0.0
    if min(precisions) > 0:
        score = bp * math.exp(sum(math.log(p) for p in precisions) / MAX_ORDER) * 100
    return BleuReport(score, tuple(precisions), bp, hyp_length, ref_length)


# three-token vocabulary: repeated n-grams, so clipping matters at every order
_line = st.lists(st.sampled_from(["a", "b", "c"]), max_size=9).map(" ".join)


@st.composite
def _bleu_inputs(draw):
    """Hypothesis lines and one reference line for each."""
    hyps = draw(st.lists(_line, max_size=8))
    return hyps, draw(st.lists(_line, min_size=len(hyps), max_size=len(hyps)))


class TestBleuMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(inputs=_bleu_inputs(), smooth=st.booleans())
    @example(inputs=([], []), smooth=False)
    @example(inputs=(["", "a b"], ["", ""]), smooth=True)
    @example(inputs=(["a a a a b", "b a"], ["a b a a a a", ""]), smooth=False)
    def test_reports_equal(self, inputs, smooth):
        hyps, refs = inputs
        assert bleu(hyps, refs, smooth=smooth) == reference_bleu(hyps, refs, smooth)

    def test_desk_corpus_against_shifted_lines(self):
        lines = DESK_CORPUS.read_text(encoding="utf-8").splitlines()[:2000]
        hyps = [" ".join(line.split()[1:]) for line in lines]
        assert bleu(hyps, lines) == reference_bleu(hyps, lines)


class TestBleuChunks:
    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @settings(max_examples=150, deadline=None)
    @given(inputs=_bleu_inputs(), smooth=st.booleans())
    def test_any_chunk_size_gives_the_reference_report(self, chunk, inputs, smooth):
        hyps, refs = inputs
        with patch.object(evaluate, "_CHUNK", chunk):
            assert bleu(hyps, refs, smooth=smooth) == reference_bleu(hyps, refs, smooth)

    @pytest.mark.parametrize("chunk", [2, evaluate._CHUNK])
    def test_unequal_generators_name_both_full_counts(self, chunk):
        with patch.object(evaluate, "_CHUNK", chunk):
            with pytest.raises(PhonoprepError, match="^3 hypotheses vs 5 references$"):
                bleu(("a" for _ in range(3)), ("a" for _ in range(5)))
            with pytest.raises(PhonoprepError, match="^5 hypotheses vs 3 references$"):
                bleu(("a" for _ in range(5)), ("a" for _ in range(3)))


def _bleu_peak(hyps: list[str], refs: list[str]) -> int:
    """The tracemalloc peak of one ``bleu`` call, above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        bleu(hyps, refs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestBleuMemory:
    def test_desk_call_stays_under_35_mb(self):
        # token ids and per-order n-gram ids of one chunk, no per-sentence token lists:
        # about 11.5 MB here, where a scorer holding every token string took 66 MB
        lines = DESK_CORPUS.read_text(encoding="utf-8").splitlines()
        hyps = [" ".join(line.split()[1:]) for line in lines]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            bleu(hyps, lines)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 35 * 2**20

    def test_peak_does_not_grow_with_the_corpus(self):
        # one chunk's arrays at a time: 11.5 MB once and 13.9 MB three times over,
        # where whole-corpus arrays gave 26.2 and 77.5 MB (2.96x)
        lines = DESK_CORPUS.read_text(encoding="utf-8").splitlines()
        hyps = [" ".join(line.split()[1:]) for line in lines]
        once = _bleu_peak(hyps, lines)
        assert _bleu_peak(hyps * 3, lines * 3) <= 1.5 * once


class TestBleu:
    def test_identity_is_100(self):
        report = bleu(CORPUS, CORPUS)
        assert report.bleu == pytest.approx(100.0)
        assert report.brevity_penalty == pytest.approx(1.0)

    def test_zero_overlap_is_0(self):
        hyp = ["w x y z w x y z"]
        ref = ["a b c d e f g h"]
        assert bleu(hyp, ref).bleu == 0.0

    def test_clipped_unigram_precision(self):
        report = bleu(["the the the the"], ["the cat"])
        assert report.precisions[0] == pytest.approx(1 / 4)
        assert report.bleu == 0.0  # no bigram overlap, smoothing off

    def test_hand_computed_score(self):
        # hyp/ref differ in one word; clipped counts done by hand:
        # p1=5/6, p2=3/5, p3=2/4, p4=1/3, BP=1
        report = bleu(["a b c d e f"], ["a b c d x f"])
        assert report.precisions == pytest.approx((5 / 6, 3 / 5, 2 / 4, 1 / 3))
        want = math.exp(sum(math.log(p) for p in (5 / 6, 3 / 5, 2 / 4, 1 / 3)) / 4) * 100
        assert report.bleu == pytest.approx(want, abs=0.01)

    def test_brevity_penalty(self):
        hyp = ["a b c d e"]
        ref = ["a b c d e f g h i j"]
        report = bleu(hyp, ref)
        assert report.brevity_penalty == pytest.approx(math.exp(1 - 10 / 5))

    def test_no_penalty_for_long_hypotheses(self):
        hyp = ["a b c d e f g h i j"]
        ref = ["a b c d e"]
        assert bleu(hyp, ref).brevity_penalty == 1.0

    def test_pair_permutation_invariance(self):
        hyps = ["a b c d", "e f g h", "i j k l m"]
        refs = ["a b c x", "e f y h", "i j k l z"]
        base = bleu(hyps, refs)
        rng = random.Random(4)
        order = list(range(3))
        rng.shuffle(order)
        shuffled = bleu([hyps[i] for i in order], [refs[i] for i in order])
        assert shuffled.bleu == pytest.approx(base.bleu)

    def test_self_concatenation_invariance(self):
        hyps = ["a b c d e f", "g h i j k"]
        refs = ["a b c d x f", "g h i q k"]
        once = bleu(hyps, refs)
        twice = bleu(hyps * 2, refs * 2)
        assert twice.bleu == pytest.approx(once.bleu)

    def test_line_count_mismatch(self):
        with pytest.raises(PhonoprepError, match="^1 hypotheses vs 2 references$"):
            bleu(["a"], ["a", "b"])

    def test_smoothing_flag_rescues_tiny_corpora(self):
        report = bleu(["a b"], ["a b"], smooth=True)
        assert report.bleu > 0.0

    def test_range(self):
        report = bleu(["a b c d e"], ["a b x d e"])
        assert 0.0 <= report.bleu <= 100.0

    def test_format_line_convention(self):
        line = bleu(CORPUS, CORPUS).format_line()
        assert line.startswith("BLEU = 100.00, 100.0/100.0/100.0/100.0 (BP=1.000")
        assert "hyp_len=" in line and "ref_len=" in line


class TestVocabStats:
    def test_basic_counts(self):
        report = vocab_stats({"corpus": token_counts(["a b a"])})
        assert report.streams == {"corpus": (2, 3)}

    def test_empty_corpus(self):
        report = vocab_stats({"corpus": token_counts([])})
        assert report.streams["corpus"] == (0, 0)

    def test_named_streams(self):
        report = vocab_stats({"words": token_counts(["a b c"]), "codes": token_counts(["X X Y"])})
        assert report.streams["words"] == (3, 3)
        assert report.streams["codes"] == (2, 3)

    def test_to_dict_is_the_report_payload(self):
        report = vocab_stats({"words": token_counts(["a b c"]), "codes": token_counts(["X X Y"])})
        assert report.to_dict() == {
            "schema": "phonoprep/vocab-report/1",
            "streams": {"codes": {"unique": 2, "total": 3},
                        "words": {"unique": 3, "total": 3}},
        }

    @given(st.dictionaries(st.sampled_from(["words", "codes"]),
                           st.lists(st.text(alphabet="ab c\t", max_size=8), max_size=5)))
    def test_counts_give_the_rows_of_their_lines(self, streams):
        counts = {name: Counter(tok for line in lines for tok in line.split())
                  for name, lines in streams.items()}
        assert vocab_stats(counts) == vocab_stats(
            {name: token_counts(lines) for name, lines in streams.items()})
        # the pipeline's combined row: the union of the keys, the totals summed
        combined = [line for lines in streams.values() for line in lines]
        assert (vocab_stats({"combined": sum(counts.values(), Counter())})
                == vocab_stats({"combined": token_counts(combined)}))

    def test_encoded_stream_compresses_vocabulary(self):
        words = CORPUS
        codes = [" ".join(soundex_encode(w) for w in line.split()) for line in words]
        report = vocab_stats({"words": token_counts(words), "codes": token_counts(codes)})
        (codes_unique, codes_total), (words_unique, words_total) = (
            report.streams["codes"], report.streams["words"])
        assert codes_unique <= words_unique
        assert codes_total == words_total


class TestTokenIds:
    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(st.text(max_size=20) | st.sampled_from(["", " \t ", "a a", "b\x85c"]),
                          max_size=8))
    @example(lines=[])
    @example(lines=["x y", "", "y\u2028x z"])
    def test_gives_each_lines_tokens_back(self, lines):
        tokens, ids, lengths = _token_ids(lines)
        assert ids.dtype == lengths.dtype == np.int64
        assert len(lengths) == len(lines)
        ends = np.cumsum(lengths)
        for line, start, end in zip(lines, ends - lengths, ends):
            assert [tokens[i] for i in ids[start:end]] == line.split()
        # ids are given in order of first appearance
        assert tokens == list(dict.fromkeys(t for line in lines for t in line.split()))
