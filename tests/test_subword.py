"""BPE learning, application, and round-trip tests."""

from __future__ import annotations

import hashlib
import io
import re
from collections import Counter
from pathlib import Path
from typing import Mapping

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phonoprep.errors import ContinuationMarkerToken, DanglingContinuation, EmptyCorpus
from phonoprep.pipeline import encode_corpus, make_token_encoder
from phonoprep.subword import (
    BpeModel,
    _token_ids,
    bpe_apply,
    bpe_decode,
    bpe_learn,
    iter_lines,
    load_bpe_model,
    map_tokens,
    read_lines,
    save_bpe_model,
    split_lines,
    write_lines,
)

DESK_CORPUS = Path(__file__).parent.parent / "data" / "desk_en.txt"


def reference_bpe_learn(corpus: list[str] | Mapping[str, int],
                        num_operations: int) -> tuple[tuple[str, str], ...]:
    """Naive learner: recount every pair and scan all of them on every merge.

    ``corpus`` is the lines or a mapping of each token to its count.
    """
    word_freqs = (corpus if isinstance(corpus, Mapping)
                  else Counter(tok for line in corpus for tok in line.split()))
    seqs = {w: list(w) for w in word_freqs}
    merges: list[tuple[str, str]] = []
    while len(merges) < num_operations:
        counts: Counter[tuple[str, str]] = Counter()
        for w, f in word_freqs.items():
            seq = seqs[w]
            for pair in zip(seq, seq[1:]):
                counts[pair] += f
        candidates = [(-c, pair) for pair, c in counts.items() if c >= 2]
        if not candidates:
            break
        best = min(candidates)[1]
        merges.append(best)
        for w, seq in seqs.items():
            merged, j = [], 0
            while j < len(seq):
                if j + 1 < len(seq) and (seq[j], seq[j + 1]) == best:
                    merged.append(seq[j] + seq[j + 1])
                    j += 2
                else:
                    merged.append(seq[j])
                    j += 1
            seqs[w] = merged
    return tuple(merges)


# small alphabets make count ties and overlapping runs ("aaaa") common; the
# last one can spell the literal text "</w>"
_small_corpus = st.sampled_from(["ab", "abc", "abcd", "x</w>"]).flatmap(
    lambda alphabet: st.lists(
        st.lists(st.text(alphabet=alphabet, min_size=1, max_size=7), min_size=1, max_size=6)
        .map(" ".join),
        min_size=1,
        max_size=6,
    )
)

# the same alphabets, each token given a count of 1 to 50
_small_counts = st.sampled_from(["ab", "abc", "abcd", "x</w>"]).flatmap(
    lambda alphabet: st.dictionaries(st.text(alphabet=alphabet, min_size=1, max_size=7),
                                     st.integers(min_value=1, max_value=50),
                                     min_size=1, max_size=8)
)


def test_bpe_learn_reads_a_bare_string_as_one_line_and_skips_blank_lines():
    # read line by line, "ab ab\nab" would be six one-letter tokens and learn nothing
    expected = bpe_learn({"ab": 3, "c": 1}, 5).merges
    assert expected == (("a", "b"),)
    assert bpe_learn("ab ab\nab c", 5).merges == expected
    assert bpe_learn(["ab ab", "", " \t ", "ab c"], 5).merges == expected
    with pytest.raises(EmptyCorpus):
        bpe_learn(["", " \t "], 5)


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

    @settings(max_examples=100, deadline=None)
    @given(text=st.text(max_size=30))
    def test_bare_string_is_one_line(self, text):
        tokens, ids, lengths = _token_ids(text)
        assert lengths.tolist() == [len(text.split())]
        assert [tokens[i] for i in ids] == text.split()


class TestLearn:
    def test_single_pair_corpus(self):
        # "a a" is the only pair occurring more than once
        model = bpe_learn("aa aa aa", 1)
        assert model.merges == (("a", "a"),)

    def test_zero_operations(self):
        model = bpe_learn("hello world", 0)
        assert model.merges == ()
        assert bpe_apply(["hello"], model) == ["h@@", "e@@", "l@@", "l@@", "o"]

    def test_stops_without_repeated_pairs(self):
        model = bpe_learn("a b c d e", 10)
        assert model.merges == ()

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            bpe_learn("", 5)

    def test_frequency_order(self):
        # "ab" appears 3 times, "cd" twice: (a,b) must be learned first
        model = bpe_learn("ab ab ab cd cd", 2)
        assert model.merges == (("a", "b"), ("c", "d"))

    def test_lexicographic_tie_break(self):
        # "xy" and "ab" both occur twice; (a,b) < (x,y)
        model = bpe_learn("xy ab xy ab", 1)
        assert model.merges == (("a", "b"),)

    def test_determinism(self):
        corpus = ["the cat sat on the mat", "the dog sat on the log"] * 3
        m1 = bpe_learn(corpus, 20)
        m2 = bpe_learn(corpus, 20)
        assert m1.merges == m2.merges

    def test_prefix_stability(self):
        # learning more operations extends, never rewrites, the merge list
        corpus = ["lower lower lowest newer newest wider widest"] * 2
        small = bpe_learn(corpus, 5)
        big = bpe_learn(corpus, 12)
        assert big.merges[:len(small.merges)] == small.merges

    def test_overlapping_runs_count_twice(self):
        # "aaa" holds (a,a) twice, so it alone reaches the two-occurrence floor
        assert bpe_learn("aaa", 5).merges == (("a", "a"),)

    def test_literal_end_of_word_text_is_ordinary_text(self):
        # "</w>" in a token is four characters like any others: building it
        # as a piece must not stop its pairs from being counted
        model = bpe_learn(["x</w> x</w>"], 10)
        assert model.merges[-1] == ("x", "</w>")
        assert bpe_apply(["x</w>"], model) == ["x</w>"]

    @settings(max_examples=300, deadline=None)
    @given(_small_corpus, st.integers(min_value=0, max_value=40))
    @example(["abb abb a"], 5)  # stale entries outnumber live pairs: heap is rebuilt
    @example(["x</w> x</w>"], 10)  # a piece equal to "</w>" keeps its pairs
    def test_matches_reference_learner(self, lines, ops):
        # ops well past the merge supply of these corpora exercises the early stop
        assert bpe_learn(lines, ops).merges == reference_bpe_learn(lines, ops)

    @settings(max_examples=300, deadline=None)
    @given(_small_counts, st.integers(min_value=0, max_value=40))
    @example({"abcd": 2}, 3)  # one site at the start, its next pair shifts; heap rebuilt mid-run
    @example({"cabd": 2}, 1)  # one site in the middle
    @example({"cdab": 2}, 1)  # one site at the end
    @example({"abca": 2}, 1)  # left occurs twice but has one site: the word is re-counted
    @example({"aaaa": 2}, 5)  # an overlapping run: (a, a) twice, then (aa, aa)
    # merging (a, b) drops (b, c) from 8 to 3 below its heap entry; popped at 8,
    # it is queued again at 3 and merged after (ab, c)
    @example({"abc": 5, "ab": 4, "bc": 3}, 3)
    @example({"ba": 1, "babaa": 3, "abbb": 5}, 40)  # rebuilt after five pops, then three more
    def test_weighted_counts_match_reference_learner(self, counts, ops):
        assert bpe_learn(counts, ops).merges == reference_bpe_learn(counts, ops)

    @settings(max_examples=300, deadline=None)
    @given(_small_corpus, st.integers(min_value=0, max_value=40), st.data())
    def test_counts_give_the_merges_of_their_lines(self, lines, ops, data):
        # the merges depend only on how often each token occurs, not on the
        # order in which the counts list the tokens
        counts = Counter(tok for line in lines for tok in line.split())
        counts = data.draw(st.permutations(list(counts.items())))
        assert bpe_learn(dict(counts), ops).merges == bpe_learn(lines, ops).merges

    @pytest.mark.parametrize("count", [0, -2])
    def test_counts_must_be_positive(self, count):
        with pytest.raises(ValueError, match="count"):
            bpe_learn({"ab": 3, "ba": count}, 5)

    def test_empty_counts(self):
        with pytest.raises(EmptyCorpus):
            bpe_learn({}, 5)

    def test_desk_merge_files_are_pinned(self, tmp_path):
        # the pipeline-desk merge-file goldens of perfbench/golden.json; they pin
        # counts, tie-breaks and the early stop (the codes stop at 468 merges)
        lines = DESK_CORPUS.read_text(encoding="utf-8").splitlines()
        counts = Counter(tok for line in lines for tok in line.split())
        enc = encode_corpus(counts, make_token_encoder("metaphone"))
        codes = [map_tokens(enc.codes, line.split()) for line in lines]
        pinned = {
            "words": (lines, 2000,
                      "220f63c70143585fa472e6a20e9e2e7cfa9abfeaab94cf78fd89fc2510941b61"),
            "codes": (codes, 1000,
                      "609ba8a3535700332e9d36e49a39083ab8401fafa003d453c7bdab16ead50ccb"),
        }
        for name, (corpus, ops, digest) in pinned.items():
            path = tmp_path / f"{name}.bpe"
            save_bpe_model(bpe_learn(corpus, ops), path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, name


class TestApply:
    def test_merge_replay(self):
        model = BpeModel(merges=(("a", "a"), ("aa", "aa")))
        assert bpe_apply(["aaaa"], model) == ["aaaa"]

    def test_partial_merge(self):
        model = BpeModel(merges=(("a", "a"),))
        assert bpe_apply(["aaa"], model) == ["aa@@", "a"]

    def test_learned_order_respected(self):
        # apply must replay merges by rank, not greedily by position
        model = BpeModel(merges=(("b", "c"), ("a", "b")))
        assert bpe_apply(["abc"], model) == ["a@@", "bc"]

    def test_rejects_token_ending_with_marker(self):
        # "ab@@ cd" would decode as the single token "abcd"
        model = bpe_learn(["ab@@ cd", "ab@@ ef", "xb@@ q"], 10)
        with pytest.raises(ContinuationMarkerToken):
            bpe_apply(["ab@@", "cd"], model)
        with pytest.raises(ContinuationMarkerToken):
            bpe_apply(["@@"], model)
        assert bpe_decode(bpe_apply(["a@@b", "@"], model), model) == ["a@@b", "@"]

    def test_segmentation_cache_is_per_model(self):
        coarse = bpe_learn("abab abab", 3)
        fine = bpe_learn("abab abab", 0)
        assert bpe_apply(["abab"], coarse) == ["abab"]
        assert bpe_apply(["abab"], fine) == ["a@@", "b@@", "a@@", "b"]
        assert bpe_apply(["abab", "abab"], coarse) == ["abab", "abab"]
        # the cache is not part of the model's value
        assert coarse == BpeModel(merges=coarse.merges)
        assert hash(coarse) == hash(BpeModel(merges=coarse.merges))

    def test_monotone_segment_count(self):
        corpus = ["banana bandana banner"] * 4
        word = "bandana"
        counts = []
        for ops in (0, 2, 4, 8, 16):
            model = bpe_learn(corpus, ops)
            counts.append(len(bpe_apply([word], model)))
        assert counts == sorted(counts, reverse=True)


class TestDecode:
    def test_round_trip_sentence(self):
        corpus = ["this is a test", "this is another test"]
        model = bpe_learn(corpus, 8)
        for line in corpus:
            tokens = line.split()
            assert bpe_decode(bpe_apply(tokens, model), model) == tokens

    def test_continuation_semantics(self):
        model = BpeModel(merges=())
        assert bpe_decode(["th@@", "is"], model) == ["this"]

    def test_dangling_continuation(self):
        model = BpeModel(merges=())
        with pytest.raises(DanglingContinuation):
            bpe_decode(["th@@"], model)

    @settings(max_examples=50)
    @given(st.lists(st.text(alphabet="abcdefgxyz", min_size=1, max_size=8), min_size=1, max_size=10))
    def test_round_trip_random(self, tokens):
        model = bpe_learn(" ".join(tokens), 10)
        assert bpe_decode(bpe_apply(tokens, model), model) == tokens


class TestMergeFile:
    def test_save_load_round_trip(self, tmp_path):
        model = bpe_learn("ab ab abc abc abcd", 6)
        path = tmp_path / "merges.txt"
        save_bpe_model(model, path)
        loaded = load_bpe_model(path)
        assert loaded.merges == model.merges

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(alphabet="ab</w>@#:", min_size=1, max_size=8),
                    min_size=1, max_size=12),
           st.integers(min_value=0, max_value=30))
    @example(["</w>", "</w>", "a@@", "a@@", "#:", "#:"], 10)
    def test_round_trip_property(self, tmp_path_factory, tokens, ops):
        # pieces may spell "</w>", end in "@@" or start with "#" and still read back
        model = bpe_learn(" ".join(tokens), ops)
        path = tmp_path_factory.mktemp("merges") / "merges.txt"
        save_bpe_model(model, path)
        assert load_bpe_model(path).merges == model.merges

    def test_early_stopping_model_survives_its_file(self, tmp_path):
        model = bpe_learn(["ab ab cd"], 50)
        assert len(model.merges) == 1  # no pair occurs twice after "ab"
        path = tmp_path / "merges.txt"
        save_bpe_model(model, path)
        assert load_bpe_model(path) == model

    @pytest.mark.parametrize("row", [" b", "a ", "a\tx c", "a b\x1c"])
    def test_merge_symbol_that_is_not_one_token_is_refused_by_line(self, tmp_path, row):
        path = tmp_path / "merges.txt"
        path.write_text(f"#version: 0.2\na b\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:3: merge symbols')}"):
            load_bpe_model(path)

    def test_header_and_layout(self, tmp_path):
        model = bpe_learn("aa aa", 1)
        path = tmp_path / "merges.txt"
        save_bpe_model(model, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("#version")
        assert lines[1] == "a a"

    def test_byte_identical_reruns(self, tmp_path):
        corpus = ["some words repeat some words repeat here"] * 5
        p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        save_bpe_model(bpe_learn(corpus, 15), p1)
        save_bpe_model(bpe_learn(corpus, 15), p2)
        assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("text, lines", [
    ("", []),
    ("\n", [""]),
    ("a", ["a"]),
    ("a\n\nb\n", ["a", "", "b"]),
    ("a\r\nb\r\n", ["a", "b"]),
    ("a\r\r\n", ["a\r"]),
    ("a\rb\n", ["a\rb"]),
    ("tail\r", ["tail\r"]),
    ("caf\u0085e\u2028x\x0b\x0c\x1c\x1d\x1e\u2029\n", ["caf\u0085e\u2028x\x0b\x0c\x1c\x1d\x1e\u2029"]),
])
def test_split_lines_breaks_only_at_newline(text, lines):
    assert split_lines(text) == lines


# every character str.splitlines() (or a text-mode read of a lone "\r") takes for
# a line break, besides "\n", and a character of three UTF-8 bytes
LINE_BREAK_LOOKALIKES = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
READER_TEXTS = st.text(alphabet="ab \t\r\n" + LINE_BREAK_LOOKALIKES + "笑")


@settings(max_examples=200, deadline=None)
@given(READER_TEXTS)
@example("a\nb")  # no final "\n"
@example("a\nb\r")  # a lone "\r" just before the end: split_lines keeps it
@example("\r")
@example("x\r\r\n\r")
def test_streaming_reader_matches_split_lines(tmp_path_factory, text):
    data = text.encode("utf-8")
    path = tmp_path_factory.mktemp("reader") / "in.txt"
    path.write_bytes(data)
    assert list(iter_lines(io.BytesIO(data))) == split_lines(text)
    assert list(iter_lines(path)) == split_lines(text)
    assert read_lines(path) == split_lines(text)


def test_failed_write_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n")

    def lines():
        yield "new"
        raise RuntimeError("midway")

    with pytest.raises(RuntimeError, match="midway"):
        write_lines(path, lines())
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    assert path.read_bytes() == b"old\n"
    write_lines(path, ["new"])
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    assert path.read_bytes() == b"new\n"
