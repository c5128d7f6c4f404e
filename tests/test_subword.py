"""BPE learning, application, and round-trip tests."""

from __future__ import annotations

import hashlib
import io
import re
import tracemalloc
from collections import Counter
from pathlib import Path
from typing import Mapping

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phonoprep.errors import PhonoprepError
from phonoprep.pipeline import encode_corpus, make_token_encoder
from phonoprep.subword import (
    BpeModel,
    bpe_apply,
    bpe_decode,
    bpe_learn,
    iter_lines,
    load_bpe_model,
    map_tokens,
    read_lines,
    save_bpe_model,
    token_counts,
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


class TestTokenCounts:
    def test_blank_lines_hold_no_tokens(self):
        expected = bpe_learn({"ab": 3, "c": 1}, 5).merges
        assert expected == (("a", "b"),)
        assert bpe_learn(token_counts(["ab ab", "", " \t ", "ab c"]), 5).merges == expected
        with pytest.raises(PhonoprepError, match="^corpus has no tokens$"):
            bpe_learn(token_counts(["", " \t "]), 5)

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(st.text(max_size=20)
                          | st.sampled_from(["", " \t ", "a a", "b\u2028c a", "\u2028"]),
                          max_size=8))
    @example(lines=[])
    @example(lines=["x y", "", " \t ", "y\u2028x z x"])
    def test_matches_a_per_token_count(self, lines):
        want: dict[str, int] = {}
        for line in lines:
            for tok in line.split():
                want[tok] = want.get(tok, 0) + 1
        got = token_counts(iter(lines))  # one pass over the lines is enough
        assert got == want
        assert list(got) == list(want)  # tokens in order of first appearance


class TestLearn:
    def test_single_pair_corpus(self):
        # "a a" is the only pair occurring more than once
        model = bpe_learn(token_counts(["aa aa aa"]), 1)
        assert model.merges == (("a", "a"),)

    def test_zero_operations(self):
        model = bpe_learn(token_counts(["hello world"]), 0)
        assert model.merges == ()
        assert bpe_apply(["hello"], model) == ["h@@", "e@@", "l@@", "l@@", "o"]

    def test_stops_without_repeated_pairs(self):
        model = bpe_learn(token_counts(["a b c d e"]), 10)
        assert model.merges == ()

    def test_empty_corpus(self):
        with pytest.raises(PhonoprepError, match="^corpus has no tokens$"):
            bpe_learn(token_counts([""]), 5)

    def test_frequency_order(self):
        # "ab" appears 3 times, "cd" twice: (a,b) must be learned first
        model = bpe_learn(token_counts(["ab ab ab cd cd"]), 2)
        assert model.merges == (("a", "b"), ("c", "d"))

    def test_lexicographic_tie_break(self):
        # "xy" and "ab" both occur twice; (a,b) < (x,y)
        model = bpe_learn(token_counts(["xy ab xy ab"]), 1)
        assert model.merges == (("a", "b"),)

    def test_determinism(self):
        corpus = ["the cat sat on the mat", "the dog sat on the log"] * 3
        m1 = bpe_learn(token_counts(corpus), 20)
        m2 = bpe_learn(token_counts(corpus), 20)
        assert m1.merges == m2.merges

    def test_prefix_stability(self):
        # learning more operations extends, never rewrites, the merge list
        corpus = ["lower lower lowest newer newest wider widest"] * 2
        small = bpe_learn(token_counts(corpus), 5)
        big = bpe_learn(token_counts(corpus), 12)
        assert big.merges[:len(small.merges)] == small.merges

    def test_overlapping_runs_count_twice(self):
        # "aaa" holds (a,a) twice, so it alone reaches the two-occurrence floor
        assert bpe_learn(token_counts(["aaa"]), 5).merges == (("a", "a"),)

    def test_literal_end_of_word_text_is_ordinary_text(self):
        # "</w>" in a token is four characters like any others: building it
        # as a piece must not stop its pairs from being counted
        model = bpe_learn(token_counts(["x</w> x</w>"]), 10)
        assert model.merges[-1] == ("x", "</w>")
        assert bpe_apply(["x</w>"], model) == ["x</w>"]

    @settings(max_examples=300, deadline=None)
    @given(_small_corpus, st.integers(min_value=0, max_value=40))
    @example(["abb abb a"], 5)  # stale entries outnumber live pairs: heap is rebuilt
    @example(["x</w> x</w>"], 10)  # a piece equal to "</w>" keeps its pairs
    def test_matches_reference_learner(self, lines, ops):
        # ops well past the merge supply of these corpora exercises the early stop
        assert bpe_learn(token_counts(lines), ops).merges == reference_bpe_learn(lines, ops)

    @settings(max_examples=300, deadline=None)
    @given(_small_counts, st.integers(min_value=0, max_value=40))
    @example({"abcd": 2}, 3)  # one site at the start, its next pair shifts; heap rebuilt mid-run
    @example({"cabd": 2}, 1)  # one site in the middle
    @example({"cdab": 2}, 1)  # one site at the end
    @example({"abca": 2}, 1)  # left occurs twice but has one site: the word is re-counted
    @example({"aaaa": 2}, 5)  # an overlapping run: (a, a) twice, then (aa, aa)
    @example({"abab": 2}, 3)  # listed twice under (a, b): the second visit finds no site
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
        assert bpe_learn(dict(counts), ops).merges == bpe_learn(token_counts(lines), ops).merges

    @pytest.mark.parametrize("count", [0, -2])
    def test_counts_must_be_positive(self, count):
        with pytest.raises(ValueError, match="count"):
            bpe_learn({"ab": 3, "ba": count}, 5)

    def test_empty_counts(self):
        with pytest.raises(PhonoprepError, match="^corpus has no tokens$"):
            bpe_learn({}, 5)

    def test_empty_token_is_refused(self):
        # no str.split() token is empty, so one is refused by name
        with pytest.raises(ValueError, match="^tokens must not be empty$"):
            bpe_learn({"": 2, "ab": 2}, 3)

    def test_index_memory_stays_near_the_start(self):
        # the word index keeps only live pairs, so learning 2,000 merges on the
        # desk words needs little more memory than the tables learning starts from
        counts = token_counts(read_lines(DESK_CORPUS))

        def peak(ops):
            tracemalloc.start()
            try:
                bpe_learn(counts, ops)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2000) <= 1.3 * peak(0)

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
            save_bpe_model(bpe_learn(token_counts(corpus), ops), path)
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
        model = bpe_learn(token_counts(["ab@@ cd", "ab@@ ef", "xb@@ q"]), 10)
        with pytest.raises(PhonoprepError, match="^token 'ab@@' ends with the continuation"):
            bpe_apply(["ab@@", "cd"], model)
        with pytest.raises(PhonoprepError, match="^token '@@' ends with the continuation"):
            bpe_apply(["@@"], model)
        assert bpe_decode(bpe_apply(["a@@b", "@"], model), model) == ["a@@b", "@"]

    def test_rejects_empty_token(self):
        # no str.split() token is empty, and one has no pieces to mark
        with pytest.raises(PhonoprepError, match="^an empty token has no pieces$"):
            bpe_apply([""], BpeModel(merges=()))

    def test_segmentation_cache_is_per_model(self):
        coarse = bpe_learn(token_counts(["abab abab"]), 3)
        fine = bpe_learn(token_counts(["abab abab"]), 0)
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
            model = bpe_learn(token_counts(corpus), ops)
            counts.append(len(bpe_apply([word], model)))
        assert counts == sorted(counts, reverse=True)



def _learned_segments_match_a_fresh_model(counts: Mapping[str, int], ops: int) -> None:
    learned = bpe_learn(counts, ops)
    fresh = BpeModel(merges=learned.merges)
    assert learned._segments.keys() == counts.keys()
    for word in counts:
        assert learned._segments[word] == bpe_apply([word], fresh), word
        if ops == 0:
            assert learned._segments[word] == [c + "@@" for c in word[:-1]] + [word[-1]]


class TestLearnedSegments:
    """``bpe_learn`` hands its model each learned word's pieces, as ``bpe_apply`` gives them."""

    @settings(max_examples=300, deadline=None)
    @given(_small_counts, st.integers(min_value=0, max_value=40))
    @example({"aaaa": 2}, 5)  # an overlapping run merged twice, then (aa, aa)
    @example({"abca": 2}, 1)  # left occurs twice but has one site
    @example({"abc": 5, "ab": 4, "bc": 3}, 3)  # (b, c) re-queued below its heap entry
    def test_counts_form_matches_a_fresh_model(self, counts, ops):
        # ops well past the merge supply of these corpora exercises the early stop
        _learned_segments_match_a_fresh_model(counts, ops)

    @settings(max_examples=300, deadline=None)
    @given(_small_corpus, st.integers(min_value=0, max_value=40))
    def test_lines_form_matches_a_fresh_model(self, lines, ops):
        _learned_segments_match_a_fresh_model(token_counts(lines), ops)

    def test_marker_ending_word_is_left_to_bpe_apply(self):
        model = bpe_learn({"ab@@": 3, "ab": 2, "cd": 2}, 10)
        assert model._segments == {"ab": ["ab"], "cd": ["cd"]}
        with pytest.raises(PhonoprepError, match="^token 'ab@@' ends with the continuation"):
            bpe_apply(["ab@@"], model)

    def test_loaded_model_starts_empty_and_gives_the_same_pieces(self, tmp_path):
        counts = token_counts(["lower lower lowest newer newest wider widest"] * 2)
        model = bpe_learn(counts, 12)
        path = tmp_path / "merges.txt"
        save_bpe_model(model, path)
        loaded = load_bpe_model(path)
        assert loaded == model
        assert loaded._segments == {}
        for word in counts:
            assert bpe_apply([word], loaded) == model._segments[word]
        assert loaded._segments == model._segments


class TestDecode:
    def test_round_trip_sentence(self):
        corpus = ["this is a test", "this is another test"]
        model = bpe_learn(token_counts(corpus), 8)
        for line in corpus:
            tokens = line.split()
            assert bpe_decode(bpe_apply(tokens, model), model) == tokens

    def test_continuation_semantics(self):
        model = BpeModel(merges=())
        assert bpe_decode(["th@@", "is"], model) == ["this"]

    def test_dangling_continuation(self):
        model = BpeModel(merges=())
        with pytest.raises(PhonoprepError, match="^stream ends mid-word: 'th'$"):
            bpe_decode(["th@@"], model)

    @settings(max_examples=50)
    @given(st.lists(st.text(alphabet="abcdefgxyz", min_size=1, max_size=8), min_size=1, max_size=10))
    def test_round_trip_random(self, tokens):
        model = bpe_learn(token_counts([" ".join(tokens)]), 10)
        assert bpe_decode(bpe_apply(tokens, model), model) == tokens


class TestMergeFile:
    def test_save_load_round_trip(self, tmp_path):
        model = bpe_learn(token_counts(["ab ab abc abc abcd"]), 6)
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
        model = bpe_learn(token_counts([" ".join(tokens)]), ops)
        path = tmp_path_factory.mktemp("merges") / "merges.txt"
        save_bpe_model(model, path)
        assert load_bpe_model(path).merges == model.merges

    def test_early_stopping_model_survives_its_file(self, tmp_path):
        model = bpe_learn(token_counts(["ab ab cd"]), 50)
        assert len(model.merges) == 1  # no pair occurs twice after "ab"
        path = tmp_path / "merges.txt"
        save_bpe_model(model, path)
        assert load_bpe_model(path) == model

    @pytest.mark.parametrize("row", [" b", "a ", "a\tx c", "a b\x1c"])
    def test_merge_symbol_that_is_not_one_token_is_refused_by_line(self, tmp_path, row):
        path = tmp_path / "merges.txt"
        path.write_text(f"#version: 0.2\na b\n{row}\n", encoding="utf-8")
        with pytest.raises(PhonoprepError, match=f"^{re.escape(f'{path}:3: merge symbols')}"):
            load_bpe_model(path)

    def test_line_with_three_symbols_is_refused_by_line(self, tmp_path):
        path = tmp_path / "merges.txt"
        path.write_text("#version: 0.2\na b c\n", encoding="utf-8")
        with pytest.raises(PhonoprepError, match=f"^{re.escape(f'{path}:2:')} expected "
                                                 r"'left right', got 'a b c'$"):
            load_bpe_model(path)

    def test_merge_pair_listed_twice_is_refused_by_line(self, tmp_path):
        path = tmp_path / "merges.txt"
        path.write_text("#version: 0.2\na b\nab c\na b\n", encoding="utf-8")
        with pytest.raises(PhonoprepError, match=f"^{re.escape(f'{path}:4: merge pair')}"
                                                 r" 'a b' is listed twice, first at line 2$"):
            load_bpe_model(path)

    def test_blank_line_between_merges_is_skipped(self, tmp_path):
        path = tmp_path / "merges.txt"
        path.write_text("#version: 0.2\na b\n\nab c\n", encoding="utf-8")
        assert load_bpe_model(path).merges == (("a", "b"), ("ab", "c"))

    def test_model_with_a_pair_listed_twice_is_refused(self):
        with pytest.raises(ValueError, match="^duplicate merge pairs$"):
            BpeModel(merges=(("a", "b"), ("a", "b")))

    def test_header_and_layout(self, tmp_path):
        model = bpe_learn(token_counts(["aa aa"]), 1)
        path = tmp_path / "merges.txt"
        save_bpe_model(model, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("#version")
        assert lines[1] == "a a"

    def test_byte_identical_reruns(self, tmp_path):
        corpus = ["some words repeat some words repeat here"] * 5
        p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        save_bpe_model(bpe_learn(token_counts(corpus), 15), p1)
        save_bpe_model(bpe_learn(token_counts(corpus), 15), p2)
        assert p1.read_bytes() == p2.read_bytes()


def split_lines(text: str) -> list[str]:
    """The lines ``iter_lines`` reads from ``text``, split in one go: only ``"\\n"``
    ends a line, one ``"\\r"`` before it goes, and a non-empty tail is a line."""
    *lines, last = text.split("\n")
    lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    if last:
        lines.append(last)
    return lines


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
    assert list(iter_lines(io.BytesIO(text.encode("utf-8")))) == lines


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
