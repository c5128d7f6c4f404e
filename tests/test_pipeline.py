"""Pipeline tests: encoding alignment, stream combination, reproducibility."""

from __future__ import annotations

import hashlib
import json
import random
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonoprep import pipeline, subword
from phonoprep.clustering import encode_with_clusters, random_cluster_uniform
from phonoprep.encoders import bundled_table_path, load_code_table, table_encode
from phonoprep.errors import NonAlphabeticToken, PhonoprepError, PipelineStageError
from phonoprep.pipeline import (
    WORD_ENCODERS,
    PipelineConfig,
    combine,
    encode_corpus,
    make_token_encoder,
    run_pipeline,
)
from phonoprep.subword import (
    TypeMap,
    bpe_apply,
    bpe_decode,
    load_bpe_model,
    map_tokens,
    read_lines,
)

TRAIN = [
    "body but bad",
    "speak 42",
    "1 2 3",
    "the cat sat on the mat",
    "machines translate the sentences",
]


def _encode(lines, encoder):
    """``encode_corpus`` of the token counts of ``lines``, and the code lines
    its code strings give, as ``combine`` writes them."""
    enc = encode_corpus(Counter(tok for line in lines for tok in line.split()), encoder)
    return enc, [map_tokens(enc.codes, line.split()) for line in lines]


class TestEncodeCorpus:
    def test_table1_soundex_line(self):
        _, code_lines = _encode(["body but bad"], make_token_encoder("soundex"))
        assert code_lines == ["B300 B300 B300"]

    def test_digit_passthrough(self):
        enc, code_lines = _encode(["1 2 3"], make_token_encoder("soundex"))
        assert code_lines == ["1 2 3"]
        assert enc.passthrough_tokens == 3

    def test_mixed_line(self):
        _, code_lines = _encode(["speak 42"], make_token_encoder("soundex"))
        assert code_lines == ["S120 42"]

    def test_word_level_token_parity(self):
        enc, code_lines = _encode(TRAIN, make_token_encoder("metaphone"))
        assert enc.token_parity
        for w, c in zip(TRAIN, code_lines, strict=True):
            assert len(w.split()) == len(c.split())

    def test_letters_granularity_breaks_parity(self):
        enc, code_lines = _encode(["市"], make_token_encoder("pinyin", granularity="letters"))
        assert code_lines == ["s h i 4"]
        assert not enc.token_parity

    def test_sentence_count_preserved(self):
        _, code_lines = _encode(TRAIN, make_token_encoder("nysiis"))
        assert len(code_lines) == len(TRAIN)

    def test_empty_code_passes_the_token_through(self):
        # metaphone has no sound for "wh": an empty code would vanish from its line
        enc, code_lines = _encode(["the wh cat"], make_token_encoder("metaphone"))
        assert code_lines == ["0 wh KT"]
        assert enc.passthrough_tokens == 1
        assert enc.token_parity

    def test_counts_are_the_tokens_of_the_lines(self):
        enc, _ = _encode(["  speak 42 ,", "", "speak\tthe 42"], make_token_encoder("soundex"))
        assert enc.word_counts == Counter({"speak": 2, "42": 2, ",": 1, "the": 1})
        assert enc.code_counts == Counter({"S120": 2, "42": 2, ",": 1, "T000": 1})

    def test_counts_give_what_their_lines_give(self):
        # one code string per type gives the lines that encoding every token gives
        lines = ["  speak 42 ,", "", "speak\tthe 42", "the wh cat"]
        encoder = make_token_encoder("metaphone")
        _, code_lines = _encode(lines, encoder)
        assert code_lines == [" ".join(encoder(tok)[0] for tok in line.split())
                              for line in lines]


def _reference_encode(corpus, encode_token):
    """The per-token encode loop: ``encode_token`` runs on every token, no memo.

    Returns the code lines, the word and code token counts, parity and the
    passthrough count.
    """
    code_lines, word_counts, code_counts, passthrough, parity = [], Counter(), Counter(), 0, True
    for line in corpus:
        tokens = line.split()
        codes = []
        for tok in tokens:
            out, passed = encode_token(tok)
            passthrough += passed
            codes.extend(out)
        parity = parity and len(codes) == len(tokens)
        code_lines.append(" ".join(codes))
        word_counts.update(tokens)
        code_counts.update(" ".join(codes).split())
    return code_lines, word_counts, code_counts, parity, passthrough


def _reference_word_codec(codec):
    def encode_token(tok):
        try:
            return [codec(tok)], False
        except NonAlphabeticToken:
            return [tok], True
    return encode_token


PINYIN = load_code_table(bundled_table_path("pinyin"))
CLUSTERS = random_cluster_uniform(["ab", "ba", "cab", "x1", "笑", "9"], 0.5, seed=3)
REFERENCE_ENCODERS = {
    **{name: (lambda name=name: make_token_encoder(name),
              _reference_word_codec(codec))
       for name, codec in WORD_ENCODERS.items()},
    "pinyin": (lambda: make_token_encoder("pinyin"),
               lambda tok: (table_encode(tok, PINYIN, "per_character"), False)),
    "cluster": (lambda: make_token_encoder("cluster", cluster_model=CLUSTERS),
                lambda tok: (encode_with_clusters([tok], CLUSTERS), False)),
}
# a small pool so that tokens repeat, plus free-form letters, digits and punctuation
TOKENS = st.sampled_from(["ab", "ba", "cab", "x1", "9", "42", "...", "it's", "笑校",
                          "笑", "Ab", "-"]) | st.text("abcxAB19.,'-笑校", min_size=1,
                                                      max_size=5)
LINES = st.lists(st.tuples(TOKENS, st.sampled_from([" ", "  ", "\t"])), max_size=8).map(
    lambda pairs: "".join(tok + sep for tok, sep in pairs))


class TestTypeMemo:
    @pytest.mark.parametrize("name", sorted(REFERENCE_ENCODERS))
    @settings(max_examples=80, deadline=None)
    @given(train=st.lists(LINES, max_size=10), dev=st.lists(LINES, max_size=6))
    def test_matches_per_token_reference(self, name, train, dev):
        make, reference = REFERENCE_ENCODERS[name]
        memo = TypeMap(make())  # one memo, shared by both splits as in run_pipeline
        for corpus in (train, dev):
            got, code_lines = _encode(corpus, memo.__getitem__)
            assert (code_lines, got.word_counts, got.code_counts, got.token_parity,
                    got.passthrough_tokens) == _reference_encode(corpus, reference)

    def test_memo_hands_out_tuples(self):
        memo = TypeMap(make_token_encoder("metaphone"))
        assert memo["speak"] == ("SPK", False)
        assert memo["speak"] is memo["speak"]
        assert memo["42"] == ("42", True)

    def test_codec_runs_once_per_type_across_splits(self, tmp_path, monkeypatch):
        calls: Counter = Counter()
        codec = WORD_ENCODERS["metaphone"]

        def counting(tok):
            calls[tok] += 1
            return codec(tok)

        monkeypatch.setitem(pipeline.WORD_ENCODERS, "metaphone", counting)
        splits = {
            "train": TRAIN,
            "dev": ["the cat speaks", "42 machines", "body , bad ."],
            "test": ["the mat", "1 2 3 ,", "new words here"],
        }
        paths = {name: _write_corpus(tmp_path / f"{name}.txt", lines)
                 for name, lines in splits.items()}
        out = run_pipeline(PipelineConfig(
            train_path=str(paths["train"]), dev_path=str(paths["dev"]),
            test_path=str(paths["test"]), output_dir=str(tmp_path / "out"),
            encoder="metaphone", bpe_operations_words=4, bpe_operations_codes=4,
        ))
        types = {tok for lines in splits.values() for line in lines for tok in line.split()}
        assert set(calls) == types
        assert set(calls.values()) == {1}
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["passthrough_tokens"] == {"train": 4, "dev": 3, "test": 4}


def _combine(tmp_path, codes: dict[str, str], mode="concat", lines=None):
    """``combine`` of ``lines`` (default: ``codes``' keys, one a line) under an
    encoder giving ``codes``, with BPE that leaves every token whole."""
    lines = list(codes) if lines is None else lines
    encoded, _ = _encode(lines, lambda tok: (codes[tok], False))
    whole = TypeMap(lambda text: text)
    return combine(lines, encoded, (whole, whole), mode, "<sep>", tmp_path)


class TestCombine:
    def test_concat_line_shape(self, tmp_path):
        words, codes, concat = _combine(tmp_path, {"a": "X", "b": "Y"}, lines=["a b"])
        assert concat.read_text(encoding="utf-8") == "a b <sep> X Y\n"
        assert (words.name, codes.name) == ("corpus.words", "corpus.codes")
        assert codes.read_text(encoding="utf-8") == "X Y\n"

    def test_multi_source_parallel_files(self, tmp_path):
        *_, words, codes = _combine(tmp_path, {"a": "X", "b": "Y", "c": "Z"},
                                    mode="multi_source", lines=["a b", "c"])
        assert len(words.read_text(encoding="utf-8").splitlines()) == 2
        assert len(codes.read_text(encoding="utf-8").splitlines()) == 2

    def test_empty_code_line_keeps_separator(self, tmp_path):
        *_, path = _combine(tmp_path, {}, lines=[""])
        assert path.read_text(encoding="utf-8") == "<sep>\n"

    def test_separator_collision(self, tmp_path):
        with pytest.raises(PhonoprepError, match="^separator '<sep>' occurs in word stream line 1$"):
            _combine(tmp_path, {"a": "X", "<sep>": "Y", "b": "Z"}, lines=["a <sep> b"])
        assert list(tmp_path.iterdir()) == []

    def test_separator_inside_a_token_is_no_collision(self, tmp_path):
        *_, path = _combine(tmp_path, {"a<sep>b": "X<sep>"})
        assert path.read_text(encoding="utf-8") == "a<sep>b <sep> X<sep>\n"

    def test_separator_collision_names_stream_and_first_line(self, tmp_path):
        with pytest.raises(PhonoprepError, match="code stream line 2$"):
            _combine(tmp_path, {"a": "X<sep>", "b": "Y <sep>", "c": "<sep>"})

    def test_word_stream_is_named_before_an_earlier_code_line(self, tmp_path):
        with pytest.raises(PhonoprepError, match="word stream line 3$"):
            _combine(tmp_path, {"a": "X", "b": "<sep>", "<sep>": "Z"})


def _write_corpus(path: Path, lines) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _encoder(name: str) -> dict:
    """Config keys of an encoder a test names; ``cluster_uniform`` is uniform
    clustering, the ``cluster`` encoder with a ``cluster_fraction``."""
    if name == "cluster_uniform":
        return {"encoder": "cluster", "cluster_fraction": 0.5}
    return {"encoder": name}


def _dir_hashes(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestRunPipeline:
    def _config(self, tmp_path, **overrides) -> PipelineConfig:
        train = _write_corpus(tmp_path / "train.txt", TRAIN)
        defaults = dict(
            train_path=str(train),
            output_dir=str(tmp_path / "out"),
            encoder="soundex",
            combine_mode="concat",
            seed=13,
            bpe_operations_words=8,
            bpe_operations_codes=4,
        )
        defaults.update(overrides)
        return PipelineConfig(**defaults)

    def test_artifact_layout(self, tmp_path):
        out = run_pipeline(self._config(tmp_path))
        for sub in ("inputs", "models", "streams", "reports"):
            assert (out / sub).is_dir()
        assert (out / "manifest.json").is_file()
        assert (out / "streams" / "train.concat").is_file()

    def test_codes_only_mode(self, tmp_path):
        out = run_pipeline(self._config(tmp_path, combine_mode="codes_only",
                                        bpe_operations_words=0, bpe_operations_codes=0))
        codes = (out / "streams" / "train.codes").read_text(encoding="utf-8")
        assert codes.splitlines()[0] == "B300 B300 B300"

    def test_rerun_reproducibility(self, tmp_path):
        cfg = self._config(tmp_path)
        h1 = _dir_hashes(run_pipeline(cfg))
        h2 = _dir_hashes(run_pipeline(cfg))
        assert h1 == h2

    def test_numpy_integers_are_stored_as_plain_ints(self, tmp_path):
        cfg = self._config(tmp_path, seed=np.int64(13), bpe_operations_words=np.int32(8))
        assert type(cfg.seed) is int and type(cfg.bpe_operations_words) is int
        assert cfg == self._config(tmp_path)
        numpy_run = _dir_hashes(run_pipeline(cfg))  # the manifest's JSON echo writes them
        assert numpy_run == _dir_hashes(run_pipeline(self._config(tmp_path)))

    def test_manifest_checksums_match_files(self, tmp_path):
        out = run_pipeline(self._config(tmp_path))
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["seed"] == 13
        for rel, digest in manifest["files"].items():
            assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest

    def test_vocab_report_bounds(self, tmp_path):
        out = run_pipeline(self._config(tmp_path))
        vocab = json.loads((out / "reports" / "vocab.json").read_text(encoding="utf-8"))
        words = vocab["streams"]["words"]["unique"]
        codes = vocab["streams"]["codes"]["unique"]
        combined = vocab["streams"]["combined"]["unique"]
        assert max(words, codes) <= combined <= words + codes

    def test_dev_test_splits_use_train_models(self, tmp_path):
        dev = _write_corpus(tmp_path / "dev.txt", ["body speaks", "bad cat"])
        out = run_pipeline(self._config(tmp_path, dev_path=str(dev)))
        assert (out / "streams" / "dev.concat").is_file()
        assert (out / "inputs" / "dev.txt").is_file()

    def test_cluster_encoder_writes_model(self, tmp_path):
        out = run_pipeline(self._config(tmp_path, encoder="cluster"))
        assert (out / "models" / "clusters.tsv").is_file()
        codes = (out / "streams" / "train.codes").read_text(encoding="utf-8")
        assert codes.splitlines()[0].startswith("G")

    def test_multi_source_line_counts(self, tmp_path):
        out = run_pipeline(self._config(tmp_path, combine_mode="multi_source"))
        words = (out / "streams" / "train.src-words").read_text(encoding="utf-8")
        codes = (out / "streams" / "train.src-codes").read_text(encoding="utf-8")
        assert len(words.splitlines()) == len(codes.splitlines()) == len(TRAIN)

    def test_missing_input_reports_stage(self, tmp_path):
        cfg = PipelineConfig(
            train_path=str(tmp_path / "nope.txt"),
            output_dir=str(tmp_path / "out"),
        )
        with pytest.raises(PipelineStageError) as exc:
            run_pipeline(cfg)
        assert exc.value.stage == "read-inputs"

    def test_empty_codes_keep_the_streams_aligned(self, tmp_path):
        train = _write_corpus(tmp_path / "wh.txt", ["the wh cat", "gh hw sat"])
        out = run_pipeline(self._config(tmp_path, train_path=str(train), encoder="metaphone"))
        words = read_lines(out / "streams" / "train.words")
        codes = read_lines(out / "streams" / "train.codes")
        assert codes == ["0 wh KT", "gh hw ST"]
        assert [len(line.split()) for line in codes] == [len(line.split()) for line in words]
        word_part, code_part = read_lines(out / "streams" / "train.concat")[0].split(" <sep> ")
        models = {name: load_bpe_model(out / "models" / f"{name}.bpe")
                  for name in ("words", "codes")}
        assert bpe_decode(word_part.split(), models["words"]) == ["the", "wh", "cat"]
        assert bpe_decode(code_part.split(), models["codes"]) == ["0", "wh", "KT"]
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["token_parity"] == {"train": True}
        assert manifest["passthrough_tokens"] == {"train": 3}

    @pytest.mark.parametrize("separator", ["", " ", "a b", " <sep>", "x@@", "@@", 7, None])
    def test_separator_must_be_one_token(self, tmp_path, separator):
        with pytest.raises(ValueError, match="separator"):
            self._config(tmp_path, separator=separator)

    @pytest.mark.parametrize("separator", ["|||", "@@x", "<sep>"])
    def test_one_token_separator_is_accepted(self, tmp_path, separator):
        assert self._config(tmp_path, separator=separator).separator == separator

    @pytest.mark.parametrize("field", ["bpe_operations_words", "bpe_operations_codes"])
    @pytest.mark.parametrize("value", [2.5, True, False, -1, "3", None])
    def test_bpe_operations_must_be_a_count(self, tmp_path, field, value):
        with pytest.raises(ValueError, match=field):
            self._config(tmp_path, **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("train_path", 7), ("train_path", None), ("output_dir", None),
        ("output_dir", Path("out")), ("dev_path", 3), ("test_path", b"test.txt"),
        ("table_path", Path("t.tsv")),
    ])
    def test_path_fields_must_be_strings(self, tmp_path, field, value):
        with pytest.raises(ValueError, match=field):
            self._config(tmp_path, encoder="pinyin", **{field: value})

    def test_token_ending_with_marker_reports_stage(self, tmp_path):
        train = _write_corpus(tmp_path / "marked.txt", TRAIN + ["ab@@ cd"])
        with pytest.raises(PipelineStageError) as exc:
            run_pipeline(self._config(tmp_path, train_path=str(train)))
        assert exc.value.stage == "bpe-apply"
        assert "@@" in str(exc.value)

    def test_failed_run_leaves_no_output(self, tmp_path):
        train = _write_corpus(tmp_path / "marked.txt", TRAIN + ["ab@@ cd"])
        with pytest.raises(PipelineStageError):
            run_pipeline(self._config(tmp_path, train_path=str(train)))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["marked.txt", "train.txt"]

    def test_failed_run_keeps_earlier_output(self, tmp_path):
        out = run_pipeline(self._config(tmp_path))
        before = _dir_hashes(out)
        train = _write_corpus(tmp_path / "marked.txt", TRAIN + ["ab@@ cd"])
        with pytest.raises(PipelineStageError) as exc:
            run_pipeline(self._config(tmp_path, train_path=str(train)))
        assert exc.value.stage == "bpe-apply"
        assert _dir_hashes(out) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["marked.txt", "out", "train.txt"]

    def test_output_path_that_is_a_file_is_kept(self, tmp_path):
        blocker = tmp_path / "out"
        blocker.write_text("keep me\n", encoding="utf-8")
        with pytest.raises(OSError):
            run_pipeline(self._config(tmp_path))
        assert blocker.read_text(encoding="utf-8") == "keep me\n"

    def test_foreign_output_directory_is_kept(self, tmp_path):
        foreign = tmp_path / "out"
        foreign.mkdir()
        (foreign / "notes.txt").write_text("keep me\n", encoding="utf-8")
        with pytest.raises(FileExistsError):
            run_pipeline(self._config(tmp_path))
        assert _dir_hashes(foreign) == {"notes.txt": hashlib.sha256(b"keep me\n").hexdigest()}

    def test_empty_output_directory_is_used(self, tmp_path):
        (tmp_path / "out").mkdir()
        out = run_pipeline(self._config(tmp_path))
        assert (out / "manifest.json").is_file()

    def test_rerun_drops_stale_files(self, tmp_path):
        dev = _write_corpus(tmp_path / "dev.txt", TRAIN[:2])
        out = run_pipeline(self._config(tmp_path, dev_path=str(dev)))
        assert (out / "streams" / "dev.concat").is_file()
        run_pipeline(self._config(tmp_path))
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert set(_dir_hashes(out)) == set(manifest["files"]) | {"manifest.json"}

    def test_config_round_trip(self, tmp_path):
        cfg = self._config(tmp_path)
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg

    def test_config_unknown_key_is_typed_error(self, tmp_path):
        data = dict(self._config(tmp_path).to_dict(), fractoin=0.5)
        with pytest.raises(PhonoprepError, match="^unknown config key\\(s\\): fractoin$"):
            PipelineConfig.from_dict(data)

    def test_config_missing_key_is_typed_error(self, tmp_path):
        data = self._config(tmp_path).to_dict()
        del data["train_path"]
        with pytest.raises(PhonoprepError, match="^missing config key\\(s\\): train_path$"):
            PipelineConfig.from_dict(data)

    STAGE_FAILURES = {
        "read-inputs": {"train_path": "latin1.txt"},
        "build-encoder": {"encoder": "pinyin", "table_path": "bad-table.tsv"},
        "bpe-learn": {"train_path": "empty.txt"},
        "combine": {"train_path": "x.txt", "separator": "x"},
    }

    def test_separator_that_is_only_a_bpe_piece_collides(self, tmp_path):
        # no word is "b", but with no merges "ab" is written as "a@@ b"
        train = _write_corpus(tmp_path / "ab.txt", ["cd", "ab cd", "ab"])
        with pytest.raises(PipelineStageError, match="word stream line 2$") as exc:
            run_pipeline(self._config(tmp_path, train_path=str(train), separator="b",
                                      bpe_operations_words=0))
        assert exc.value.stage == "combine"

    @pytest.mark.parametrize("stage", sorted(STAGE_FAILURES))
    def test_failure_reports_stage_and_leaves_no_output(self, tmp_path, stage):
        (tmp_path / "latin1.txt").write_bytes(b"caf\xe9 bar\n")
        _write_corpus(tmp_path / "bad-table.tsv", ["no tab on this line"])
        _write_corpus(tmp_path / "empty.txt", [])
        _write_corpus(tmp_path / "x.txt", TRAIN + ["x marks the spot"])
        overrides = {k: str(tmp_path / v) if k.endswith("_path") else v
                     for k, v in self.STAGE_FAILURES[stage].items()}
        with pytest.raises(PipelineStageError) as exc:
            run_pipeline(self._config(tmp_path, **overrides))
        assert exc.value.stage == stage
        assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == []

    def test_cluster_uniform_needs_fraction(self, tmp_path):
        # uniform clustering is the cluster encoder with a fraction; the old name is unknown
        for fraction in (None, 0.5):
            with pytest.raises(ValueError, match="^unknown encoder 'cluster_uniform'; pick one"
                                                 " of .*'cluster'"):
                self._config(tmp_path, encoder="cluster_uniform", cluster_fraction=fraction)
            with pytest.raises(ValueError, match="^unknown encoder 'cluster_uniform'"):
                PipelineConfig.from_dict({"train_path": "t", "output_dir": "o",
                                          "encoder": "cluster_uniform",
                                          "cluster_fraction": fraction})

    @pytest.mark.parametrize("value", [True, False, 0, 0.0, -0.5, 1.5, 2, "0.5",
                                       float("nan"), float("inf")])
    def test_cluster_fraction_must_be_a_fraction(self, tmp_path, value):
        with pytest.raises(ValueError, match="cluster_fraction"):
            self._config(tmp_path, encoder="cluster", cluster_fraction=value)

    @pytest.mark.parametrize("value", [0.25, 1e-9, 1, 1.0])
    def test_fraction_in_range_is_accepted(self, tmp_path, value):
        cfg = self._config(tmp_path, encoder="cluster", cluster_fraction=value)
        assert cfg.cluster_fraction == value

    @pytest.mark.parametrize("value", [True, False, 1.5, 2.0, "7", None, -1])
    def test_seed_must_be_an_integer_numpy_accepts(self, tmp_path, value):
        with pytest.raises(ValueError, match="seed"):
            self._config(tmp_path, seed=value)

    @pytest.mark.parametrize("encoder,message", [
        # the cluster encoder reads a fraction, but then no baseline
        ("cluster", "^cluster_baseline is read only without cluster_fraction$"),
        ("metaphone", "^cluster_fraction is read only by cluster$"),
        ("pinyin", "^cluster_fraction is read only by cluster$"),
    ], ids=["cluster", "metaphone", "pinyin"])
    def test_cluster_fraction_needs_cluster_uniform(self, tmp_path, encoder, message):
        baseline = "soundex" if encoder == "cluster" else "metaphone"
        with pytest.raises(ValueError, match=message):
            self._config(tmp_path, encoder=encoder, cluster_fraction=0.25,
                         cluster_baseline=baseline)

    @pytest.mark.parametrize("encoder", ["metaphone", "cluster", "cluster_uniform"])
    def test_table_path_needs_a_table_encoder(self, tmp_path, encoder):
        with pytest.raises(ValueError, match="table_path"):
            self._config(tmp_path, **_encoder(encoder), table_path="/nonexistent.tsv")

    @pytest.mark.parametrize("field,value,encoder", [
        ("granularity", "bogus", "pinyin"),
        ("granularity", "bogus", "metaphone"),
        ("cluster_baseline", "bogus", "cluster"),
        ("cluster_baseline", "pinyin", "cluster"),
    ])
    def test_unknown_granularity_or_baseline_is_refused(self, tmp_path, field, value, encoder):
        with pytest.raises(ValueError, match=field):
            self._config(tmp_path, encoder=encoder, **{field: value})

    @pytest.mark.parametrize("field,value,encoder", [
        ("granularity", "letters", "metaphone"),
        ("granularity", "letters", "cluster"),
        ("cluster_baseline", "soundex", "metaphone"),
        ("cluster_baseline", "soundex", "pinyin"),
        ("cluster_baseline", "soundex", "cluster_uniform"),
    ])
    def test_value_an_encoder_never_reads_is_refused(self, tmp_path, field, value, encoder):
        with pytest.raises(ValueError, match=field):
            self._config(tmp_path, **_encoder(encoder), **{field: value})

    @pytest.mark.parametrize("field,value,encoder", [
        ("granularity", "letters", "pinyin"),
        ("granularity", "letters", "wubi"),
        ("cluster_baseline", "soundex", "cluster"),
    ])
    def test_value_its_encoder_reads_is_accepted(self, tmp_path, field, value, encoder):
        assert getattr(self._config(tmp_path, encoder=encoder, **{field: value}), field) == value

    @pytest.mark.parametrize("encoder", ["pinyin", "wubi"])
    def test_table_path_is_read_by_table_encoders(self, tmp_path, encoder):
        table = _write_corpus(tmp_path / "t.tsv", ["笑\tZZ"])
        train = _write_corpus(tmp_path / "zh.txt", ["笑 我"])
        out = run_pipeline(self._config(tmp_path, encoder=encoder, train_path=str(train),
                                        table_path=str(table)))
        assert (out / "streams" / "train.codes").read_text(encoding="utf-8") == "ZZ 我\n"


PIN_SPLITS = {
    "train": TRAIN + ["笑 校 是 时 我", "the sat mat , cat"],
    "dev": ["the cat speaks", "42 machines 笑", "body , bad ."],
    "test": ["the mat", "1 2 3 ,", "new words 我 here"],
}


class TestManifestFilePins:
    """SHA-256 of ``json.dumps(manifest["files"], sort_keys=True)``, recorded
    before the manifest came to list the build directory; the ``config`` echo
    holds temporary paths, so only the ``files`` block is pinned."""

    PINS = {
        ("metaphone", "codes_only"):
            "eb4209eec7ff3a3d45e93c5b0b8df5dcd929c684da5ae2fb8ec5f06d8aa999ca",
        ("metaphone", "concat"):
            "b2310e4b1e2d602508fcb8fba938aa5f3cd58ec6eb4f8081b0c89c70bc41c58a",
        ("metaphone", "multi_source"):
            "e424b5224e62ba252ee63db334b59e674ed52045c4bfd7c2e51986d1da6e57e6",
        ("cluster", "concat"):
            "2ac9e6c9cef9186d4e232b02736a44beee8ee30711a04d87421078f401db0e13",
        ("pinyin", "multi_source"):
            "312ea4f92aa2da4717effae1d5028a044ae3766229d965471c673f62af1dff9e",
    }

    # the same run as ("cluster", "concat") with cluster_fraction=0.5, recorded when
    # uniform clustering had an encoder name of its own, cluster_uniform
    UNIFORM_PIN = "92b8c52d8fd765432feccef82d492ce46d8b11fc61e7306b12370756fe1ddafd"

    def _files_hash(self, tmp_path, **config) -> str:
        paths = {f"{name}_path": str(_write_corpus(tmp_path / f"{name}.txt", lines))
                 for name, lines in PIN_SPLITS.items()}
        out = run_pipeline(PipelineConfig(
            **paths, output_dir=str(tmp_path / "out"), seed=7, bpe_operations_words=12,
            bpe_operations_codes=6, **config,
        ))
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        block = json.dumps(manifest["files"], sort_keys=True).encode("utf-8")
        return hashlib.sha256(block).hexdigest()

    @pytest.mark.parametrize("encoder,mode", sorted(PINS))
    def test_files_block_is_pinned(self, tmp_path, encoder, mode):
        assert self._files_hash(tmp_path, encoder=encoder, combine_mode=mode) == \
            self.PINS[encoder, mode]

    def test_uniform_cluster_files_block_is_pinned(self, tmp_path):
        assert self._files_hash(tmp_path, encoder="cluster", combine_mode="concat",
                                cluster_fraction=0.5) == self.UNIFORM_PIN


class TestPerTypeSegmentation:
    """The BPE streams ``run_pipeline`` writes, against ``bpe_apply`` run line by line."""

    ENCODERS = {
        "metaphone": {"encoder": "metaphone"},
        "pinyin-letters": {"encoder": "pinyin", "granularity": "letters"},
        "cluster": {"encoder": "cluster"},
    }

    def test_each_type_is_segmented_once_per_run(self, tmp_path, monkeypatch):
        # pinyin code strings share code tokens ("xiao4" and "xiao4 shi4"): each
        # token type and code string is looked up in BPE once per run; the
        # learners hand over the pieces of every training type, so each model
        # segments only the types its learner did not count, each once
        segments, applies = Counter(), Counter()
        segment, apply = subword._segment, pipeline.bpe_apply

        def counting_segment(word, model):
            segments[id(model), word] += 1
            return segment(word, model)

        def counting_apply(tokens, model):
            applies[" ".join(tokens)] += 1
            return apply(tokens, model)

        monkeypatch.setattr(subword, "_segment", counting_segment)
        monkeypatch.setattr(pipeline, "bpe_apply", counting_apply)
        rng = random.Random(0)
        splits = {name: [" ".join("".join(rng.choices("笑校是时我你他们ab", k=rng.randint(1, 3)))
                                  for _ in range(5)) for _ in range(n)]
                  for name, n in (("train", 12), ("dev", 6), ("test", 6))}
        splits["test"].append("好c 好")  # code tokens the training split lacks
        paths = {f"{name}_path": str(_write_corpus(tmp_path / f"{name}.txt", lines))
                 for name, lines in splits.items()}
        run_pipeline(PipelineConfig(**paths, output_dir=str(tmp_path / "out"), encoder="pinyin",
                                    bpe_operations_words=20, bpe_operations_codes=20))
        words = {tok for lines in splits.values() for line in lines for tok in line.split()}
        encoder = make_token_encoder("pinyin")
        code_strings = {encoder(tok)[0] for tok in words}
        codes = {code for text in code_strings for code in text.split()}
        assert sum(len(text.split()) for text in code_strings) > len(codes)
        assert sum(applies.values()) == len(words) + len(code_strings)
        train_words = {tok for line in splits["train"] for tok in line.split()}
        train_codes = {code for tok in train_words for code in encoder(tok)[0].split()}
        assert words - train_words and codes - train_codes  # held-out splits bring new types
        unseen = Counter(words - train_words) + Counter(codes - train_codes)
        assert set(segments.values()) == {1}  # no model segments a type twice
        assert Counter(word for _, word in segments) == unseen

    @pytest.mark.parametrize("name", sorted(ENCODERS))
    @settings(max_examples=30, deadline=None)
    @given(train=st.lists(LINES, max_size=8), dev=st.lists(LINES, max_size=5),
           test=st.lists(LINES, max_size=5), ops=st.integers(min_value=0, max_value=30))
    def test_streams_match_the_per_line_reference(self, name, train, dev, test, ops):
        # train needs a token; dev and test always hold types that train lacks
        splits = {"train": ["ab ba 笑"] + train, "dev": dev + ["zz 校 ab"],
                  "test": ["qq 9 笑校"] + test}
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            paths = {f"{split}_path": str(_write_corpus(tmp / f"{split}.txt", lines))
                     for split, lines in splits.items()}
            out = run_pipeline(PipelineConfig(
                **paths, output_dir=str(tmp / "out"), combine_mode="multi_source",
                bpe_operations_words=ops, bpe_operations_codes=ops, **self.ENCODERS[name],
            ))
            for stream in ("words", "codes"):
                model = load_bpe_model(out / "models" / f"{stream}.bpe")
                for split in splits:
                    plain = read_lines(out / "streams" / f"{split}.{stream}")
                    want = [" ".join(bpe_apply(line.split(), model)) for line in plain]
                    got = read_lines(out / "streams" / f"{split}.src-{stream}")
                    assert got == want, (split, stream)


# every character str.splitlines() (or a text-mode read of a lone "\r") takes for
# a line break, besides "\n"; str.split() treats all of them as whitespace
LINE_BREAK_LOOKALIKES = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
line_texts = st.lists(st.text(alphabet="ab \t" + LINE_BREAK_LOOKALIKES, max_size=8),
                      max_size=6)


class TestLineBoundaries:
    @settings(max_examples=25, deadline=None)
    @given(line_texts, line_texts, st.sampled_from(["concat", "multi_source"]))
    def test_streams_keep_the_input_line_count(self, train, dev, mode):
        train = ["a b"] + train  # bpe-learn needs a token
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for name, lines in (("train", train), ("dev", dev)):
                (tmp / f"{name}.txt").write_bytes(
                    "".join(line + "\n" for line in lines).encode("utf-8"))
            out = run_pipeline(PipelineConfig(
                train_path=str(tmp / "train.txt"), dev_path=str(tmp / "dev.txt"),
                output_dir=str(tmp / "out"), combine_mode=mode,
                bpe_operations_words=5, bpe_operations_codes=5,
            ))
            streams = sorted((out / "streams").iterdir())
            assert streams
            for path in streams:
                expected = len(train if path.name.startswith("train.") else dev)
                assert path.read_bytes().count(b"\n") == expected, path.name

    def test_crlf_input_gives_the_lf_streams(self, tmp_path):
        for name, ending in (("lf", "\n"), ("crlf", "\r\n")):
            train = tmp_path / f"{name}.txt"
            train.write_bytes("".join(line + ending for line in TRAIN).encode("utf-8"))
            run_pipeline(PipelineConfig(train_path=str(train),
                                        output_dir=str(tmp_path / name)))
        for stream in ("train.concat", "train.words", "train.codes"):
            lf = (tmp_path / "lf" / "streams" / stream).read_bytes()
            assert (tmp_path / "crlf" / "streams" / stream).read_bytes() == lf


class TestStreamedMemory:
    def test_peak_does_not_grow_with_the_line_count(self, tmp_path):
        # the pipeline-desk config on the first 2,000 desk lines, once and four
        # times over: the same types, four times the lines
        desk = Path(__file__).parent.parent / "data" / "desk_en.txt"
        head = b"".join(desk.read_bytes().splitlines(keepends=True)[:2000])
        peaks = {}
        for copies in (1, 4):
            train = tmp_path / f"train-{copies}.txt"
            train.write_bytes(head * copies)
            config = PipelineConfig(
                train_path=str(train), output_dir=str(tmp_path / f"out-{copies}"),
                encoder="metaphone", combine_mode="concat", seed=7,
                bpe_operations_words=2000, bpe_operations_codes=1000)
            tracemalloc.start()
            try:
                run_pipeline(config)
                peaks[copies] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4] <= 1.3 * peaks[1], peaks
