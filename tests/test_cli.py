"""CLI dispatch, exit codes, formats, and seed policy."""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import re
import subprocess
import sys
import tempfile
import tomllib
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonoprep.cli import _parsers, build_parser, main
from phonoprep.clustering import save_cluster_model
from phonoprep.encoders import bundled_table_path, load_code_table, table_encode
from phonoprep.errors import NonAlphabeticToken
from phonoprep.evaluate import vocab_stats
from phonoprep.geometry import load_embeddings, pca_project
from phonoprep.pipeline import (
    ENCODERS,
    WORD_ENCODERS,
    PipelineConfig,
    cluster_corpus,
    run_pipeline,
)
from phonoprep.subword import token_counts

DESK_CORPUS = Path(__file__).parent.parent / "data" / "desk_en.txt"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDispatch:
    def test_encode_soundex_stdin(self, capsys, monkeypatch, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("body\n", encoding="utf-8")
        code, out, _ = run_cli(["encode", "--codec", "soundex", "--input", str(src)], capsys)
        assert code == 0
        assert out.strip() == "B300"

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, err = run_cli(["frobnicate"], capsys)
        assert code == 1
        assert "usage" in err.lower()

    def test_unexpected_error_while_parsing_is_internal_error(self, capsys, monkeypatch):
        def fail(parser, argv):
            raise RuntimeError("boom")

        monkeypatch.setattr("phonoprep.cli._apply_config_defaults", fail)
        code, out, err = run_cli(["encode", "--codec", "soundex"], capsys)
        assert (code, out) == (3, "")
        assert err == "phonoprep: internal error: boom\n"

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"], capsys)[0] == 0
        assert run_cli(["geometry", "--help"], capsys)[0] == 0

    def test_missing_file_is_data_error(self, capsys):
        code, _, err = run_cli(
            ["eval", "bleu", "--hyp", "/nonexistent/x", "--ref", "/nonexistent/y"],
            capsys,
        )
        assert code == 2
        assert "error" in err

    def test_seed_required_for_randomized_commands(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a b c\n", encoding="utf-8")
        code, _, err = run_cli(
            ["cluster", "--corpus", str(corpus), "--output", str(tmp_path / "m.tsv")],
            capsys,
        )
        assert code == 1
        assert "--seed" in err

    def test_seed_auto_accepted_and_recorded(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("aa bb cc dd\n", encoding="utf-8")
        model = tmp_path / "m.tsv"
        code, _, _ = run_cli(
            ["cluster", "--corpus", str(corpus), "--seed", "auto",
             "--output", str(model)],
            capsys,
        )
        assert code == 0
        assert "# seed:" in model.read_text(encoding="utf-8")

    @pytest.mark.parametrize("flags, options", [
        (["--fraction", "0.5"], {"fraction": 0.5}),
        (["--baseline", "soundex"], {"baseline": "soundex"}),
        ([], {}),
    ])
    def test_cluster_writes_cluster_corpus_model(self, capsys, tmp_path, flags, options):
        lines = ["body but bad", "speak 42 , space", "", "suppose body"]
        corpus = tmp_path / "c.txt"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        model = tmp_path / "m.tsv"
        code, _, _ = run_cli(["cluster", "--corpus", str(corpus), "--seed", "9",
                              "--output", str(model), *flags], capsys)
        assert code == 0
        save_cluster_model(cluster_corpus(token_counts(lines), 9, **options),
                           tmp_path / "want.tsv")
        assert model.read_bytes() == (tmp_path / "want.tsv").read_bytes()

    @pytest.mark.parametrize("flags, config", [
        (["--fraction", "0.5", "--baseline", "soundex"], None),
        (["--fraction", "0.5", "--baseline", "metaphone"], None),
        ([], {"baseline": "soundex", "fraction": 0.5}),
        (["--baseline", "soundex"], {"fraction": 0.5}),
    ])
    def test_baseline_with_fraction_is_data_error(self, capsys, tmp_path, flags, config):
        # uniform clustering reads no baseline, so a given one would be ignored
        corpus, model = tmp_path / "c.txt", tmp_path / "m.tsv"
        corpus.write_text("body but bad\nsuppose body\n", encoding="utf-8")
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
            flags = [*flags, "--config", str(tmp_path / "config.json")]
        code, out, err = run_cli(["cluster", "--corpus", str(corpus), "--seed", "1",
                                  "--output", str(model), *flags], capsys)
        assert (code, out) == (2, "")
        assert "--baseline" in err and "--fraction" in err
        assert not model.exists()


class TestEncode:
    MIXED = ["body but bad", "speak 42 , again", "", "  1 2   3 ", "it's the cat .",
             "body body ... speak"]

    @staticmethod
    def _per_token_output(lines, encode_token) -> bytes:
        # the encode loop the CLI ran before it called encode_corpus
        out_lines = []
        for line in lines:
            codes = []
            for tok in line.split():
                codes.extend(encode_token(tok))
            out_lines.append(" ".join(codes))
        return "".join(line + "\n" for line in out_lines).encode("utf-8")

    def test_empty_code_passes_the_token_through(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("the wh cat\n", encoding="utf-8")
        code, out, _ = run_cli(["encode", "--codec", "metaphone", "--input", str(src)], capsys)
        assert code == 0
        assert out == "0 wh KT\n"

    @pytest.mark.parametrize("codec", sorted(WORD_ENCODERS))
    def test_output_matches_per_token_loop(self, capsys, tmp_path, codec):
        src = tmp_path / "in.txt"
        src.write_text("\n".join(self.MIXED) + "\n", encoding="utf-8")
        out_path = tmp_path / "out.txt"
        code, _, _ = run_cli(["encode", "--codec", codec, "--input", str(src),
                              "--output", str(out_path)], capsys)
        assert code == 0

        def encode_token(tok):
            try:
                return [WORD_ENCODERS[codec](tok)]
            except NonAlphabeticToken:
                return [tok]

        assert out_path.read_bytes() == self._per_token_output(self.MIXED, encode_token)
        code, out, _ = run_cli(["encode", "--codec", codec, "--input", str(src)], capsys)
        assert out.encode("utf-8") == out_path.read_bytes()

    def test_pinyin_letters_match_per_token_loop(self, capsys, tmp_path):
        lines = ["笑 校笑 42", "", "校 x 笑"]
        src = tmp_path / "in.txt"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out_path = tmp_path / "out.txt"
        code, _, _ = run_cli(["encode", "--codec", "pinyin", "--granularity", "letters",
                              "--input", str(src), "--output", str(out_path)], capsys)
        assert code == 0
        table = load_code_table(bundled_table_path("pinyin"))
        assert out_path.read_bytes() == self._per_token_output(
            lines, lambda tok: table_encode(tok, table, "letters"))

    @pytest.mark.parametrize("codec,flags", [
        ("metaphone", ["--table", "/nonexistent.tsv"]),
        ("soundex", ["--granularity", "letters"]),
        ("nysiis", ["--granularity", "per_character"]),
        ("cluster", ["--table", "/nonexistent.tsv"]),
    ])
    def test_table_flag_for_a_codec_without_a_table_is_data_error(self, capsys, tmp_path,
                                                                  codec, flags):
        src = tmp_path / "in.txt"
        src.write_text("body but bad\n", encoding="utf-8")
        code, out, err = run_cli(["encode", "--codec", codec, *flags, "--input", str(src)],
                                 capsys)
        assert code == 2
        assert flags[0] in err
        assert out == ""

    @pytest.mark.parametrize("codec", ["metaphone", "soundex", "nysiis", "pinyin", "wubi"])
    def test_model_flag_for_a_codec_other_than_cluster_is_data_error(self, capsys, tmp_path,
                                                                     codec):
        src, out_path = tmp_path / "in.txt", tmp_path / "out.txt"
        src.write_text("body text\n", encoding="utf-8")
        code, out, err = run_cli(["encode", "--codec", codec, "--model", "/nonexistent/m.tsv",
                                  "--input", str(src), "--output", str(out_path)], capsys)
        assert (code, out) == (2, "")
        assert "--model is read only by --codec cluster" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("row", ["a\t", "a\tG 1", "a\tG1\tG2", "# seed: abc",
                                     "\tG2", "a b\tG2", "b\tG2"])
    def test_malformed_cluster_model_is_data_error(self, capsys, tmp_path, row):
        model, src = tmp_path / "m.tsv", tmp_path / "in.txt"
        model.write_text(f"b\tG1\n{row}\n", encoding="utf-8")
        src.write_text("a b\n", encoding="utf-8")
        code, out, err = run_cli(["encode", "--codec", "cluster", "--model", str(model),
                                  "--input", str(src)], capsys)
        assert (code, out) == (2, "")
        assert f"{model}:2: " in err

    def test_desk_corpus_metaphone_output_is_pinned(self, capsys, tmp_path):
        # SHA-256 of the output of the per-token loop on the desk corpus
        out_path = tmp_path / "codes.txt"
        code, _, _ = run_cli(["encode", "--codec", "metaphone", "--input", str(DESK_CORPUS),
                              "--output", str(out_path)], capsys)
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
            "d22c086e48d2f860221039490970eb6371e12cb4d42af915edb33e7854560e2a")


class TestEval:
    def test_bleu_identity_line(self, capsys, tmp_path):
        f = tmp_path / "f.txt"
        f.write_text("the cat sat on the mat\n", encoding="utf-8")
        code, out, _ = run_cli(["eval", "bleu", "--hyp", str(f), "--ref", str(f)], capsys)
        assert code == 0
        assert out.startswith("BLEU = 100.00")

    def test_bleu_json(self, capsys, tmp_path):
        f = tmp_path / "f.txt"
        f.write_text("a b c d e\n", encoding="utf-8")
        code, out, _ = run_cli(
            ["eval", "bleu", "--hyp", str(f), "--ref", str(f), "--format", "json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["bleu"] == pytest.approx(100.0)

    def test_line_count_mismatch_is_data_error(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("x\n", encoding="utf-8")
        b.write_text("x\ny\n", encoding="utf-8")
        code, _, _ = run_cli(["eval", "bleu", "--hyp", str(a), "--ref", str(b)], capsys)
        assert code == 2

    def test_bleu_reads_one_file_through_two_readers(self, capsys):
        desk = str(DESK_CORPUS)
        code, out, _ = run_cli(["eval", "bleu", "--hyp", desk, "--ref", desk], capsys)
        assert code == 0
        assert out.startswith("BLEU = 100.00")

    def test_bleu_names_both_line_counts(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("x\ny\nz\n", encoding="utf-8")
        b.write_text("x\n", encoding="utf-8")
        code, out, err = run_cli(["eval", "bleu", "--hyp", str(a), "--ref", str(b)], capsys)
        assert (code, out) == (2, "")
        assert "3 hypotheses vs 1 references" in err

    def test_bleu_hypothesis_not_utf8_on_its_last_line_is_data_error(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_bytes(b"x y\nz \xff\n")
        b.write_text("x y\nz w\n", encoding="utf-8")
        code, out, err = run_cli(["eval", "bleu", "--hyp", str(a), "--ref", str(b)], capsys)
        assert (code, out) == (2, "")
        assert "phonoprep: error: " in err and "internal error" not in err

    def test_vocab_csv(self, capsys, tmp_path):
        f = tmp_path / "v.txt"
        f.write_text("a b a\n", encoding="utf-8")
        code, out, _ = run_cli(["eval", "vocab", "--input", str(f)], capsys)
        assert code == 0
        assert "v.txt,2,3" in out

    def test_vocab_refuses_two_inputs_with_one_name(self, capsys, tmp_path):
        # streams are keyed by file name: a second t.txt would replace the first
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "t.txt").write_text(f"{sub} {sub}\n", encoding="utf-8")
        code, out, err = run_cli(["eval", "vocab", "--input", str(tmp_path / "a" / "t.txt"),
                                  "--input", str(tmp_path / "b" / "t.txt")], capsys)
        assert code == 2
        assert out == ""
        assert "'t.txt'" in err

    def test_vocab_json_is_the_report_payload(self, capsys, tmp_path):
        f = tmp_path / "v.txt"
        f.write_text("a b a\n\nc\n", encoding="utf-8")
        code, out, _ = run_cli(["eval", "vocab", "--input", str(f), "--format", "json"],
                               capsys)
        assert code == 0
        report = vocab_stats({"v.txt": token_counts(["a b a", "", "c"])})
        assert out == json.dumps(report.to_dict(), sort_keys=True) + "\n"


class TestGeometry:
    def _write_hand_example(self, tmp_path):
        points = tmp_path / "p.txt"
        points.write_text(
            "u1 0.0 0.0\nu2 2.0 0.0\nu3 0.0 2.0\nu4 2.0 2.0\n", encoding="utf-8"
        )
        groups = tmp_path / "g.tsv"
        groups.write_text("u1\tA\nu2\tA\nu3\tB\nu4\tB\n", encoding="utf-8")
        return groups, points

    def test_gamma_hand_example(self, capsys, tmp_path):
        groups, points = self._write_hand_example(tmp_path)
        code, out, _ = run_cli(
            ["geometry", "gamma", "--groups", str(groups), "--points", str(points)],
            capsys,
        )
        assert code == 0
        assert out.strip() == "0.5"

    def test_groups_file_units_starting_with_hash(self, capsys, tmp_path):
        points = tmp_path / "p.txt"
        points.write_text(
            "#u1 0.0 0.0\n#u2 2.0 0.0\nu3 0.0 2.0\nu4 2.0 2.0\n", encoding="utf-8"
        )
        groups = tmp_path / "g.tsv"
        groups.write_text("# groups\n#u1\tA\n#u2\tA\nu3\tB\nu4\tB\n", encoding="utf-8")
        code, out, _ = run_cli(
            ["geometry", "gamma", "--groups", str(groups), "--points", str(points)],
            capsys,
        )
        assert code == 0
        assert out.strip() == "0.5"

    def test_gamma_json_format(self, capsys, tmp_path):
        groups, points = self._write_hand_example(tmp_path)
        code, out, _ = run_cli(
            ["geometry", "gamma", "--groups", str(groups), "--points", str(points),
             "--format", "json"],
            capsys,
        )
        assert json.loads(out)["gamma"] == pytest.approx(0.5)

    def test_embed_project_round_trip(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text(
            "\n".join(["the cat sat here", "the dog sat there", "a cat and a dog"] * 10),
            encoding="utf-8",
        )
        vectors = tmp_path / "v.txt"
        code, _, _ = run_cli(
            ["geometry", "embed", "--corpus", str(corpus), "--dim", "4",
             "--seed", "3", "--output", str(vectors)],
            capsys,
        )
        assert code == 0
        projected = tmp_path / "p.txt"
        code, _, _ = run_cli(
            ["geometry", "project", "--vectors", str(vectors), "--output", str(projected)],
            capsys,
        )
        assert code == 0
        _, want = pca_project(load_embeddings(vectors))
        got = load_embeddings(projected)
        assert got.dimension == 2 and sorted(got.vectors) == sorted(want)
        for unit, point in want.items():
            assert got.vectors[unit].tolist() == point.tolist()
        # the projection is the --points input of the report subcommands
        groups = tmp_path / "g.tsv"
        groups.write_text("".join(f"{u}\t{'AB'[i % 2]}\n" for i, u in enumerate(sorted(want))),
                          encoding="utf-8")
        code, out, err = run_cli(
            ["geometry", "gamma", "--groups", str(groups), "--points", str(projected)],
            capsys,
        )
        assert (code, err) == (0, "")
        assert float(out) > 0

    def test_embed_seed_auto_is_recorded(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("the cat sat here\nthe dog sat there\n" * 5, encoding="utf-8")
        code, out, _ = run_cli(
            ["geometry", "embed", "--corpus", str(corpus), "--dim", "2",
             "--seed", "auto", "--output", str(tmp_path / "v.txt")],
            capsys,
        )
        assert code == 0
        (seed,) = re.findall(r"\(seed (\d+)\)$", out.strip())
        again = tmp_path / "again.txt"
        run_cli(["geometry", "embed", "--corpus", str(corpus), "--dim", "2",
                 "--seed", seed, "--output", str(again)], capsys)
        assert again.read_bytes() == (tmp_path / "v.txt").read_bytes()

    @pytest.mark.parametrize("lines, window", [("the cat sat\na dog ran\n", "0"),
                                                ("a\nb\nc\n", "5")])
    def test_embed_without_positive_ppmi_is_a_data_error(self, capsys, tmp_path, lines, window):
        corpus = tmp_path / "c.txt"
        corpus.write_text(lines, encoding="utf-8")
        vectors = tmp_path / "v.txt"
        code, out, err = run_cli(
            ["geometry", "embed", "--corpus", str(corpus), "--dim", "2", "--window", window,
             "--seed", "1", "--output", str(vectors)],
            capsys,
        )
        assert (code, out) == (2, "")
        assert "above chance" in err
        assert not vectors.exists()

    def test_cdf_and_coverage_csv(self, capsys, tmp_path):
        groups, points = self._write_hand_example(tmp_path)
        code, out, _ = run_cli(
            ["geometry", "cdf", "--groups", str(groups), "--points", str(points)],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "volume,fraction"
        code, out, _ = run_cli(
            ["geometry", "coverage", "--groups", str(groups), "--points", str(points),
             "--seed", "1"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "step,volume"

    @pytest.mark.parametrize("command", [["cdf"], ["coverage", "--seed", "1"],
                                         ["density", "--seed", "1"]])
    @pytest.mark.parametrize("dimension", [1, 3])
    def test_points_that_are_not_2d_are_a_data_error(self, capsys, tmp_path, command,
                                                     dimension):
        groups, points = tmp_path / "g.tsv", tmp_path / "p.txt"
        groups.write_text("".join(f"u{i}\tG{i % 6}\n" for i in range(30)), encoding="utf-8")
        rows = [" ".join([f"u{i}"] + [str(i * j % 7) for j in range(1, dimension + 1)])
                for i in range(30)]
        points.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "report.csv"
        code, stdout, err = run_cli(["geometry", *command, "--groups", str(groups),
                                     "--points", str(points), "--output", str(out)], capsys)
        assert (code, stdout) == (2, "")
        assert "2-D points" in err and "internal error" not in err
        assert not out.exists()

    def test_cdf_groups_too_small_for_an_area_still_need_2d_points(self, capsys, tmp_path):
        groups, points = tmp_path / "g.tsv", tmp_path / "p.txt"
        groups.write_text("a\tG1\nb\tG1\nc\tG2\nd\tG2\n", encoding="utf-8")
        points.write_text("a 0\nb 1\nc 2\nd 3\n", encoding="utf-8")
        code, stdout, err = run_cli(["geometry", "cdf", "--groups", str(groups),
                                     "--points", str(points)], capsys)
        assert (code, stdout) == (2, "")
        assert "2-D points" in err

    @pytest.mark.parametrize("command", [["gamma"], ["cdf"], ["coverage", "--seed", "1"],
                                         ["density", "--seed", "1"]])
    def test_groups_that_share_no_unit_with_the_points_are_refused(self, capsys, tmp_path,
                                                                    command):
        groups, points = tmp_path / "g.tsv", tmp_path / "p.txt"
        groups.write_text("x\tA\ny\tB\n", encoding="utf-8")
        points.write_text("u1 0.0 0.0\nu2 1.0 1.0\n", encoding="utf-8")
        out = tmp_path / "report.csv"
        code, stdout, err = run_cli(["geometry", *command, "--groups", str(groups),
                                     "--points", str(points), "--output", str(out)], capsys)
        assert (code, stdout) == (2, "")
        assert f"groups {groups} share no unit with points {points}" in err
        assert not out.exists()

    def test_density_where_smoothing_removes_every_point_names_the_count(self, capsys,
                                                                          tmp_path):
        groups, points = tmp_path / "g.tsv", tmp_path / "p.txt"
        groups.write_text("".join(f"u{i}\tG{i}\n" for i in range(6)), encoding="utf-8")
        points.write_text("".join(f"u{i} {10 * i}.0 {10 * (i % 2)}.0\n" for i in range(6)),
                          encoding="utf-8")
        code, out, err = run_cli(["geometry", "density", "--groups", str(groups),
                                  "--points", str(points), "--seed", "0",
                                  "--beta", "2", "--radius", "1"], capsys)
        assert (code, out) == (2, "")
        assert err == ("phonoprep: error: smoothed hull of all points is degenerate"
                       " (6 of 6 points removed as outliers)\n")

    def test_density_without_samples_is_data_error(self, capsys, tmp_path):
        paths = _write_report_inputs(tmp_path)
        code, out, err = run_cli(["geometry", "density", "--groups", str(paths["g.tsv"]),
                                  "--points", str(paths["p.txt"]), "--seed", "0",
                                  "--samples", "0"], capsys)
        assert code == 2
        assert out == ""
        assert "--samples must be >= 1" in err

    def test_coverage_succeeds_at_every_order_seed(self, capsys, tmp_path):
        # smoothing removes the whole pool where the far-apart pair comes first;
        # that step once failed the command, so success depended on --seed
        rows = [("far0", 50, 50, "G0"), ("far1", 90, 90, "G0")]  # five 6x5 grids beside them
        rows += [(f"u{g}_{i}", 5 * g + 0.2 * (i % 6), 0.2 * (i // 6), f"G{g}")
                 for g in range(1, 6) for i in range(30)]
        groups, points = tmp_path / "g.tsv", tmp_path / "p.txt"
        groups.write_text("".join(f"{u}\t{g}\n" for u, *_, g in rows), encoding="utf-8")
        points.write_text("".join(f"{u} {x:.1f} {y:.1f}\n" for u, x, y, _ in rows),
                          encoding="utf-8")
        first_steps = set()
        for seed in range(10):
            code, out, err = run_cli(["geometry", "coverage", "--groups", str(groups),
                                      "--points", str(points), "--beta", "3", "--radius",
                                      "0.5", "--seed", str(seed)], capsys)
            assert (code, err) == (0, ""), seed
            first_steps.add(out.splitlines()[1])
        assert "1,0.0" in first_steps

    @pytest.mark.parametrize("command", ["coverage", "density"])
    def test_csv_seed_auto_is_recorded_on_stderr(self, capsys, tmp_path, command):
        # six groups of five points: density samples five reference groups
        groups, points = tmp_path / "g.tsv", tmp_path / "p.txt"
        groups.write_text("".join(f"u{i}\tG{i % 6}\n" for i in range(30)), encoding="utf-8")
        points.write_text("".join(f"u{i} {(i * 7) % 11}.0 {(i * 5) % 13}.0\n"
                                  for i in range(30)), encoding="utf-8")
        argv = ["geometry", command, "--groups", str(groups), "--points", str(points)]
        if command == "density":
            argv += ["--samples", "256"]
        code, out, err = run_cli(argv + ["--seed", "auto"], capsys)
        assert code == 0
        (seed,) = re.findall(r"^phonoprep: seed (\d+)$", err, flags=re.M)
        code, again, err = run_cli(argv + ["--seed", seed], capsys)
        assert code == 0
        assert again == out
        assert err == ""


class TestBpeAndPipeline:
    def test_bpe_learn_apply_reverse(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("banana bandana\nbanana banner\n", encoding="utf-8")
        merges = tmp_path / "m.txt"
        code, _, _ = run_cli(
            ["bpe", "learn", "--corpus", str(corpus), "--operations", "5",
             "--output", str(merges)],
            capsys,
        )
        assert code == 0
        applied = tmp_path / "a.txt"
        code, _, _ = run_cli(
            ["bpe", "apply", "--model", str(merges), "--input", str(corpus),
             "--output", str(applied)],
            capsys,
        )
        assert code == 0
        restored = tmp_path / "r.txt"
        code, _, _ = run_cli(
            ["bpe", "apply", "--model", str(merges), "--input", str(applied),
             "--output", str(restored), "--reverse"],
            capsys,
        )
        assert code == 0
        assert restored.read_text(encoding="utf-8") == corpus.read_text(encoding="utf-8")

    def test_bpe_learn_on_the_desk_corpus_writes_the_pinned_merge_file(self, capsys,
                                                                        tmp_path):
        # the words digest of tests/test_subword.py::test_desk_merge_files_are_pinned
        merges = tmp_path / "m.txt"
        code, _, _ = run_cli(["bpe", "learn", "--corpus", str(DESK_CORPUS),
                              "--operations", "2000", "--output", str(merges)], capsys)
        assert code == 0
        assert hashlib.sha256(merges.read_bytes()).hexdigest() == (
            "220f63c70143585fa472e6a20e9e2e7cfa9abfeaab94cf78fd89fc2510941b61")

    def test_bpe_apply_rejects_token_ending_with_marker(self, capsys, tmp_path):
        merges = tmp_path / "m.txt"
        merges.write_text("#version: 0.2\na b\n", encoding="utf-8")
        src = tmp_path / "in.txt"
        src.write_text("ab cd\nab@@ cd\n", encoding="utf-8")
        code, _, err = run_cli(
            ["bpe", "apply", "--model", str(merges), "--input", str(src),
             "--output", str(tmp_path / "out.txt")],
            capsys,
        )
        assert code == 2
        assert "ab@@" in err
        assert not (tmp_path / "out.txt").exists()

    def test_failed_bpe_apply_keeps_the_old_output_and_leaves_no_temp_file(self, capsys,
                                                                           tmp_path):
        merges = tmp_path / "m.txt"
        merges.write_text("#version: 0.2\na b\n", encoding="utf-8")
        src = tmp_path / "in.txt"
        src.write_text("ab cd\n" * 50 + "cd ab@@", encoding="utf-8")  # the last line fails
        out = tmp_path / "out.txt"
        argv = ["bpe", "apply", "--model", str(merges), "--input", str(src),
                "--output", str(out)]
        assert run_cli(argv, capsys)[0] == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.txt", "m.txt"]
        out.write_bytes(b"earlier output\n")
        assert run_cli(argv, capsys)[0] == 2
        assert out.read_bytes() == b"earlier output\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.txt", "m.txt", "out.txt"]

    @pytest.mark.parametrize("argv, want", [
        (["bpe", "apply", "--model", "m.txt"], b"ab c@@ d\n\nab\n"),
        (["encode", "--codec", "soundex"], b"A100 C300\n\nA100\n"),
    ])
    def test_output_may_be_the_input_file(self, capsys, tmp_path, monkeypatch, argv, want):
        monkeypatch.chdir(tmp_path)
        Path("m.txt").write_text("#version: 0.2\na b\n", encoding="utf-8")
        Path("f.txt").write_bytes(b"ab cd\r\n\nab")
        assert run_cli([*argv, "--input", "f.txt", "--output", "f.txt"], capsys)[0] == 0
        assert Path("f.txt").read_bytes() == want
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.txt", "m.txt"]

    def test_pipeline_run_with_config_file(self, capsys, tmp_path):
        train = tmp_path / "train.txt"
        train.write_text("body but bad\nspeak space suppose\n", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "train-path": str(train),
            "output-dir": str(tmp_path / "out"),
            "encoder": "soundex",
            "combine-mode": "concat",
            "bpe-operations-words": 4,
            "bpe-operations-codes": 2,
        }), encoding="utf-8")
        code, out, _ = run_cli(
            ["pipeline", "run", "--config", str(config), "--seed", "5"],
            capsys,
        )
        assert code == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["seed"] == 5
        assert manifest["config"]["encoder"] == "soundex"

    def test_cli_flag_overrides_config(self, capsys, tmp_path):
        train = tmp_path / "train.txt"
        train.write_text("body but bad\n", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "train-path": str(train),
            "output-dir": str(tmp_path / "out"),
            "encoder": "soundex",
        }), encoding="utf-8")
        code, _, _ = run_cli(
            ["pipeline", "run", "--config", str(config), "--seed", "5",
             "--encoder", "metaphone"],
            capsys,
        )
        assert code == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["encoder"] == "metaphone"


    def test_config_after_earlier_parsers_acts_as_in_a_fresh_process(self, capsys, tmp_path):
        first, second = build_parser(), build_parser()
        assert not {id(p) for p in _parsers(first)} & {id(p) for p in _parsers(second)}
        corpus = tmp_path / "c.txt"
        corpus.write_text("body but bad bed\nspeak speech\n", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"fraction": 0.5}), encoding="utf-8")
        out = tmp_path / "m.tsv"
        argv = ["cluster", "--config", str(config), "--corpus", str(corpus),
                "--seed", "3", "--output", str(out)]
        code, stdout, _ = run_cli(argv, capsys)
        in_process = out.read_bytes()
        out.unlink()
        fresh = subprocess.run([sys.executable, "-m", "phonoprep.cli", *argv],
                               capture_output=True, text=True)
        assert (code, stdout) == (fresh.returncode, fresh.stdout)
        assert in_process == out.read_bytes()
        assert b"# source: uniform" in in_process
        # the config reached only main's own parsers
        args = first.parse_args(["cluster", "--corpus", "c", "--seed", "1", "--output", "o"])
        assert args.fraction is None

    def test_unknown_config_key_is_data_error(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("body but bad speak\n", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"fractoin": 0.5}), encoding="utf-8")
        code, _, err = run_cli(
            ["cluster", "--config", str(config), "--corpus", str(corpus),
             "--seed", "1", "--output", str(tmp_path / "clusters.tsv")],
            capsys,
        )
        assert code == 2
        assert "fractoin" in err
        assert not (tmp_path / "clusters.tsv").exists()

    @pytest.mark.parametrize("argv, config, key", [
        (["encode", "--codec", "soundex"], {"command": "encode", "bpe_command": "apply"},
         "bpe_command"),
        (["eval", "vocab", "--input", "corp.txt"], {"pipeline_command": "run"},
         "pipeline_command"),
    ])
    def test_subcommand_name_is_not_a_config_key(self, capsys, monkeypatch, tmp_path,
                                                 argv, config, key):
        # a subcommand is chosen on the command line; its dest names no option
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"a b\n")))
        (tmp_path / "corp.txt").write_text("a b\n", encoding="utf-8")
        (tmp_path / "c.json").write_text(json.dumps(config), encoding="utf-8")
        code, out, err = run_cli([*argv, "--config", "c.json"], capsys)
        assert (code, out) == (2, "")
        assert "unknown key" in err and key in err

    def test_config_that_is_not_utf8_is_data_error(self, capsys, tmp_path):
        corpus, config = tmp_path / "c.txt", tmp_path / "config.json"
        corpus.write_text("body but bad speak\n", encoding="utf-8")
        config.write_bytes(b"\xff\xfe{}")
        code, out, err = run_cli(
            ["cluster", "--config", str(config), "--corpus", str(corpus),
             "--seed", "1", "--output", str(tmp_path / "clusters.tsv")],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith("phonoprep: error: ") and "utf-8" in err
        assert not (tmp_path / "clusters.tsv").exists()


class TestConfigValues:
    """A ``--config`` value gets the checks its flag gets, before any input is read."""

    @pytest.fixture
    def corpus(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("the cat sat\nthe dog sat\na cat and a dog\n", encoding="utf-8")
        return path

    def run(self, capsys, tmp_path, config, argv):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return run_cli([*argv, "--config", str(path)], capsys)

    @pytest.mark.parametrize("config, key", [
        ({"window": 1.5}, "window"), ({"dim": 2.5}, "dim"), ({"dim": True}, "dim"),
        ({"window": "3"}, "window"), ({"normalize": 1}, "normalize"),
        ({"normalize": "yes"}, "normalize"), ({"seed": -1}, "seed"), ({"seed": 2.5}, "seed"),
        ({"seed": False}, "seed"), ({"output": 7}, "output"),
    ])
    def test_bad_embed_value_is_refused_before_the_corpus_is_read(
            self, capsys, tmp_path, config, key):
        # checked even where a flag overrides it
        missing = tmp_path / "missing.txt"
        code, out, err = self.run(capsys, tmp_path, config,
                                  ["geometry", "embed", "--corpus", str(missing), "--seed", "1",
                                   "--output", str(tmp_path / "v.txt")])
        assert code == 2
        assert key in err and "internal error" not in err and "missing.txt" not in err
        assert out == "" and not (tmp_path / "v.txt").exists()

    @pytest.mark.parametrize("config, key", [
        ({"format": "xml"}, "format"), ({"format": "csv"}, "format"),
        ({"smooth": "yes"}, "smooth"), ({"smooth": 0}, "smooth"),
    ])
    def test_bad_bleu_value_is_refused(self, capsys, tmp_path, corpus, config, key):
        code, out, err = self.run(capsys, tmp_path, config,
                                  ["eval", "bleu", "--hyp", str(corpus), "--ref", str(corpus)])
        assert code == 2
        assert key in err and "internal error" not in err
        assert out == ""

    @pytest.mark.parametrize("config, key", [
        ({"index": 4}, "index"), ({"samples": True}, "samples"),
        ({"threshold": "0.1"}, "threshold"), ({"beta": False}, "beta"),
    ])
    def test_bad_density_value_is_refused(self, capsys, tmp_path, config, key):
        code, out, err = self.run(capsys, tmp_path, config,
                                  ["geometry", "density", "--groups", "/nonexistent/g.tsv",
                                   "--points", "/nonexistent/p.txt", "--seed", "1"])
        assert code == 2
        assert key in err and "nonexistent" not in err
        assert out == ""

    @pytest.mark.parametrize("inputs", ["x.txt", [3], [["x.txt"]]])
    def test_repeated_option_takes_a_list_of_its_values(self, capsys, tmp_path, corpus, inputs):
        code, out, err = self.run(capsys, tmp_path, {"inputs": inputs},
                                  ["eval", "vocab", "--input", str(corpus)])
        assert code == 2
        assert "inputs" in err and "internal error" not in err
        assert out == ""
        code, out, _ = self.run(capsys, tmp_path, {"inputs": [str(corpus)]},
                                ["eval", "vocab", "--input", str(tmp_path / "config.json")])
        assert code == 0
        assert out.splitlines()[1:] == ["c.txt,6,11", "config.json,2,2"]

    def test_good_values_act_as_their_flags(self, capsys, tmp_path, corpus):
        flags = ["geometry", "embed", "--corpus", str(corpus), "--output"]
        code, out, _ = run_cli([*flags, str(tmp_path / "a.txt"), "--seed", "4", "--dim", "2",
                                "--window", "2", "--normalize"], capsys)
        assert code == 0
        code, out_config, _ = self.run(capsys, tmp_path,
                                       {"dim": 2, "window": 2, "normalize": True},
                                       [*flags, str(tmp_path / "b.txt"), "--seed", "4"])
        assert code == 0
        assert out_config == out.replace("a.txt", "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_one_flat_config_serves_every_subcommand(self, capsys, tmp_path, corpus):
        config = {"format": "json", "smooth": True, "fraction": 1, "dim": 2}
        code, out, _ = self.run(capsys, tmp_path, config,
                                ["eval", "bleu", "--hyp", str(corpus), "--ref", str(corpus)])
        assert code == 0
        assert json.loads(out)["schema"] == "phonoprep/bleu-report/1"
        code, out, err = self.run(capsys, tmp_path, config,
                                  ["cluster", "--corpus", str(corpus), "--seed", "auto",
                                   "--output", str(tmp_path / "m.tsv")])
        assert code == 0
        assert len(re.findall(r"^phonoprep: seed \d+$", err, flags=re.M)) == 1
        assert "# source: uniform" in (tmp_path / "m.tsv").read_text(encoding="utf-8")

    def test_config_seed_acts_as_the_flag(self, capsys, tmp_path, corpus):
        code, _, _ = self.run(capsys, tmp_path, {"seed": 3},
                              ["cluster", "--corpus", str(corpus),
                               "--output", str(tmp_path / "a.tsv")])
        assert code == 0
        code, _, _ = run_cli(["cluster", "--corpus", str(corpus), "--seed", "3",
                              "--output", str(tmp_path / "b.tsv")], capsys)
        assert code == 0
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()

    @pytest.mark.parametrize("seed", ["-1", "abc", "2.5"])
    def test_config_seed_string_is_checked_where_a_flag_overrides_it(
            self, capsys, tmp_path, seed):
        code, out, err = self.run(capsys, tmp_path, {"seed": seed},
                                  ["cluster", "--corpus", str(tmp_path / "missing.txt"),
                                   "--seed", "2", "--output", str(tmp_path / "m.tsv")])
        assert code == 2
        assert f"config {tmp_path / 'config.json'}: seed " in err and seed in err
        assert "internal error" not in err and "missing.txt" not in err
        assert out == "" and not (tmp_path / "m.tsv").exists()

    def test_config_auto_seed_is_drawn_only_if_used(self, capsys, tmp_path, corpus):
        argv = ["cluster", "--corpus", str(corpus), "--output", str(tmp_path / "m.tsv")]
        code, _, err = self.run(capsys, tmp_path, {"seed": "auto"}, [*argv, "--seed", "2"])
        assert code == 0
        assert "phonoprep: seed" not in err
        assert "# seed: 2" in (tmp_path / "m.tsv").read_text(encoding="utf-8")
        code, _, err = self.run(capsys, tmp_path, {"seed": "auto"}, argv)
        assert code == 0
        (seed,) = re.findall(r"^phonoprep: seed (\d+)$", err, flags=re.M)
        assert f"# seed: {seed}" in (tmp_path / "m.tsv").read_text(encoding="utf-8")

    @pytest.mark.parametrize("argv", [
        ["cluster", "--corpus", "c.txt", "--output", "m.tsv"],
        ["pipeline", "run"],
        ["geometry", "embed", "--corpus", "c.txt", "--output", "v.txt"],
        ["geometry", "coverage", "--groups", "g.tsv", "--points", "p.txt"],
        ["geometry", "density", "--groups", "g.tsv", "--points", "p.txt"],
        ["augment", "noise", "--input", "i.txt", "--embeddings", "e.txt", "--output", "o.txt"],
        ["augment", "perturb", "--input", "i.txt", "--output", "o.txt", "-k", "1"],
    ])
    def test_seed_is_required_from_the_flag_or_the_config(self, capsys, tmp_path, argv):
        code, out, err = self.run(capsys, tmp_path, {"dim": 2}, argv)
        assert code == 1
        assert "error: the following arguments are required: --seed" in err
        assert out == ""

    def test_config_values_stand_in_for_required_flags(self, capsys, tmp_path, corpus):
        code, _, _ = run_cli(["bpe", "learn", "--corpus", str(corpus), "--operations", "3",
                              "--output", str(tmp_path / "a.txt")], capsys)
        assert code == 0
        code, _, err = self.run(capsys, tmp_path,
                                {"operations": 3, "output": str(tmp_path / "b.txt")},
                                ["bpe", "learn", "--corpus", str(corpus)])
        assert code == 0, err
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_config_alone_supplies_a_repeated_required_option(self, capsys, tmp_path, corpus):
        code, out, err = self.run(capsys, tmp_path, {"inputs": [str(corpus)]}, ["eval", "vocab"])
        assert code == 0, err
        assert out.splitlines() == ["stream,unique,total", "c.txt,6,11"]

    def test_config_given_with_an_equals_sign_acts_as_with_a_space(
            self, capsys, tmp_path, corpus):
        config = tmp_path / "e.json"
        config.write_text(json.dumps({"dim": 2, "window": 2, "seed": 4}), encoding="utf-8")
        runs = []
        for name, spelling in (("a.txt", ["--config", str(config)]),
                               ("b.txt", [f"--config={config}"])):
            code, out, err = run_cli(["geometry", "embed", "--corpus", str(corpus),
                                      "--output", str(tmp_path / name), *spelling], capsys)
            assert code == 0, err
            runs.append((out.replace(name, "V"), (tmp_path / name).read_bytes()))
        assert runs[0] == runs[1]

    def test_csv_format_is_refused_only_where_it_has_no_choice(self, capsys, tmp_path):
        groups = tmp_path / "g.tsv"
        groups.write_text("a\t0\nb\t0\nc\t1\nd\t1\n", encoding="utf-8")
        points = tmp_path / "p.txt"
        points.write_text("a 0 0\nb 1 0\nc 0 1\nd 1 1\n", encoding="utf-8")
        code, out, _ = self.run(capsys, tmp_path, {"format": "csv"},
                                ["geometry", "gamma", "--groups", str(groups),
                                 "--points", str(points)])
        assert code == 0
        assert out.startswith("gamma")


class TestAugmentCli:
    def test_perturb_round_trip(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("the cat sat on the mat\nthe dog barked\n", encoding="utf-8")
        out_path = tmp_path / "out.txt"
        code, _, _ = run_cli(
            ["augment", "perturb", "--input", str(src), "--output", str(out_path),
             "-k", "2", "--seed", "7"],
            capsys,
        )
        assert code == 0
        assert len(out_path.read_text(encoding="utf-8").splitlines()) == 2

    def test_noise_with_manifest(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("alpha beta gamma delta epsilon\n" * 5, encoding="utf-8")
        vectors = tmp_path / "v.txt"
        vectors.write_text(
            "alpha 1 0\nbeta 0.9 0.1\ngamma 0.8 0.2\ndelta 0.7 0.3\nepsilon 0.6 0.4\n",
            encoding="utf-8",
        )
        out_path = tmp_path / "noised.txt"
        manifest = tmp_path / "manifest.json"
        code, _, _ = run_cli(
            ["augment", "noise", "--input", str(src), "--embeddings", str(vectors),
             "--output", str(out_path), "--seed", "3", "--manifest", str(manifest)],
            capsys,
        )
        assert code == 0
        data = json.loads(manifest.read_text(encoding="utf-8"))
        assert data["seed"] == 3
        assert data["stats"]["total_tokens"] == 25

    def _noise_argv(self, tmp_path, output, manifest):
        src = tmp_path / "in.txt"
        src.write_text("alpha beta gamma delta epsilon\n" * 5, encoding="utf-8")
        vectors = tmp_path / "v.txt"
        vectors.write_text("alpha 1 0\nbeta 0.9 0.1\ngamma 0.8 0.2\ndelta 0.7 0.3\n"
                           "epsilon 0.6 0.4\n", encoding="utf-8")
        return ["augment", "noise", "--input", str(src), "--embeddings", str(vectors),
                "--output", str(output), "--seed", "3", "--manifest", str(manifest)]

    @pytest.mark.parametrize("relative", [False, True])
    def test_manifest_at_the_output_path_is_refused_before_any_work(
            self, capsys, monkeypatch, tmp_path, relative):
        # the manifest JSON once replaced the noised corpus, and the command exited 0
        out_path = tmp_path / "noised.txt"
        out_path.write_text("kept\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        argv = self._noise_argv(tmp_path, out_path, "noised.txt" if relative else out_path)
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"phonoprep: error: --manifest and --output name the same file {out_path}\n"
        assert out_path.read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize("manifest, made", [
        ("missing/m.json", []),  # once left the noised corpus behind
        ("m.json", ["m.json"]),  # a directory where the manifest goes
        ("m.json", ["noised.txt"]),  # a directory where the output goes
    ], ids=["missing-directory", "manifest-is-a-directory", "output-is-a-directory"])
    def test_bad_output_or_manifest_path_leaves_no_file(self, capsys, tmp_path, manifest, made):
        for name in made:
            (tmp_path / name).mkdir()
        argv = self._noise_argv(tmp_path, tmp_path / "noised.txt", tmp_path / manifest)
        code, out, _ = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["in.txt", "v.txt", *made])
        assert all(not any((tmp_path / name).iterdir()) for name in made)

    def test_noise_seed_auto_is_recorded_without_manifest(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("alpha beta gamma delta epsilon\n" * 5, encoding="utf-8")
        vectors = tmp_path / "v.txt"
        vectors.write_text(
            "alpha 1 0\nbeta 0.9 0.1\ngamma 0.8 0.2\ndelta 0.7 0.3\nepsilon 0.6 0.4\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            ["augment", "noise", "--input", str(src), "--embeddings", str(vectors),
             "--output", str(tmp_path / "noised.txt"), "--seed", "auto"],
            capsys,
        )
        assert code == 0
        (seed,) = re.findall(r"\(seed (\d+)\)$", out.strip())
        again = tmp_path / "again.txt"
        run_cli(["augment", "noise", "--input", str(src), "--embeddings", str(vectors),
                 "--output", str(again), "--seed", seed], capsys)
        assert again.read_bytes() == (tmp_path / "noised.txt").read_bytes()

    def test_perturb_seed_auto_is_recorded(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("the cat sat on the mat\nthe dog barked\n", encoding="utf-8")
        code, out, _ = run_cli(
            ["augment", "perturb", "--input", str(src), "--output", str(tmp_path / "o.txt"),
             "-k", "2", "--seed", "auto"],
            capsys,
        )
        assert code == 0
        assert re.fullmatch(r".*\(seed \d+\)", out.strip())


    @pytest.mark.parametrize("config, key", [
        ({"top_n": 2.5}, "top_n"), ({"top-n": True}, "top_n"),
        ({"fraction": True}, "fraction"), ({"fraction": [0.2]}, "fraction"),
    ])
    def test_noise_spec_values_from_config_are_refused(self, capsys, tmp_path, config, key):
        src = tmp_path / "in.txt"
        src.write_text("alpha beta gamma\n", encoding="utf-8")
        vectors = tmp_path / "v.txt"
        vectors.write_text("alpha 1 0\nbeta 0.9 0.1\ngamma 0.8 0.2\n", encoding="utf-8")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        code, _, err = run_cli(
            ["augment", "noise", "--config", str(cfg), "--input", str(src), "--embeddings",
             str(vectors), "--output", str(tmp_path / "noised.txt"), "--seed", "1"],
            capsys,
        )
        assert code == 2
        assert key in err and "internal error" not in err
        assert not (tmp_path / "noised.txt").exists()


class TestNegativeSeed:
    @pytest.mark.parametrize("argv", [
        ["geometry", "embed", "--dim", "2", "--corpus", "{corpus}"],
        ["cluster", "--corpus", "/nonexistent/c.txt"],
        ["augment", "perturb", "-k", "1", "--input", "/nonexistent/in.txt"],
        ["augment", "noise", "--input", "/nonexistent/in.txt",
         "--embeddings", "/nonexistent/v.txt"],
    ])
    def test_refused_before_any_input_is_read(self, capsys, tmp_path, argv):
        corpus = tmp_path / "small.txt"
        corpus.write_text("the cat sat\nthe dog sat\na cat and a dog\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        argv = [a.replace("{corpus}", str(corpus)) for a in argv]
        code, stdout, err = run_cli(argv + ["--seed", "-1", "--output", str(out)], capsys)
        assert code == 2
        assert "seed" in err and "-1" in err
        assert stdout == "" and not out.exists()


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "phonoprep.cli", "--version"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "phonoprep" in result.stdout

    def test_project_script_target_resolves(self):
        pyproject = Path(__file__).parent.parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        assert scripts == {"phonoprep": "phonoprep.cli:main"}
        module, _, name = scripts["phonoprep"].partition(":")
        assert getattr(importlib.import_module(module), name) is main


class TestPipelineRunCli:
    def test_every_config_field_has_a_flag(self):
        (run,) = [p for p in _parsers(build_parser()) if p.prog.endswith(" pipeline run")]
        dests = {action.dest for action in run._actions}
        assert {f.name for f in fields(PipelineConfig)} <= dests

    def test_encode_and_pipeline_run_offer_the_pipeline_encoders(self):
        offered = {p.prog: tuple(action.choices) for p in _parsers(build_parser())
                   for action in p._actions if action.dest in ("codec", "encoder")}
        assert offered == {"phonoprep encode": ENCODERS, "phonoprep pipeline run": ENCODERS}

    def test_cluster_uniform_without_fraction_is_data_error(self, capsys, tmp_path):
        # uniform clustering is the cluster encoder with a fraction; a config
        # that names it cluster_uniform, fraction or not, names no encoder
        train = tmp_path / "train.txt"
        train.write_text("body but bad\n", encoding="utf-8")
        config = tmp_path / "config.json"
        for fraction in ({}, {"cluster-fraction": 0.5}):
            config.write_text(json.dumps({"encoder": "cluster_uniform", **fraction}),
                              encoding="utf-8")
            code, _, err = run_cli(
                ["pipeline", "run", "--train-path", str(train), "--output-dir",
                 str(tmp_path / "out"), "--config", str(config), "--seed", "1"],
                capsys,
            )
            assert code == 2
            assert err == (f"phonoprep: error: config {config}: encoder must be one of "
                           f"{', '.join(ENCODERS)}, got 'cluster_uniform'\n")
            assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "train.txt"]

    @pytest.mark.parametrize("flags,field", [
        (["--encoder", "metaphone", "--cluster-fraction", "0.25"], "cluster_fraction"),
        (["--encoder", "metaphone", "--table-path", "/nonexistent.tsv"], "table_path"),
        (["--encoder", "metaphone", "--granularity", "letters"], "granularity"),
        (["--encoder", "metaphone", "--cluster-baseline", "soundex"], "cluster_baseline"),
    ])
    def test_unread_config_value_is_data_error(self, capsys, tmp_path, flags, field):
        train = tmp_path / "train.txt"
        train.write_text("body but bad\n", encoding="utf-8")
        code, _, err = run_cli(["pipeline", "run", "--train-path", str(train), "--output-dir",
                                str(tmp_path / "out"), "--seed", "1", *flags], capsys)
        assert code == 2
        assert field in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train.txt"]

    @pytest.mark.parametrize("separator", ["", " ", "a b", "x@@"])
    def test_separator_that_is_not_one_token_is_data_error(self, capsys, tmp_path, separator):
        train = tmp_path / "train.txt"
        train.write_text("body but bad\n", encoding="utf-8")
        code, _, err = run_cli(["pipeline", "run", "--train-path", str(train), "--output-dir",
                                str(tmp_path / "out"), "--seed", "1",
                                "--separator", separator], capsys)
        assert code == 2
        assert "separator" in err and "stage" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train.txt"]

    @pytest.mark.parametrize("key,value", [
        ("separator", 7), ("bpe-operations-words", 2.5), ("bpe-operations-codes", True),
    ])
    def test_config_value_of_the_wrong_type_is_data_error(self, capsys, tmp_path, key, value):
        train = tmp_path / "train.txt"
        train.write_text("body but bad\n", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train-path": str(train),
                                      "output-dir": str(tmp_path / "out"), key: value}),
                          encoding="utf-8")
        code, _, err = run_cli(["pipeline", "run", "--config", str(config), "--seed", "1"],
                               capsys)
        assert code == 2
        assert key.replace("-", "_") in err and "stage" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "train.txt"]

    def test_table_code_with_whitespace_is_data_error(self, capsys, tmp_path):
        train = tmp_path / "train.txt"
        train.write_text("x y\n", encoding="utf-8")
        table = tmp_path / "t.tsv"
        table.write_text("x\ta b\n", encoding="utf-8")
        code, _, err = run_cli(["pipeline", "run", "--train-path", str(train), "--output-dir",
                                str(tmp_path / "out"), "--seed", "1", "--encoder", "pinyin",
                                "--table-path", str(table)], capsys)
        assert code == 2
        assert "stage build-encoder" in err and "malformed table line" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.tsv", "train.txt"]

    @pytest.mark.parametrize("config,flags,field", [
        ({"encoder": "cluster", "cluster-fraction": True}, ["--seed", "1"],
         "cluster_fraction"),
        ({"encoder": "cluster", "cluster-fraction": 2}, ["--seed", "1"],
         "cluster_fraction"),
        ({"encoder": "cluster"}, ["--seed", "-5"], "seed"),
    ])
    def test_bad_cluster_value_is_data_error(self, capsys, tmp_path, config, flags, field):
        train = tmp_path / "train.txt"
        train.write_text("body but bad\n", encoding="utf-8")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"train-path": str(train),
                                    "output-dir": str(tmp_path / "out"), **config}),
                        encoding="utf-8")
        code, _, err = run_cli(["pipeline", "run", "--config", str(path), *flags], capsys)
        assert code == 2
        assert field in err and "stage" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "train.txt"]

    def test_missing_output_dir_is_data_error(self, capsys, tmp_path):
        train = tmp_path / "train.txt"
        train.write_text("body but bad\n", encoding="utf-8")
        code, _, err = run_cli(["pipeline", "run", "--train-path", str(train), "--seed", "1"],
                               capsys)
        assert code == 2
        assert re.search(r"output[-_]dir", err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train.txt"]

    def test_bpe_streams_match_bpe_apply_of_the_saved_models(self, capsys, tmp_path):
        # the learners hand the run the pieces of every training type; `bpe apply`
        # loads each merge file afresh and segments every type itself
        lines = DESK_CORPUS.read_text(encoding="utf-8").splitlines()
        splits = {"train": lines[:400], "dev": lines[400:500], "test": lines[500:600]}
        for name, part in splits.items():
            (tmp_path / f"{name}.txt").write_text("\n".join(part) + "\n", encoding="utf-8")
        train_types = set(token_counts(splits["train"]))
        assert all(set(token_counts(splits[name])) - train_types for name in ("dev", "test"))
        out = run_pipeline(PipelineConfig(
            **{f"{name}_path": str(tmp_path / f"{name}.txt") for name in splits},
            output_dir=str(tmp_path / "out"), encoder="metaphone",
            combine_mode="multi_source", bpe_operations_words=300, bpe_operations_codes=100))
        for name in splits:
            for stream in ("words", "codes"):
                model = out / "models" / f"{stream}.bpe"
                plain = out / "streams" / f"{name}.{stream}"
                applied = tmp_path / f"{name}.{stream}.bpe"
                code, _, _ = run_cli(["bpe", "apply", "--model", str(model), "--input",
                                      str(plain), "--output", str(applied)], capsys)
                assert code == 0
                got = (out / "streams" / f"{name}.src-{stream}").read_bytes()
                assert got == applied.read_bytes(), (name, stream)


LINE_BREAK_LOOKALIKES = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _lf_bytes(lines: list[str]) -> bytes:
    return "".join(line + "\n" for line in lines).encode("utf-8")


class TestLineBoundaries:
    """Only "\n" (with one "\r" before it dropped) ends an input line."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.text(alphabet="ab \t" + LINE_BREAK_LOOKALIKES, max_size=8),
                    max_size=6))
    def test_outputs_keep_the_input_line_count(self, lines):
        lines = ["a b a b"] + lines
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            src, ref = tmp / "in.txt", tmp / "ref.txt"
            src.write_bytes(_lf_bytes(lines))
            ref.write_bytes(_lf_bytes([" ".join(line.split()) for line in lines]))
            assert main(["bpe", "learn", "--corpus", str(src), "--operations", "3",
                         "--output", str(tmp / "m.bpe")]) == 0
            for argv in (
                ["encode", "--codec", "soundex", "--input", str(src)],
                ["bpe", "apply", "--model", str(tmp / "m.bpe"), "--input", str(src)],
                ["augment", "perturb", "--input", str(src), "-k", "1", "--seed", "3"],
            ):
                out = tmp / "out.txt"
                assert main(argv + ["--output", str(out)]) == 0, argv
                assert out.read_bytes().count(b"\n") == len(lines), argv
            # hyp and ref hold the same tokens, line by line
            assert main(["eval", "bleu", "--hyp", str(src), "--ref", str(ref),
                         "--format", "json", "--output", str(tmp / "bleu.json")]) == 0
            report = json.loads((tmp / "bleu.json").read_text(encoding="utf-8"))
            assert report["bleu"] == pytest.approx(100.0)

    def test_stdin_keeps_the_input_line_count(self, tmp_path):
        lines = ["a b", "caf\u0085e bar", "x\ry", "crlf\r", "\u2028", ""]
        model = tmp_path / "m.bpe"
        model.write_text("#version: 0.2\n", encoding="utf-8")
        for argv in (["encode", "--codec", "soundex"], ["bpe", "apply", "--model", str(model)]):
            result = subprocess.run(
                [sys.executable, "-m", "phonoprep.cli", *argv],
                input=_lf_bytes(lines), capture_output=True,
            )
            assert result.returncode == 0, result.stderr
            assert result.stdout.count(b"\n") == len(lines), argv


def _write_report_inputs(tmp_path: Path) -> dict[str, Path]:
    """Six groups of five integer points, a hyp/ref pair and two vocab streams.

    The hull of all points is the triangle (0, 0), (16, 0), (0, 16), so every
    density sample is a single exact product per coordinate, whatever order
    the BLAS kernel sums in.
    """
    paths = {name: tmp_path / name for name in
             ("g.tsv", "p.txt", "hyp.txt", "ref.txt", "a.txt", "b.txt", "emb.txt", "in.txt")}
    points = {i: {1: (16, 0), 2: (0, 16)}.get(i, ((i * 7) % 9, (i * 5) % 8)) for i in range(30)}
    paths["g.tsv"].write_text("".join(f"u{i}\tG{i % 6}\n" for i in points), encoding="utf-8")
    paths["p.txt"].write_text("".join(f"u{i} {x}.0 {y}.0\n" for i, (x, y) in points.items()),
                              encoding="utf-8")
    paths["hyp.txt"].write_text("the cat sat on a mat\nthe dog barked at it\nhello\n",
                                encoding="utf-8")
    paths["ref.txt"].write_text("the cat sat on the mat\nthe dog barked at the cat\nhi\n",
                                encoding="utf-8")
    paths["a.txt"].write_text("a b a\n\nc\n", encoding="utf-8")
    paths["b.txt"].write_text("x y z x\n", encoding="utf-8")
    paths["emb.txt"].write_text(
        "alpha 1 0\nbeta 0.9 0.1\ngamma 0.8 0.2\ndelta 0.7 0.3\nepsilon 0.6 0.4\n",
        encoding="utf-8",
    )
    paths["in.txt"].write_text("alpha beta gamma delta epsilon\n" * 5, encoding="utf-8")
    return paths


_GEOMETRY = ["--groups", "g.tsv", "--points", "p.txt"]
_HULL = ["--beta", "2", "--radius", "5"]
_DENSITY = ["geometry", "density", *_GEOMETRY, "--seed", "4", "--samples", "256"]
_BLEU = ["eval", "bleu", "--hyp", "hyp.txt", "--ref", "ref.txt"]
_VOCAB = ["eval", "vocab", "--input", "a.txt", "--input", "b.txt"]

# SHA-256 of the stdout of each report subcommand, recorded before the report
# types rendered themselves; file arguments are relative to the inputs above
REPORT_PINS = {
    "gamma-text": (
        ["geometry", "gamma", *_GEOMETRY],
        "94ac4fe03da8f0b42d199d7e05dfb482d725e2f9ea9b5e4f065a6c7fb75c7d11",
    ),
    "gamma-json": (
        ["geometry", "gamma", *_GEOMETRY, "--format", "json"],
        "c613578457aa9b98637780c37c3b8652b65819b4599c5874def2f459bc4de193",
    ),
    "gamma-csv": (
        ["geometry", "gamma", *_GEOMETRY, "--format", "csv"],
        "babe117d30e2bb86850adc1546c4fa2adb3a8a03dea5d1fc018976dc1ee69c78",
    ),
    "cdf-json": (
        ["geometry", "cdf", *_GEOMETRY, "--format", "json"],
        "cf73a65a3dffc9c322f1343b1d1d92173a71d6759ea67a020740cd1abaf25bf9",
    ),
    "cdf-csv": (
        ["geometry", "cdf", *_GEOMETRY, "--format", "csv"],
        "bd8601a0cfe16e942bc194b247dac081c18c36b130cc1f79049b59e6f3b017b9",
    ),
    "cdf-text": (
        ["geometry", "cdf", *_GEOMETRY, "--format", "text"],
        "bd8601a0cfe16e942bc194b247dac081c18c36b130cc1f79049b59e6f3b017b9",
    ),
    "cdf-hull-json": (
        ["geometry", "cdf", *_GEOMETRY, *_HULL, "--format", "json"],
        "85d5a5316fb8590b85a20213bd3ea4a4717eed63b57d984277e7c735fe0d2540",
    ),
    "cdf-hull-csv": (
        ["geometry", "cdf", *_GEOMETRY, *_HULL],
        "bfe686befead2cd736108d29e4ffdc95c584e8bfd591f7dba09b85998931ce58",
    ),
    "coverage-json": (
        ["geometry", "coverage", *_GEOMETRY, "--seed", "1", "--format", "json"],
        "197e8575ad7ccacfd4c3fb6379bbdd87d735b5e8c03f154d29f32396bf52d74e",
    ),
    "coverage-csv": (
        ["geometry", "coverage", *_GEOMETRY, "--seed", "1"],
        "d62bd700c50689673ec667e2672599c5aeef9a1a8006941a7c8972c00e38dc17",
    ),
    "coverage-text": (
        ["geometry", "coverage", *_GEOMETRY, "--seed", "1", "--format", "text"],
        "d62bd700c50689673ec667e2672599c5aeef9a1a8006941a7c8972c00e38dc17",
    ),
    "density-1-json": (
        [*_DENSITY, "--index", "1", "--format", "json"],
        "ae8b4d7bb76b97fa25826f862dde8d345f3da1c3e6e25429debfbc41da226bac",
    ),
    "density-1-csv": (
        [*_DENSITY, "--index", "1"],
        "c9c26b28fd43aeb4c19dd29a2f9dd2a2447faa6278084f396e9735b8cc7c93cc",
    ),
    "density-3-json": (
        [*_DENSITY, "--index", "3", "--format", "json"],
        "43765ed2b96e866174ff752984818af9a965fb37268719434c3295df4a5cd73b",
    ),
    "density-3-csv": (
        [*_DENSITY, "--index", "3", "--format", "csv"],
        "d233c0fa34d477937e3ac2e0a243d5deb9216c80d99803ebbcfce7ccf28d2a8f",
    ),
    "density-3-text": (
        [*_DENSITY, "--format", "text"],
        "d233c0fa34d477937e3ac2e0a243d5deb9216c80d99803ebbcfce7ccf28d2a8f",
    ),
    "bleu-text": (
        _BLEU,
        "a341bac0cd3541c0fa86442548aadaeea4c0388851b35ab12ee95e62c872cce5",
    ),
    "bleu-json": (
        [*_BLEU, "--format", "json"],
        "50ebe4ee3a563b2d5af690360f17b70b8f24a38c4ad369215d4d71e68d70833a",
    ),
    "bleu-smooth-text": (
        [*_BLEU, "--smooth"],
        "d46ec9035e08ed9dfba45441c630c5c6df38ea0e7c17b535b28cd258f8a00bbb",
    ),
    "bleu-smooth-json": (
        [*_BLEU, "--smooth", "--format", "json"],
        "de9f2a02fce65465fa21ef087d368425c39a3369a610f51773786858be517283",
    ),
    "vocab-json": (
        [*_VOCAB, "--format", "json"],
        "ff793eb494cbf4eb17d2177ccd4f16f3db3c60d9055d60f3c1d4f8edda95dc55",
    ),
    "vocab-csv": (
        _VOCAB,
        "705def6412edeaaaa2e47effca8b5101d2b4942693af98b6325b7a20a0de7a8a",
    ),
}


class TestReportBytes:
    @pytest.mark.parametrize("flags", [
        ["--beta", "nan", "--radius", "1"], ["--beta", "2", "--radius", "nan"],
        ["--beta", "inf", "--radius", "1"], ["--beta", "2", "--radius=-inf"],
        # a number that float() reads is a value after a space too, not an option
        ["--beta", "2", "--radius", "-inf"], ["--beta", "-1e3", "--radius", "1"],
        ["--radius", "-Infinity", "--beta", "2"], ["--beta", "-nan", "--radius", "1"],
        ["--beta", "2", "--radius", "-.5E-1_0"],
    ])
    def test_hull_params_must_be_finite(self, capsys, tmp_path, flags):
        paths = _write_report_inputs(tmp_path)
        argv = ["geometry", "cdf", *_GEOMETRY, *flags]
        code, out, err = run_cli([str(paths.get(a, a)) for a in argv], capsys)
        assert (code, out) == (2, "")
        assert "must be finite and positive" in err

    @settings(max_examples=300)
    @given(st.text(alphabet="0123456789._eE+-infatyINFATY", max_size=8))
    def test_every_float_literal_is_a_value_and_nothing_else(self, text):
        text = "-" + text
        try:
            want = float(text)
        except ValueError:
            want = None
        argv = ["geometry", "cdf", "--groups", "g", "--points", "p", "--radius", text]
        try:
            got = build_parser().parse_args(argv).radius
        except SystemExit as exc:  # ``--radius`` takes ``text`` for an option and lacks a value
            assert (exc.code, want) == (1, None)
        else:
            assert want is not None and (got == want or (got != got and want != want))

    @pytest.mark.parametrize("case", sorted(REPORT_PINS))
    def test_report_stdout_is_pinned(self, capsys, tmp_path, case):
        argv, digest = REPORT_PINS[case]
        paths = _write_report_inputs(tmp_path)
        code, out, err = run_cli([str(paths.get(a, a)) for a in argv], capsys)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, out

    def test_report_output_file_holds_the_stdout_bytes(self, capsys, tmp_path):
        argv, _ = REPORT_PINS["density-3-csv"]
        paths = _write_report_inputs(tmp_path)
        argv = [str(paths.get(a, a)) for a in argv]
        _, out, _ = run_cli(argv, capsys)
        code, _, _ = run_cli([*argv, "--output", str(tmp_path / "report.csv")], capsys)
        assert code == 0
        assert (tmp_path / "report.csv").read_bytes() == out.encode("utf-8")

    def test_noise_manifest_is_pinned(self, capsys, tmp_path):
        paths = _write_report_inputs(tmp_path)
        manifest = tmp_path / "manifest.json"
        code, _, _ = run_cli(
            ["augment", "noise", "--input", str(paths["in.txt"]), "--embeddings",
             str(paths["emb.txt"]), "--output", str(tmp_path / "noised.txt"),
             "--seed", "3", "--manifest", str(manifest)],
            capsys,
        )
        assert code == 0
        assert hashlib.sha256(manifest.read_bytes()).hexdigest() == (
            "b853f66d4e2c91b03b20cbeadb962aa37eaa52809ec2abdc50c146cacc7e17f7"
        ), manifest.read_text(encoding="utf-8")
