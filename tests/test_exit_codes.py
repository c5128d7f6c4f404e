"""Exit-code sweeps: every command keeps its contract on malformed input files and configs.

The README promises exit 0 on success and exit 2 on bad data, with no
traceback and no partial output. Each command form of the file sweep reads
one of the on-disk formats (code table, cluster model, merge file,
embeddings, points, groups) and writes ``--output``. Every file it reads is
a list of rows of its format, which may hold any number of components, and
at times one junk line: tabs, comments, seed headers, continuation markers,
non-finite numbers, stray carriage returns and non-ASCII; a file may end in
invalid UTF-8. The config sweep gives valid files and flags, and a
``--config`` file holding any JSON value.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from phonoprep.cli import _parsers, build_parser, main

UNITS = ["a", "b", "c", "d", "e", "笑", "话"]
NUMBERS = ["0", "1", "-1", "2.5", "-3e2", "7", "0.5", "3", "-2"]
JUNK = UNITS + NUMBERS + [
    "nan", "inf", "-inf", "1e309", "xiao4", "G1", "a@@", "@@", "#", "# seed: 3", "# seed: x",
    "# source: y", "#version: 0.2", "\r", " ", "\x85", "é",
]

_unit = st.sampled_from(UNITS)
_junk_line = st.tuples(st.lists(st.sampled_from(JUNK), max_size=3),
                       st.sampled_from([" ", "\t", ""])).map(lambda t: t[1].join(t[0]))
_groups = st.tuples(_unit, st.sampled_from(["G1", "G1", "G2", "G3", "G4", "G5"]))


def _vectors(width: int):
    return st.tuples(_unit, st.lists(st.sampled_from(NUMBERS), min_size=width,
                                     max_size=width)).map(lambda t: " ".join([t[0], *t[1]]))


def _mixed(row_lists):
    """File bytes of the rows that ``row_lists`` draws, at times with one junk line among
    them and an invalid UTF-8 byte at the end."""
    return st.tuples(
        row_lists, st.lists(_junk_line, max_size=1), st.integers(0, 12),
        st.sampled_from(["\n", "\r\n"]), st.sampled_from([b""] * 7 + [b"\xff"]),
    ).map(lambda t: t[3].join(t[0][:t[2]] + t[1] + t[0][t[2]:]).encode() + t[4])


def _file(rows, unique_by=None):
    """Five or more rows of one format, mixed as ``_mixed`` mixes them, or one time in
    eight an empty file; ``unique_by`` keeps rows with equal keys out."""
    data = _mixed(st.lists(rows, min_size=5, max_size=12, unique_by=unique_by))
    return st.one_of([data] * 7 + [st.just(b"")])


@st.composite
def _density_files(draw):
    """Groups and points files of five to seven groups of 2-D points whose hull is not
    degenerate, as ``geometry density`` needs: the first three points span a triangle."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=5, max_size=7))
    units = [f"u{i}" for i in range(sum(sizes))]
    ids = [f"G{g}" for g, size in enumerate(sizes) for _ in range(size)]
    numbers = st.sampled_from(NUMBERS)
    coords = [("0", "0"), ("1", "0"), ("0", "1"), *draw(st.lists(
        st.tuples(numbers, numbers), min_size=len(units) - 3, max_size=len(units) - 3))]
    return {"groups": draw(_mixed(st.just([f"{u}\t{g}" for u, g in zip(units, ids)]))),
            "points": draw(_mixed(st.just([f"{u} {x} {y}" for u, (x, y) in zip(units, coords)])))}


def _first(row: str) -> str:
    return row.split()[0]


# vectors and points files hold one component count, but for a junk line
_FILES = st.fixed_dictionaries({
    "table": _file(st.tuples(st.sampled_from(["笑", "话", "a"]),
                             st.sampled_from(["xiao4", "hua4", "b"])).map("\t".join)),
    "model": _file(_groups.map("\t".join), _first),
    "groups": _file(_groups.map("\t".join), _first),
    "merges": _file(st.tuples(st.sampled_from(["a", "b", "ab", "c"]),
                              st.sampled_from(["a", "b", "c", "@@"])).map(" ".join), str),
    "text": _file(st.lists(st.sampled_from(UNITS + ["ab", "a@@"]), max_size=5).map(" ".join)),
    "vectors": st.integers(1, 3).flatmap(lambda w: _file(_vectors(w), _first)),
    "points": st.integers(1, 3).flatmap(lambda w: _file(_vectors(w), _first)),
})

# a form's file arguments are names in _FILES; every other argument is literal
FORMS = {
    "code-table": ["encode", "--codec", "pinyin", "--table", "table", "--input", "text"],
    "cluster-model": ["encode", "--codec", "cluster", "--model", "model", "--input", "text"],
    "merges": ["bpe", "apply", "--model", "merges", "--input", "text"],
    "merges-reverse": ["bpe", "apply", "--model", "merges", "--input", "text", "--reverse"],
    "embeddings-noise": ["augment", "noise", "--input", "text", "--embeddings", "vectors",
                         "--seed", "1", "--top-n", "2"],
    "embeddings-project": ["geometry", "project", "--vectors", "vectors"],
    "gamma": ["geometry", "gamma", "--groups", "groups", "--points", "points"],
    "cdf": ["geometry", "cdf", "--groups", "groups", "--points", "points",
            "--beta", "1", "--radius", "3"],
    "coverage": ["geometry", "coverage", "--groups", "groups", "--points", "points",
                 "--seed", "2"],
    "density": ["geometry", "density", "--groups", "groups", "--points", "points",
                "--seed", "3", "--samples", "64", "--index", "2"],
}


def _contents(form):
    if form != "density":
        return _FILES
    # drawn rows alone seldom make five groups with a hull, so density gets such files too
    return st.one_of(_FILES, st.tuples(_FILES, _density_files()).map(lambda t: {**t[0], **t[1]}))


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(sorted(FORMS)).flatmap(lambda f: st.tuples(st.just(f), _contents(f))))
def test_malformed_files_exit_0_or_2_and_leave_no_output(case):
    form, contents = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, data in contents.items():
            (tmp / name).write_bytes(data)
        out = tmp / "out"
        argv = [str(tmp / a) if a in contents else a for a in FORMS[form]]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--output", str(out)])
        assert code in (0, 2), stderr.getvalue()
        assert "internal error" not in stderr.getvalue()
        if code == 2:
            assert not out.exists()
            assert not [p.name for p in tmp.iterdir() if ".tmp-" in p.name]


_PARSERS = list(_parsers(build_parser()))
# a config key is known if it names an option of some subcommand
OPTION_KEYS = sorted({a.dest for p in _PARSERS for a in p._actions
                      if a.option_strings and a.default is not argparse.SUPPRESS})
SUBCOMMAND_KEYS = sorted({a.dest for p in _PARSERS for a in p._actions
                          if isinstance(a, argparse._SubParsersAction)})
JUNK_KEYS = ["config", "help", "version", "func", "junk", "Seed", "top-n", "x-y", ""]
# strings that options take, and the names of files that the command forms read
WORDS = sorted({str(c) for p in _PARSERS for a in p._actions for c in a.choices or ()
                if not isinstance(a, argparse._SubParsersAction)}
               | {"auto", "1", "-1", "2.5", "nan", "text", "vectors", "groups", "points",
                  "missing", ".", "..", "a@@"})

# JSON values of every kind; no string holds "/", so every path stays in the work directory
_scalar = (st.none() | st.booleans() | st.integers(-3, 300)
           | st.floats(-1e3, 1e3) | st.sampled_from([0.5, 1.0, 1e300, -0.0])
           | st.sampled_from(WORDS) | st.text(alphabet="ab-_.@ é", max_size=4))
_json = st.recursive(_scalar, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)
_key = st.sampled_from(OPTION_KEYS + SUBCOMMAND_KEYS + JUNK_KEYS)
_CONFIG = st.one_of([st.dictionaries(_key, _json, max_size=4)] * 5 + [_json])

# a valid input for every file the forms read: five groups of points with a hull
_INPUTS = {
    "text": "a b c a b\nb c d e\n笑 a b\n",
    "vectors": "a 1 0\nb 0 1\nc 1 1\nd 0.5 0.2\ne 0.1 0.9\n",
    "groups": "".join(f"u{i}\tG{i % 5}\n" for i in range(15)),
    "points": "".join(f"u{i} {i % 4}.0 {i * 7 % 5}.0\n" for i in range(15)),
}
# every form names each flag it requires, so a config alone cannot make a usage error
CONFIG_FORMS = [
    ["encode", "--codec", "soundex", "--input", "text"],
    ["bpe", "learn", "--corpus", "text", "--operations", "5"],
    ["augment", "noise", "--input", "text", "--embeddings", "vectors", "--seed", "1"],
    ["geometry", "density", "--groups", "groups", "--points", "points", "--seed", "3"],
    ["eval", "bleu", "--hyp", "text", "--ref", "text"],
]


@settings(max_examples=300, deadline=None)
@given(form=st.sampled_from(CONFIG_FORMS), config=_CONFIG)
def test_any_config_exits_0_or_2_and_leaves_no_output(form, config):
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        tmp = Path(tmp)
        for name, text in _INPUTS.items():
            (tmp / name).write_text(text, encoding="utf-8")
        (tmp / "c.json").write_text(json.dumps(config), encoding="utf-8")
        before = sorted(p.name for p in tmp.iterdir())
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*form, "--config", "c.json", "--output", "out"])
        err = stderr.getvalue()
        assert code in (0, 2), err
        assert "internal error" not in err
        if code == 2:  # neither the output, a manifest nor a temp file
            assert sorted(p.name for p in tmp.iterdir()) == before
        unknown = {key.replace("-", "_") for key in config} - set(OPTION_KEYS) \
            if isinstance(config, dict) else set()
        if unknown:
            assert code == 2
            assert all(key in err for key in unknown), err
