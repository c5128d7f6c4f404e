"""Exit-code sweep: every command keeps its contract on malformed input files.

The README promises exit 0 on success and exit 2 on bad data, with no
traceback and no partial output. Each command form below reads one of the
on-disk formats (code table, cluster model, merge file, embeddings, points,
groups) and writes ``--output``. Every file it reads is a list of rows of
its format, which may hold any number of components, and at times one
junk line: tabs, comments, seed headers, continuation markers, non-finite
numbers, stray carriage returns and non-ASCII; a file may end in invalid
UTF-8.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from phonoprep.cli import main

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


def _file(rows, unique_by=None):
    """Five or more rows of one format, at times one junk line among them and an invalid
    UTF-8 byte at the end, or one time in eight an empty file; ``unique_by`` keeps rows
    with equal keys out."""
    data = st.tuples(
        st.lists(rows, min_size=5, max_size=12, unique_by=unique_by),
        st.lists(_junk_line, max_size=1), st.integers(0, 12),
        st.sampled_from(["\n", "\r\n"]), st.sampled_from([b""] * 7 + [b"\xff"]),
    ).map(lambda t: t[3].join(t[0][:t[2]] + t[1] + t[0][t[2]:]).encode() + t[4])
    return st.one_of([data] * 7 + [st.just(b"")])


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


@settings(max_examples=200, deadline=None)
@given(form=st.sampled_from(sorted(FORMS)), contents=_FILES)
def test_malformed_files_exit_0_or_2_and_leave_no_output(form, contents):
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
