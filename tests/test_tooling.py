"""The package's public names and the test suite's own configuration."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import phonoprep

ROOT = Path(__file__).parent.parent
PYPROJECT = ROOT / "pyproject.toml"
SOURCES = sorted((ROOT / "src" / "phonoprep").glob("*.py"))
SCRIPTS = sorted([*(ROOT / "demos").glob("*.py"), *(ROOT / "tools").glob("*.py")])
MODULES = ["phonoprep", *(f"phonoprep.{m.name}"
                          for m in pkgutil.iter_modules(phonoprep.__path__))]


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


@pytest.mark.parametrize("path", SOURCES + SCRIPTS, ids=lambda path: path.name)
def test_every_imported_name_is_used_or_exported(path):
    # a deletion can leave behind an import that nothing in the module reads
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {name for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for name in ast.literal_eval(node.value)}
    assert sorted(imported - used - exported) == []


def test_every_error_subclass_is_caught_by_type_in_the_package():
    # the CLI exits 2 on every PhonoprepError: a subclass earns its place only
    # where the package itself tells it apart in an ``except`` clause
    errors = ast.parse((ROOT / "src" / "phonoprep" / "errors.py").read_text(encoding="utf-8"))
    subclasses = {node.name for node in errors.body if isinstance(node, ast.ClassDef)
                  and any(getattr(base, "id", None) == "PhonoprepError" for base in node.bases)}
    caught = {getattr(name, "id", getattr(name, "attr", None))
              for path in SOURCES
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.ExceptHandler) and node.type is not None
              for name in (node.type.elts if isinstance(node.type, ast.Tuple) else [node.type])}
    assert subclasses, "no subclass found: the check reads nothing"
    assert sorted(subclasses - caught) == []


# the scipy modules a process has loaded
SCIPY_LOADED = "sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')"

COMMANDS_WITHOUT_SCIPY = f"""
import sys
from pathlib import Path
from phonoprep.cli import main

d = Path(sys.argv[1])
corpus = str(d / "corpus.txt")
commands = [
    ["encode", "--codec", "metaphone", "--input", corpus, "--output", str(d / "codes.txt")],
    ["cluster", "--corpus", corpus, "--seed", "1", "--output", str(d / "clusters.tsv")],
    ["bpe", "learn", "--corpus", corpus, "--operations", "5", "--output", str(d / "bpe.txt")],
    ["bpe", "apply", "--model", str(d / "bpe.txt"), "--input", corpus,
     "--output", str(d / "pieces.txt")],
    ["augment", "perturb", "--input", corpus, "-k", "1", "--seed", "2",
     "--output", str(d / "perturbed.txt")],
    ["eval", "bleu", "--hyp", str(d / "perturbed.txt"), "--ref", corpus,
     "--output", str(d / "bleu.txt")],
    ["pipeline", "run", "--train-path", corpus, "--output-dir", str(d / "build"),
     "--encoder", "soundex", "--seed", "3", "--bpe-operations-words", "5",
     "--bpe-operations-codes", "5"],
]
loaded_after = []
for argv in commands:
    assert main(argv) == 0, argv
    if {SCIPY_LOADED}:
        loaded_after.append(" ".join(argv[:2]))
print(loaded_after)
"""

GEOMETRY_IN_A_FRESH_PROCESS = f"""
import sys
import numpy as np
from phonoprep.clustering import kmeans_fit
from phonoprep.geometry import HullParams, smooth_hull, train_embeddings

rng = np.random.default_rng(0)
lines = [" ".join(f"w{{i}}" for i in rng.integers(0, 300, size=8)) for _ in range(600)]
table = train_embeddings(lines, d=2, window=2, seed=1)
assert len(table.vectors) == 300  # more than 256 types: the svds branch
pts = table.matrix()[1]
kmeans_fit(pts, k=4, seed=0)  # 2-D: the k-d tree assignment
smooth_hull(pts, HullParams(beta=1, radius=10.0))
print({SCIPY_LOADED} != [])
"""


def _last_line(*argv: str) -> str:
    result = subprocess.run([sys.executable, *argv], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


def test_importing_the_cli_and_pipeline_loads_no_scipy():
    # geometry and clustering import scipy where they call it, so a one-shot
    # command does not pay for loading scipy.sparse and scipy.spatial
    assert _last_line("-c", f"import sys, phonoprep.cli, phonoprep.pipeline; "
                            f"print({SCIPY_LOADED})") == "[]"


def test_commands_without_geometry_or_kmeans_load_no_scipy(tmp_path):
    (tmp_path / "corpus.txt").write_text(
        "the body of speech\nspeak about the bad space\nthe choir sang\n", encoding="utf-8")
    assert _last_line("-c", COMMANDS_WITHOUT_SCIPY, str(tmp_path)) == "[]"
    assert (tmp_path / "build" / "manifest.json").is_file()


def test_geometry_loads_scipy_where_it_calls_it():
    assert _last_line("-c", GEOMETRY_IN_A_FRESH_PROCESS) == "True"


# numpy and OpenSSL's hashlib, where a process has loaded them
NUMPY_OR_HASHLIB_LOADED = ("sorted({m.partition('.')[0] for m in sys.modules}"
                           " & {'numpy', 'hashlib'})")

COMMANDS_WITHOUT_NUMPY = f"""
import sys
from pathlib import Path
from phonoprep.cli import main

d = Path(sys.argv[1])
corpus = str(d / "corpus.txt")
commands = [
    ["encode", "--codec", "metaphone", "--input", corpus, "--output", str(d / "codes.txt")],
    ["bpe", "learn", "--corpus", corpus, "--operations", "5", "--output", str(d / "bpe.txt")],
    ["bpe", "apply", "--model", str(d / "bpe.txt"), "--input", corpus,
     "--output", str(d / "pieces.txt")],
    ["eval", "vocab", "--input", corpus, "--output", str(d / "vocab.csv")],
    *(["pipeline", "run", "--train-path", corpus, "--output-dir", str(d / encoder),
       "--encoder", encoder, "--seed", "3", "--bpe-operations-words", "5",
       "--bpe-operations-codes", "5"] for encoder in ("metaphone", "soundex")),
]
loaded_after = []
for argv in commands:
    assert main(argv) == 0, argv
    loaded_after.append([" ".join(argv[:2]), {NUMPY_OR_HASHLIB_LOADED}])
print(loaded_after)
"""


def test_commands_without_arrays_load_no_numpy(tmp_path):
    # only the manifest's checksums load hashlib, and with it OpenSSL
    (tmp_path / "corpus.txt").write_text(
        "the body of speech\nspeak about the bad space\nthe choir sang\n", encoding="utf-8")
    assert ast.literal_eval(_last_line("-c", COMMANDS_WITHOUT_NUMPY, str(tmp_path))) == [
        ["encode --codec", []], ["bpe learn", []], ["bpe apply", []], ["eval vocab", []],
        ["pipeline run", ["hashlib"]], ["pipeline run", ["hashlib"]]]
    assert (tmp_path / "soundex" / "manifest.json").is_file()


def test_the_benchmark_workers_imports_load_no_numpy_random():
    # numpy itself loads numpy.random on first use; augment builds its seed
    # class then, and no pipeline pass draws
    assert _last_line("-c", "import sys, numpy, phonoprep.augment, phonoprep.geometry, "
                            "phonoprep.clustering, phonoprep.pipeline; "
                            "print('numpy.random' in sys.modules)") == "False"


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # Hypothesis imports libcst to report a failing example; under the warning
    # policy a DeprecationWarning from that import once ended the whole run
    # with an INTERNALERROR, and the tests after the failing one never ran
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n"
        "def test_passes():\n"
        "    pass\n",
        encoding="utf-8",
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout, result.stdout


def test_desk_corpus_tool_rewrites_the_bundled_corpus_from_any_directory(tmp_path):
    out = tmp_path / "desk.txt"
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "make_desk_corpus.py"), "--output", str(out)],
        cwd=tmp_path, capture_output=True, text=True, check=True,
    )
    assert out.read_bytes() == (ROOT / "data" / "desk_en.txt").read_bytes()
    assert result.stdout == f"wrote 10000 sentences, 5055 distinct tokens to {out}\n"
