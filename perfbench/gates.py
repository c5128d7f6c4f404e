"""Per-pass correctness gates; each returns a list of failures (empty = pass).

Pipeline passes: every manifest checksum matches its file, the word stream
is the input split, the code stream is the codec applied to it, and
``bpe_decode`` of every BPE stream gives back the stream it was applied to.
At the default seed the artifacts must also hash to exactly the values in
``golden.json``; its merge files pin BPE tie-breaking, so a faster learner
must reproduce today's merges byte for byte.

Geometry passes: K-Means groups are more concentrated than metaphone and
random groups (gamma), density never decreases with the neighbour index,
coverage never shrinks, the noise rate is 0.2 +/- 0.01 and the augmented
corpora keep their sentences. At the default seed the K-Means iteration
count and the gamma values must equal their golden values.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from phonoprep.subword import bpe_decode, load_bpe_model

GOLDEN_PATH = Path(__file__).with_name("golden.json")
# gammas come out of BLAS; allow last-digit differences between CPUs
GAMMA_RTOL = 1e-9


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _lines(path: Path) -> list[list[str]]:
    return [line.split() for line in path.read_text(encoding="utf-8").splitlines()]


def check_pipeline(out: Path, splits: dict[str, Path], codec, golden: dict | None) -> list[str]:
    """Gate one ``run_pipeline`` artifact directory.

    ``splits`` maps split name to the input file; ``golden`` is the expected
    manifest ``files`` block, or ``None`` away from the default seed.
    """
    failures = []
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    files = {rel: _sha256(out / rel) for rel in manifest["files"]}
    for rel, digest in sorted(manifest["files"].items()):
        if files[rel] != digest:
            failures.append(f"manifest checksum of {rel} does not match the file")
    if golden is not None and files != golden:
        changed = sorted({rel for rel, _ in set(files.items()) ^ set(golden.items())})
        failures.append(f"artifacts differ from golden: {changed}")

    separator = manifest["config"]["separator"]
    mode = manifest["config"]["combine_mode"]
    words_model = load_bpe_model(out / "models" / "words.bpe")
    codes_model = load_bpe_model(out / "models" / "codes.bpe")
    for name, src in splits.items():
        words = _lines(out / "streams" / f"{name}.words")
        codes = _lines(out / "streams" / f"{name}.codes")
        if words != _lines(src):
            failures.append(f"{name}.words is not the input split")
        code_of: dict[str, str] = {}
        for w_line, c_line in zip(words, codes):
            if len(w_line) != len(c_line):
                failures.append(f"{name}: code line length differs from word line")
                break
            code_of.update(zip(w_line, c_line))
        wrong = [w for w, c in code_of.items() if codec(w) != c]
        if wrong or len(words) != len(codes):
            failures.append(f"{name}.codes is not the codec output ({wrong[:3]})")

        if mode == "concat":
            bpe_words, bpe_codes = [], []
            for tokens in _lines(out / "streams" / f"{name}.concat"):
                i = tokens.index(separator)
                bpe_words.append(tokens[:i])
                bpe_codes.append(tokens[i + 1:])
        else:
            bpe_words = _lines(out / "streams" / f"{name}.src-words")
            bpe_codes = _lines(out / "streams" / f"{name}.src-codes")
        for label, pieces, want, model in (("words", bpe_words, words, words_model),
                                           ("codes", bpe_codes, codes, codes_model)):
            if [bpe_decode(p, model) for p in pieces] != want:
                failures.append(f"bpe_decode(bpe_apply(x)) != x on {name} {label}")
    return failures


def check_geometry(summary: dict, golden: dict | None) -> list[str]:
    """Gate the numbers one geometry pass produced (see ``workloads``)."""
    failures = []
    gamma = summary["gamma"]
    if not (gamma["kmeans"] > gamma["metaphone"] and gamma["kmeans"] > gamma["random"]):
        failures.append(f"K-Means gamma is not the largest: {gamma}")
    for grouping, dens in summary["density"].items():
        for stat in ("max", "sum"):
            values = dens[stat]
            if any(a > b for a, b in zip(values, values[1:])):
                failures.append(f"{grouping} {stat} density decreases in i: {values}")
    for grouping, curve in summary["coverage"].items():
        if any(a > b + 1e-9 for a, b in zip(curve, curve[1:])):
            failures.append(f"{grouping} coverage shrinks as groups are added")
    if abs(summary["noise_rate"] - 0.2) > 0.01:
        failures.append(f"noise replacement rate {summary['noise_rate']:.4f}")
    if not summary["lines_kept"]:
        failures.append("augmentation changed the sentence count or lengths")
    if not all(0.0 < b < 100.0 for b in summary["bleu"].values()):
        failures.append(f"BLEU out of range: {summary['bleu']}")
    if golden is not None:
        if summary["kmeans_iterations"] != golden["kmeans_iterations"]:
            failures.append(f"K-Means iterations {summary['kmeans_iterations']} != "
                            f"golden {golden['kmeans_iterations']}")
        for grouping, want in golden["gamma"].items():
            got = gamma[grouping]
            if abs(got - want) > GAMMA_RTOL * abs(want):
                failures.append(f"{grouping} gamma {got!r} != golden {want!r}")
    return failures
