#!/usr/bin/env python3
"""End-to-end preparation: encode + BPE + combine, then BLEU scoring.

Runs the full pipeline on a corpus slice twice to show byte-identical
artifacts, inspects the vocabulary report, and exercises the BLEU scorer
on reference examples.
"""

import hashlib
import json
import tempfile
from pathlib import Path

from phonoprep.evaluate import bleu
from phonoprep.pipeline import PipelineConfig, run_pipeline
from phonoprep.subword import read_lines

corpus = read_lines(Path(__file__).parent.parent / "data" / "desk_en.txt")[:1500]


def tree_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            digest.update(p.read_bytes())
    return digest.hexdigest()[:16]


# the work directory and its artifacts are removed when the block ends
with tempfile.TemporaryDirectory(prefix="phonoprep_demo_") as tmp:
    workdir = Path(tmp)
    train = workdir / "train.txt"
    train.write_text("\n".join(corpus) + "\n", encoding="utf-8")

    config = PipelineConfig(
        train_path=str(train),
        output_dir=str(workdir / "artifacts"),
        encoder="metaphone",
        combine_mode="concat",
        separator="<sep>",
        seed=17,
        bpe_operations_words=300,
        bpe_operations_codes=150,
    )

    print(f"=== pipeline run over {len(corpus)} sentences ===")
    out = run_pipeline(config)
    print(f"  artifacts in {out}")
    for path in sorted(out.rglob("*")):
        if path.is_file():
            print(f"    {path.relative_to(out)}")

    concat = (out / "streams" / "train.concat").read_text(encoding="utf-8").splitlines()
    print(f"\n  first combined line:\n    {concat[0][:100]} ...")

    vocab = json.loads((out / "reports" / "vocab.json").read_text(encoding="utf-8"))
    print("\n  vocabulary report:")
    for stream, counts in vocab["streams"].items():
        print(f"    {stream:9s} unique {counts['unique']:5d} total {counts['total']}")

    h1 = tree_hash(out)
    run_pipeline(config)
    h2 = tree_hash(out)
    print(f"\n  rerun reproducibility: {h1} == {h2} -> {h1 == h2}")

print("\n=== BLEU scoring ===")
refs = ["the cat sat on the mat today", "a quick fox jumps over the lazy dog"]
hyps = ["the cat sat on a mat today", "a quick fox jumped over the lazy dog"]
print(f"  vs self : {bleu(refs, refs).format_line()}")
print(f"  vs hyps : {bleu(hyps, refs).format_line()}")
