#!/usr/bin/env python3
"""Generate the bundled desk-scale corpus (data/desk_en.txt).

The benchmark's generator, ``perfbench/corpus.py``, owns the corpus: this
tool writes its ``DESK`` shape at ``DESK_SEED``, the same lines the
benchmark checks against the bundled file byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import corpus  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=str(ROOT / "data" / "desk_en.txt"))
    args = parser.parse_args()

    lines = corpus.generate(corpus.DESK, corpus.DESK_SEED)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(corpus.corpus_text(lines), encoding="utf-8")
    realized = {tok for line in lines for tok in line.split()}
    print(f"wrote {len(lines)} sentences, {len(realized)} distinct tokens to {out}")


if __name__ == "__main__":
    main()
