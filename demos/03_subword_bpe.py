#!/usr/bin/env python3
"""BPE subword segmentation on words and on phonetic code streams.

Learns merges from the bundled desk corpus, shows how segment counts
shrink as the merge budget grows, and round-trips a sentence exactly.
"""

from pathlib import Path

from phonoprep.encoders import soundex_encode
from phonoprep.subword import bpe_apply, bpe_decode, bpe_learn, read_lines, token_counts

corpus = read_lines(Path(__file__).parent.parent / "data" / "desk_en.txt")[:2000]

print(f"corpus: {len(corpus)} sentences")
counts = token_counts(corpus)  # BPE learns from how often each token occurs
sentence = corpus[0].split()[:6]
print(f"sample tokens: {sentence}")

print("\n=== Segment counts shrink as operations grow ===")
for ops in (0, 50, 200, 1000):
    model = bpe_learn(counts, ops)
    pieces = bpe_apply(sentence, model)
    print(f"  {ops:5d} ops -> {len(pieces):3d} pieces: {' '.join(pieces[:12])}"
          + (" ..." if len(pieces) > 12 else ""))

print("\n=== Round trip is exact ===")
model = bpe_learn(counts, 500)
pieces = bpe_apply(sentence, model)
restored = bpe_decode(pieces, model)
print(f"  encoded : {' '.join(pieces)}")
print(f"  decoded : {' '.join(restored)}")
print(f"  identical: {restored == sentence}")

print("\n=== A separate model for the code stream ===")
code_corpus = [" ".join(soundex_encode(w) for w in line.split()) for line in corpus]
code_model = bpe_learn(token_counts(code_corpus), 200)
codes = [soundex_encode(w) for w in sentence]
print(f"  codes   : {' '.join(codes)}")
print(f"  BPE     : {' '.join(bpe_apply(codes, code_model))}")
print(f"  merges learned: words={len(model.merges)}, codes={len(code_model.merges)}")
