#!/usr/bin/env python3
"""Robustness data generation: similarity noise and edit perturbations.

Noises a training slice by swapping words for embedding neighbors, then
perturbs test sentences with 0-5 edit operations and verifies the edit
distance stays bounded.
"""

from pathlib import Path

from phonoprep.augment import (
    NoiseSpec,
    PerturbationSpec,
    edit_distance,
    noise_augment,
    perturb_edit,
)
from phonoprep.geometry import train_embeddings
from phonoprep.subword import read_lines

corpus = read_lines(Path(__file__).parent.parent / "data" / "desk_en.txt")[:3000]

print("training embeddings for neighbor lookup ...")
table = train_embeddings(corpus, d=50, window=5, seed=0)

print("\n=== Similarity noise: 20% of words swapped for neighbors ===")
stats: dict = {}
noised = noise_augment(corpus, table, NoiseSpec(fraction=0.2, top_n=10, seed=4),
                       stats_out=stats)
print(f"  replaced {stats['replaced_tokens']} of {stats['total_tokens']} tokens "
      f"({100 * stats['replacement_rate']:.1f}%)")
for before, after in list(zip(corpus, noised))[:3]:
    changed = sum(a != b for a, b in zip(before.split(), after.split()))
    print(f"  {changed} swaps: {after[:72]}")

print("\n=== Edit perturbations at increasing strength ===")
sentence = corpus[0].split()[:10]
vocab = sorted({tok for line in corpus[:200] for tok in line.split()})
print(f"  original: {' '.join(sentence)}")
for k in range(6):
    out = perturb_edit(sentence, vocab, PerturbationSpec(k=k, seed=9))
    print(f"  k={k}: distance {edit_distance(sentence, out)} | {' '.join(out)[:64]}")

print("\n=== The bound: edit distance never exceeds k ===")
violations = 0
for trial in range(200):
    out = perturb_edit(sentence, vocab, PerturbationSpec(k=trial % 6, seed=trial))
    if edit_distance(sentence, out) > trial % 6:
        violations += 1
print(f"  200 trials, {violations} violations")
