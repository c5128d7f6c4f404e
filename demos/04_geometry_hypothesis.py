#!/usr/bin/env python3
"""Do words sharing a code spread widely in meaning space?

Full dispersion analysis on the bundled desk corpus: PPMI+SVD embeddings,
PCA to 2-D, then three groupings with equal group counts (phonetic codes,
size-matched random clusters, K-Means on the projected points) compared
by hull-volume CDF, coverage speed, concentration factor, and the
nearest-neighbor density probe. Expect the phonetic and random groupings
to look alike and K-Means to be far more concentrated.

Runs in a few seconds.
"""

from pathlib import Path

import numpy as np

from phonoprep.clustering import derive_size_distribution, kmeans_fit, random_cluster
from phonoprep.encoders import metaphone_encode
from phonoprep.geometry import (
    concentration_factor,
    coverage_curve,
    density_measure,
    group_points,
    pca_project,
    train_embeddings,
    volume_cdf,
)
from phonoprep.subword import read_lines

corpus = read_lines(Path(__file__).parent.parent / "data" / "desk_en.txt")

print("training PPMI+SVD embeddings (d=100) ...")
table = train_embeddings(corpus, d=100, window=5, seed=7, normalize=True)
_, projected = pca_project(table)
units = sorted(projected)
points = np.array([projected[u] for u in units])
print(f"embedded {len(units)} units, projected to 2-D")

encoding = {u: metaphone_encode(u) for u in units}
phonetic = group_points(projected, encoding)
k = len(phonetic)
dist = derive_size_distribution(units, metaphone_encode)
random_model = random_cluster(units, dist, seed=0)
random_groups = group_points(projected, random_model.assignment)
km = kmeans_fit(points, k=k, seed=0, n_init=2)
kmeans_groups = [points[km.assignment == j] for j in range(k)
                 if (km.assignment == j).any()]
print(f"three groupings with {k} groups each\n")

print("=== Concentration factor (smaller = groups more spread out) ===")
for name, groups in [("k-means", kmeans_groups), ("phonetic", phonetic),
                     ("random", random_groups)]:
    print(f"  {name:9s} gamma = {concentration_factor(groups).gamma:.4f}")

print("\n=== Hull-volume CDF deciles (per-group hull areas) ===")
deciles = np.arange(0.1, 1.0, 0.1)
for name, groups in [("k-means", kmeans_groups), ("phonetic", phonetic),
                     ("random", random_groups)]:
    vols = np.array([v for v, _ in volume_cdf(groups)])
    qs = np.quantile(vols, deciles)
    print(f"  {name:9s} " + " ".join(f"{q:.4f}" for q in qs))
print("  (k-means volumes sit far to the left: tiny hulls)")

print("\n=== Coverage speed: cumulative hull volume, adding 12 groups ===")
rng = np.random.default_rng(1)
for name, groups in [("k-means", kmeans_groups), ("phonetic", phonetic),
                     ("random", random_groups)]:
    subset = [groups[i] for i in rng.choice(len(groups), 12, replace=False)]
    curve = [v for _, v in coverage_curve(subset, order_seed=1)]
    print(f"  {name:9s} " + " ".join(f"{v:.3f}" for v in curve))
print("  (phonetic/random cover the space fast; k-means crawls)")

print("\n=== Density probe: distance from hull interior to 5 pooled groups ===")
for name, groups in [("k-means", kmeans_groups), ("phonetic", phonetic),
                     ("random", random_groups)]:
    rep = density_measure(points, groups, neighbor_index=3, m=4000, seed=3)
    row = " ".join(f"i={i}: max {rep.max_density[i]:.3f} mean {rep.mean_density[i]:.3f}"
                   for i in (1, 2, 3))
    print(f"  {name:9s} {row}")
print("  (smaller = the 5 groups blanket the space more evenly)")
