"""Seeded random clustering and the K-Means baseline.

Random clustering partitions a vocabulary into clusters whose size multiset
is copied from a baseline encoding (how many units share each code), or
into near-equal clusters at a chosen fraction of the vocabulary size.
Units are sorted before sampling so the result depends only on the unit
set and the seed, not on input order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .encoders import encode_or_passthrough
from .errors import PhonoprepError, check_fraction, check_int
from .subword import read_lines, write_lines

__all__ = [
    "SizeDistribution",
    "ClusterModel",
    "KMeansModel",
    "UNKNOWN_CLUSTER",
    "derive_size_distribution",
    "random_cluster",
    "random_cluster_uniform",
    "kmeans_fit",
    "encode_with_clusters",
    "save_cluster_model",
    "load_cluster_model",
]

UNKNOWN_CLUSTER = "G_UNK"


@dataclass(frozen=True)
class SizeDistribution:
    """Multiset of group sizes, one per unique baseline code."""

    multiplicities: tuple[int, ...]

    def __post_init__(self):
        if any(m <= 0 for m in self.multiplicities):
            raise ValueError("multiplicities must be positive")
        object.__setattr__(
            self, "multiplicities", tuple(sorted(self.multiplicities, reverse=True))
        )

    @property
    def total(self) -> int:
        return sum(self.multiplicities)


@dataclass(frozen=True)
class ClusterModel:
    """Seeded unit -> cluster-id mapping ("G1", "G2", ...)."""

    assignment: dict[str, str]
    seed: int
    source: str  # "baseline-derived" or "uniform-k"

    @property
    def num_clusters(self) -> int:
        return len(set(self.assignment.values()))

    def cluster_sizes(self) -> list[int]:
        return sorted(Counter(self.assignment.values()).values(), reverse=True)


@dataclass(frozen=True)
class KMeansModel:
    centroids: np.ndarray  # (K, d)
    assignment: np.ndarray  # (n,) cluster index per point
    cost_history: tuple[float, ...]  # within-cluster cost after each assignment


def _check_units(units: Sequence[str]) -> None:
    if not units:
        raise PhonoprepError("no units to cluster")
    if len(set(units)) != len(units):
        raise ValueError("units must be distinct")


def derive_size_distribution(
    units: Sequence[str], encoder: Callable[[str], str]
) -> SizeDistribution:
    """Group ``units`` by their baseline code and return the group sizes."""
    _check_units(units)
    groups = Counter(encode_or_passthrough(u, encoder)[0] for u in units)
    return SizeDistribution(tuple(groups.values()))


def _partition(units: Sequence[str], sizes: Sequence[int], seed: int, source: str) -> ClusterModel:
    check_int("seed", seed, 0)
    ordered = sorted(units)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ordered))
    assignment: dict[str, str] = {}
    pos = 0
    for k, size in enumerate(sizes, start=1):
        for idx in perm[pos:pos + size]:
            assignment[ordered[idx]] = f"G{k}"
        pos += size
    return ClusterModel(assignment=assignment, seed=seed, source=source)


def random_cluster(units: Sequence[str], dist: SizeDistribution, seed: int) -> ClusterModel:
    """Uniformly sample units without replacement into clusters sized by ``dist``."""
    _check_units(units)
    if dist.total != len(units):
        raise PhonoprepError(f"distribution covers {dist.total} units, got {len(units)}")
    return _partition(units, dist.multiplicities, seed, "baseline-derived")


def random_cluster_uniform(units: Sequence[str], fraction: float, seed: int) -> ClusterModel:
    """Partition into ``round(fraction * |units|)`` near-equal clusters."""
    _check_units(units)
    check_fraction("fraction", fraction)
    n = len(units)
    k = int(np.floor(fraction * n + 0.5))
    if k < 1:
        raise ValueError(f"fraction {fraction} yields no clusters for {n} units")
    base, extra = divmod(n, k)
    sizes = [base + 1] * extra + [base] * (k - extra)
    return _partition(units, sizes, seed, "uniform-k")


# the geometry analysis clusters 2-D projections, where the tree is faster
# than the full (n, k) distance table; other d keep the table
_TREE_MAX_DIM = 2
# the tree returns square roots, so a squared tree distance may differ from
# the coordinate-order sum in the last bits; where the two nearest are this
# close, the full row decides
_NEAR_TIE = 1e-9


def _nearest_by_table(pts: np.ndarray, centroids: np.ndarray,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per point (ties to the lowest index) and its squared distance.

    Squared distances are summed one coordinate at a time, in the order
    np.sum(..., axis=-1) adds them for d < 8, without the (n, k, d) temporary.
    """
    d2 = np.subtract.outer(pts[:, 0], centroids[:, 0])
    np.square(d2, out=d2)
    term = np.empty_like(d2)
    for c in range(1, pts.shape[1]):
        np.subtract.outer(pts[:, c], centroids[:, c], out=term)
        np.square(term, out=term)
        d2 += term
    nearest = np.argmin(d2, axis=1)
    return nearest, d2[np.arange(len(pts)), nearest]


def _nearest_by_tree(pts: np.ndarray, centroids: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """``_nearest_by_table`` from the two nearest centroids of a k-d tree.

    A clear winner is the table's argmin too; near ties (duplicate
    centroids always give one) take the table row. Finite inputs only.
    """
    from scipy.spatial import cKDTree  # loaded only where a tree is built

    dist, idx = cKDTree(centroids).query(pts, k=2)
    first, second = dist[:, 0] ** 2, dist[:, 1] ** 2
    # negated so that an overflowed (inf - inf) gap counts as a tie
    with np.errstate(invalid="ignore"):
        tied = ~(second - first > _NEAR_TIE * second)
    nearest = idx[:, 0]
    if tied.any():
        nearest[tied] = _nearest_by_table(pts[tied], centroids)[0]
    chosen = np.square(pts[:, 0] - centroids[nearest, 0])
    for c in range(1, pts.shape[1]):
        chosen += np.square(pts[:, c] - centroids[nearest, c])
    return nearest, chosen


def _squared_distances(columns: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared distance of each point to ``center``, coordinates added left to right.

    ``columns`` is contiguous ``pts.T``: one column at a time needs no (n, d)
    temporary.
    """
    out = np.square(columns[0] - center[0])
    for column, x in zip(columns[1:], center[1:]):
        out += np.square(column - x)
    return out


def _lloyd_once(pts: np.ndarray, k: int, rng: np.random.Generator, max_iter: int):
    # k-means++ seeding
    columns = np.ascontiguousarray(pts.T)
    centroids = np.empty((k, pts.shape[1]))
    centroids[0] = pts[rng.integers(len(pts))]
    closest_sq = _squared_distances(columns, centroids[0])
    for j in range(1, k):
        total = closest_sq.sum()
        if total <= 0.0:
            centroids[j] = pts[rng.integers(len(pts))]
        else:
            r = rng.random() * total
            centroids[j] = pts[np.searchsorted(np.cumsum(closest_sq), r)]
        np.minimum(closest_sq, _squared_distances(columns, centroids[j]), out=closest_sq)

    n, dim = pts.shape
    # bincount adds each cluster's members in input order, as a row-wise
    # .mean(axis=0) does; a (m, 1) mean is one pairwise sum instead
    by_bincount = dim >= 2
    by_tree = dim <= _TREE_MAX_DIM and np.isfinite(pts).all()
    assignment = np.full(n, -1)
    costs: list[float] = []
    for _ in range(max_iter):
        if by_tree and np.isfinite(centroids).all():
            new_assignment, chosen = _nearest_by_tree(pts, centroids)
        else:
            new_assignment, chosen = _nearest_by_table(pts, centroids)
        costs.append(float(chosen.sum()))
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        counts = np.bincount(assignment, minlength=k)
        if by_bincount and counts.all():
            for c in range(dim):
                centroids[:, c] = np.bincount(assignment, weights=pts[:, c], minlength=k) / counts
        else:
            # a stable sort keeps each cluster's members in input order
            order = np.argsort(assignment, kind="stable")
            bounds = np.searchsorted(assignment[order], np.arange(k + 1))
            for j in range(k):
                lo, hi = bounds[j], bounds[j + 1]
                if hi > lo:
                    centroids[j] = pts[order[lo:hi]].mean(axis=0)
                else:
                    # reads the centroids this loop has already moved
                    dist_own = np.sum((pts - centroids[assignment]) ** 2, axis=1)
                    centroids[j] = pts[np.argmax(dist_own)]
    return centroids, assignment, costs


def kmeans_fit(
    points: Sequence[Sequence[float]] | np.ndarray,
    k: int,
    seed: int,
    max_iter: int = 100,
    n_init: int = 10,
) -> KMeansModel:
    """Lloyd's algorithm from k-means++ style seeding, best of ``n_init`` restarts.

    Empty clusters are re-seeded from the point farthest from its centroid.
    Squared distances add the coordinates left to right, which is exactly
    how ``np.sum(..., axis=-1)`` adds fewer than 8 of them; from d = 8 on
    numpy sums pairwise instead, so distances and costs may differ from
    such a sum in the last bit and an exact tie in the assignment could
    resolve differently. In up to ``_TREE_MAX_DIM`` dimensions the nearest
    centroids come from a k-d tree instead of the full distance table,
    with the same assignments, centroids and costs.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or len(pts) == 0:
        raise ValueError("points must be a non-empty (n, d) array")
    k = check_int("k", k, 1)
    if k > len(pts):
        raise PhonoprepError(f"need k in [1, {len(pts)}], got {k}")
    check_int("max_iter", max_iter, 1)
    check_int("n_init", n_init, 1)
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)

    best: tuple[np.ndarray, np.ndarray, list[float]] | None = None
    for _ in range(n_init):
        centroids, assignment, costs = _lloyd_once(pts, k, rng, max_iter)
        if best is None or costs[-1] < best[2][-1]:
            best = (centroids, assignment, costs)

    return KMeansModel(
        centroids=best[0],
        assignment=best[1],
        cost_history=tuple(best[2]),
    )


def encode_with_clusters(sentence: Iterable[str], model: ClusterModel) -> list[str]:
    """Replace each token by its cluster id; unknown tokens get G_UNK."""
    return [model.assignment.get(tok, UNKNOWN_CLUSTER) for tok in sentence]


def save_cluster_model(model: ClusterModel, path: str | Path) -> None:
    lines = [f"# seed: {model.seed}", f"# source: {model.source}"]
    lines += [f"{unit}\t{cid}" for unit, cid in sorted(model.assignment.items())]
    write_lines(path, lines)


def load_cluster_model(path: str | Path) -> ClusterModel:
    """Read ``unit<TAB>cluster-id`` rows and the ``# seed:`` / ``# source:`` header.

    A row is any line with a tab that does not start with ``"# "``; since
    units never contain whitespace, units starting with ``#`` stay rows.
    Other lines starting with ``#`` are comments. A unit and a cluster id
    are each one ``str.split()`` token (a row has one tab), a unit is listed
    once and the seed is an integer >= 0; anything else is a ``PhonoprepError``
    naming ``path:lineno``.
    """
    seed = 0
    source = "baseline-derived"
    assignment: dict[str, str] = {}
    for lineno, line in enumerate(read_lines(path), 1):
        where = f"{path}:{lineno}"
        if line.startswith("# seed:"):
            text = line.split(":", 1)[1].strip()
            if not text.isdecimal():
                raise PhonoprepError(f"{where}: seed must be an integer >= 0, got {text!r}")
            seed = int(text)
        elif line.startswith("# source:"):
            source = line.split(":", 1)[1].strip()
        elif "\t" in line and not line.startswith("# "):
            unit, _, cid = line.partition("\t")
            for name, value in (("unit", unit), ("cluster id", cid)):
                if value.split() != [value]:  # a token can match it, and keeps one code
                    raise PhonoprepError(f"{where}: {name} must be one token, got {value!r}")
            if unit in assignment:
                raise PhonoprepError(f"{where}: unit {unit!r} is listed twice")
            assignment[unit] = cid
        elif line and not line.startswith("#"):
            raise PhonoprepError(f"{where}: expected unit<TAB>cluster-id, got {line!r}")
    return ClusterModel(assignment=assignment, seed=seed, source=source)
