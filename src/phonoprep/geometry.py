"""Geometric dispersion analysis of encoded vocabulary groups.

Pipeline: embed units from co-occurrence statistics (PPMI + truncated SVD),
project to 2-D with PCA, then measure how widely each code group spreads:
smoothed convex hulls and their areas, cumulative coverage as groups are
added, the per-group volume CDF, a concentration factor (centroid spread
over within-group dispersion), and a nearest-neighbor density probe of the
hull interior.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import PhonoprepError, check_int
from .evaluate import _tokens_after, _token_ids
from .subword import read_lines, write_lines

# scipy is imported inside the functions that call it, so that importing the
# package (and the encode, BPE and pipeline commands) never loads it
if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

__all__ = [
    "EmbeddingTable",
    "Projection2D",
    "HullParams",
    "HullMetrics",
    "GammaReport",
    "CurveReport",
    "DensityReport",
    "train_embeddings",
    "save_embeddings",
    "load_embeddings",
    "pca_project",
    "convex_hull",
    "polygon_area",
    "smooth_hull",
    "coverage_curve",
    "volume_cdf",
    "concentration_factor",
    "density_measure",
    "group_points",
]

log = logging.getLogger(__name__)

DENSITY_BATCH = 64  # interior samples drawn between convergence checks


@dataclass(frozen=True)
class EmbeddingTable:
    """Unit -> d-vector mapping with a fixed dimension."""

    dimension: int
    vectors: dict[str, np.ndarray]

    def __post_init__(self):
        for unit, vec in self.vectors.items():
            if vec.shape != (self.dimension,):
                raise PhonoprepError(f"vector for {unit!r} has shape {vec.shape},"
                                     f" expected ({self.dimension},)")
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"non-finite components for {unit!r}")

    def matrix(self) -> tuple[list[str], np.ndarray]:
        units = sorted(self.vectors)
        return units, np.array([self.vectors[u] for u in units])


@dataclass(frozen=True)
class Projection2D:
    """Mean vector plus two orthonormal principal directions."""

    mean: np.ndarray  # (d,)
    components: np.ndarray  # (2, d)


@dataclass(frozen=True)
class HullParams:
    """Outlier-removal parameters for the smoothed hull.

    ``beta`` is a fraction of the point count when in (0, 1) and an
    absolute neighbor count when >= 1; ``radius`` is the ball radius in
    projected units.
    """

    beta: float
    radius: float

    def __post_init__(self):
        for name, value in (("beta", self.beta), ("radius", self.radius)):
            if not 0 < value < np.inf:  # NaN compares false
                raise ValueError(f"{name} must be finite and positive, got {value!r}")

    def required_neighbors(self, n_points: int) -> float:
        return self.beta if self.beta >= 1 else self.beta * n_points


@dataclass(frozen=True)
class HullMetrics:
    vertices: np.ndarray  # (m, 2) counter-clockwise
    volume: float  # 2-D area of the hull
    removed_outliers: int

    @property
    def degenerate(self) -> bool:
        return len(self.vertices) < 3 or self.volume == 0.0


@dataclass(frozen=True)
class GammaReport:
    gamma: float
    centroids: np.ndarray  # (K, 2)
    group_sizes: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.centroids)

    def format_line(self) -> str:
        return f"{self.gamma:.12g}"

    def to_dict(self) -> dict:
        return {"schema": "phonoprep/gamma-report/1", "gamma": self.gamma,
                "groups": self.k, "group_sizes": list(self.group_sizes)}

    def rows(self) -> tuple[list[str], list]:
        return ["gamma", "groups"], [[self.gamma, self.k]]


@dataclass(frozen=True)
class CurveReport:
    """A curve of ``(x, y)`` points: the volume CDF or the coverage curve."""

    schema: str
    key: str  # name of the JSON list of points
    columns: tuple[str, str]
    points: list[tuple[float, float]]
    seed: int | None = None  # group order of the coverage curve

    @classmethod
    def volume_cdf(cls, points: list[tuple[float, float]]) -> "CurveReport":
        return cls("phonoprep/volume-cdf/1", "points", ("volume", "fraction"), points)

    @classmethod
    def coverage(cls, points: list[tuple[int, float]], seed: int) -> "CurveReport":
        return cls("phonoprep/coverage-curve/1", "steps", ("step", "volume"), points, seed)

    def to_dict(self) -> dict:
        data = {"schema": self.schema,
                self.key: [dict(zip(self.columns, point)) for point in self.points]}
        if self.seed is not None:
            data["seed"] = self.seed
        return data

    def rows(self) -> tuple[list[str], list]:
        return list(self.columns), self.points


@dataclass(frozen=True)
class DensityReport:
    """Distance from hull-interior samples to their i-th nearest reference point."""

    max_density: dict[int, float]
    sum_density: dict[int, float]
    mean_density: dict[int, float]
    converge_threshold: float
    samples_used: int
    chosen_groups: tuple[int, ...]
    seed: int

    def to_dict(self) -> dict:
        return {
            "schema": "phonoprep/density-report/1",
            "seed": self.seed,
            "converge_threshold": self.converge_threshold,
            "samples_used": self.samples_used,
            "chosen_groups": list(self.chosen_groups),
            "per_index": {str(i): {"max": self.max_density[i], "sum": self.sum_density[i],
                                   "mean": self.mean_density[i]}
                          for i in sorted(self.max_density)},
        }

    def rows(self) -> tuple[list[str], list]:
        return ["index", "max", "sum", "mean"], [
            [i, self.max_density[i], self.sum_density[i], self.mean_density[i]]
            for i in sorted(self.max_density)]


# --- embeddings ---

def cooccurrence_counts(lines: Iterable[str], window: int = 5) -> tuple[list[str], csr_matrix]:
    """Symmetric-window co-occurrence counts over the vocabulary of ``lines``.

    Every pair of tokens at most ``window`` positions apart within one
    line counts once in each direction. The vocabulary is sorted by
    falling frequency, then by token; the matrix is in canonical CSR form.
    """
    from scipy.sparse import csr_matrix

    check_int("window", window, 0)
    tokens, ids, lengths = _token_ids(lines)
    if not tokens:
        raise PhonoprepError("corpus has no tokens")
    n = len(tokens)
    freq = np.bincount(ids, minlength=n).tolist()
    order = sorted(range(n), key=lambda i: (-freq[i], tokens[i]))
    vocab = [tokens[i] for i in order]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    ids = rank[ids]
    # (p, p + dist) share a sentence iff p has >= dist tokens after it
    after = _tokens_after(lengths)
    # one int64 key per (earlier, later) occurrence; sorted keys are CSR order
    keys = [np.empty(0, dtype=np.int64)]
    for dist in range(1, window + 1):
        same = after[:-dist] >= dist
        keys.append(ids[:-dist][same] * n + ids[dist:][same])
    keys = np.concatenate(keys)
    pairs, counts = np.unique(keys, return_counts=True)
    del keys
    # row i's entries start at its first key >= i * n
    indptr = np.searchsorted(pairs, np.arange(n + 1) * n)
    ordered = csr_matrix((counts.astype(float), pairs % n, indptr), shape=(n, n))
    # integer-valued floats: each sum is exact
    return vocab, ordered + ordered.T


def ppmi(matrix: csr_matrix) -> csr_matrix:
    """Positive pointwise mutual information of a co-occurrence matrix."""
    from scipy.sparse import csr_matrix

    total = matrix.sum()
    row = np.asarray(matrix.sum(axis=1)).ravel()
    col = np.asarray(matrix.sum(axis=0)).ravel()
    out = matrix.tocoo()
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.log(out.data * total / (row[out.row] * col[out.col]))
    vals[~np.isfinite(vals)] = 0.0
    vals[vals < 0] = 0.0
    return csr_matrix((vals, (out.row, out.col)), shape=matrix.shape)


def _fix_signs(u: np.ndarray) -> np.ndarray:
    # canonical orientation: largest-magnitude entry of each column positive
    for j in range(u.shape[1]):
        i = np.argmax(np.abs(u[:, j]))
        if u[i, j] < 0:
            u[:, j] = -u[:, j]
    return u


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Divide every row of ``matrix`` by its norm in place and return ``matrix``; a zero
    row stays zero. A row's norm reduces that row alone, so 128 rows at a time give the
    bits of the whole-matrix division without a temporary the size of ``matrix``."""
    for start in range(0, len(matrix), 128):
        rows = matrix[start:start + 128]
        norms = np.linalg.norm(rows, axis=1)
        norms[norms == 0] = 1.0
        rows /= norms[:, None]
    return matrix


def train_embeddings(
    lines: Iterable[str],
    d: int = 100,
    window: int = 5,
    seed: int = 0,
    normalize: bool = False,
) -> EmbeddingTable:
    """PPMI + truncated SVD embeddings of the tokens of ``lines``.

    The output is the same per seed for a given numpy/scipy build, OpenBLAS
    kernel and thread count; another one may round the solver's products,
    and so a vector's last bits, differently. Measured on the desk corpus
    (d=100, seed 7, unit rows): 1 and 2 OpenBLAS threads differ by at most
    9.3e-13 in any entry, and the Prescott and Haswell kernels by 1.3e-12;
    the noise stream drawn from each table was the same. A test holds the
    thread gap to 1e-9.

    ``normalize`` rescales every vector to unit length (vector norms from
    this construction track token frequency, which distorts geometric
    analyses; cosine-based uses are unaffected either way). If the
    vocabulary is smaller than ``d`` the dimension is reduced with a
    warning. A corpus whose PPMI matrix has no positive entry (no pair
    within ``window``, or every pair at or below chance) raises
    ``PhonoprepError``.
    """
    check_int("d", d, 2)
    check_int("seed", seed, 0)
    vocab, counts = cooccurrence_counts(lines, window=window)
    weights = ppmi(counts)
    del counts  # not beside the solver's workspace
    if not (weights.data > 0).any():  # ``ppmi`` stores explicit zeros
        raise PhonoprepError(
            f"no word pair within window {window} co-occurs above chance; nothing to embed")
    n = len(vocab)
    if d > n:
        warnings.warn(
            f"vocabulary ({n}) smaller than requested dimension ({d}); reducing",
            stacklevel=2,
        )
        d = n

    if n <= max(4 * d, 256):
        dense = weights.toarray()
        u, s, _ = np.linalg.svd(dense, full_matrices=False)
        u, s = u[:, :d], s[:d]
    else:
        from scipy.sparse.linalg import LinearOperator, svds

        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(min(weights.shape))
        # ``weights`` is exactly symmetric: the counts are ``ordered +
        # ordered.T``, their row and column sums add whole numbers exactly,
        # and the product in the PPMI denominator commutes. So it is its own
        # adjoint, and every product can use its CSR rows instead of a CSC
        # transpose; both add each row's terms in column order
        op = LinearOperator(weights.shape, matvec=weights.dot, rmatvec=weights.dot,
                            matmat=weights.dot, rmatmat=weights.dot, dtype=weights.dtype)
        u, s, _ = svds(op, k=d, v0=v0)
        order = np.argsort(s)[::-1]
        u, s = u[:, order], s[order]
    u = _fix_signs(u)
    emb = u * np.sqrt(s)
    if normalize:
        _unit_rows(emb)
    return EmbeddingTable(
        dimension=d,
        vectors={w: emb[i].copy() for i, w in enumerate(vocab)},
    )


def save_embeddings(table: EmbeddingTable, path: str | Path) -> None:
    """Write ``unit v1 v2 ... vd`` lines, sorted by unit, that ``load_embeddings`` reads."""
    write_lines(path, (f"{unit} {' '.join(repr(float(x)) for x in table.vectors[unit])}"
                       for unit in sorted(table.vectors)))


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Read ``unit v1 v2 ... vd`` lines; dimension fixed by the first line."""
    path = Path(path)
    vectors: dict[str, np.ndarray] = {}
    dimension = None
    for lineno, line in enumerate(read_lines(path), start=1):
        parts = line.split()
        if not parts:
            continue
        unit, comps = parts[0], parts[1:]
        if dimension is None:
            dimension = len(comps)
            if dimension < 1:
                raise PhonoprepError(f"{path}:{lineno}: expected 1 components, got 0")
        if len(comps) != dimension:
            raise PhonoprepError(f"{path}:{lineno}: expected {dimension} components,"
                                 f" got {len(comps)}")
        try:
            vec = np.array([float(x) for x in comps])
        except ValueError as exc:
            raise PhonoprepError(f"{path}:{lineno}: {exc}") from None
        if unit in vectors:
            log.warning("duplicate unit %r at %s:%d; last entry wins", unit, path, lineno)
        vectors[unit] = vec
    if dimension is None:
        raise PhonoprepError(f"no vectors in {path}")
    return EmbeddingTable(dimension=dimension, vectors=vectors)


# --- projection ---

def pca_project(table: EmbeddingTable) -> tuple[Projection2D, dict[str, np.ndarray]]:
    """Mean-centered PCA to the top two principal directions."""
    units, matrix = table.matrix()
    if len(units) < 3:
        raise ValueError("need at least 3 units to project")
    mean = matrix.mean(axis=0)
    centered = matrix - mean
    if np.allclose(centered, 0.0):
        raise PhonoprepError("all embedding vectors identical")
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    components = _fix_signs(vt[:2].T).T
    projected = {u: (table.vectors[u] - mean) @ components.T for u in units}
    return Projection2D(mean=mean, components=components), projected


# --- hull machinery ---

def _chain(rows: Iterable[list[float]]) -> list[list[float]]:
    """One monotone chain: keep each point, popping earlier ones that do not turn left."""
    chain: list[list[float]] = []
    for p in rows:
        # cross product (b - a) x (p - a) of the last two chain points a, b
        while len(chain) >= 2 and ((chain[-1][0] - chain[-2][0]) * (p[1] - chain[-2][1])
                                   - (chain[-1][1] - chain[-2][1]) * (p[0] - chain[-2][0])) <= 0:
            chain.pop()
        chain.append(p)
    return chain


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain convex hull; vertices in counter-clockwise order.

    Duplicate points count once, and points are visited sorted by x, then
    y. The order of the returned vertices is part of the contract, as
    ``density_measure`` weights them in turn.
    """
    pts = np.asarray(points, dtype=float)
    pts = pts[np.lexsort(pts.T[::-1])]
    if len(pts) > 1:
        pts = pts[np.concatenate(([True], (pts[1:] != pts[:-1]).any(axis=1)))]
    if len(pts) <= 2:
        return pts
    rows = pts.tolist()
    return np.array(_chain(rows)[:-1] + _chain(reversed(rows))[:-1])


def polygon_area(vertices: np.ndarray) -> float:
    """Shoelace area of a simple polygon (non-negative for CCW input)."""
    if len(vertices) < 3:
        return 0.0
    x, y = vertices[:, 0], vertices[:, 1]
    return float(abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) / 2.0)


def smooth_hull(points: Sequence[Sequence[float]] | np.ndarray,
                params: HullParams | None = None) -> HullMetrics:
    """Convex hull after removing sparsely-neighbored points.

    A point is removed when its closed r-ball holds fewer than the required
    number of *other* points. ``params=None`` disables removal entirely. Where
    every point is removed, the hull is empty: no vertices and volume 0.0.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0 or pts.shape[1] != 2:  # a hull is drawn in the plane
        raise ValueError(f"need one or more 2-D points, got an array of shape {pts.shape}")
    removed = 0
    if params is not None:
        from scipy.spatial import cKDTree

        required = params.required_neighbors(len(pts))
        tree = cKDTree(pts)
        neighbor_counts = np.array(
            [len(ix) - 1 for ix in tree.query_ball_point(pts, params.radius)]
        )
        keep = neighbor_counts >= required
        removed = int((~keep).sum())
        pts = pts[keep]
    vertices = convex_hull(pts)
    return HullMetrics(
        vertices=vertices,
        volume=polygon_area(vertices),
        removed_outliers=removed,
    )


def coverage_curve(
    groups: Sequence[np.ndarray],
    order_seed: int,
    params: HullParams | None = None,
) -> list[tuple[int, float]]:
    """Cumulative smoothed-hull volume as groups are added in seeded order.

    A step whose pooled points the smoothing removes entirely has volume 0.0,
    as a group has in ``volume_cdf``.
    """
    check_int("order_seed", order_seed, 0)
    if not groups:
        raise ValueError("need at least one group")
    rng = np.random.default_rng(order_seed)
    order = rng.permutation(len(groups))
    curve: list[tuple[int, float]] = []
    pool: list[np.ndarray] = []
    for step, g in enumerate(order, start=1):
        pool.append(np.atleast_2d(np.asarray(groups[g], dtype=float)))
        curve.append((step, smooth_hull(np.vstack(pool), params).volume))
    return curve


def volume_cdf(
    groups: Sequence[np.ndarray],
    params: HullParams | None = None,
) -> list[tuple[float, float]]:
    """Per-group hull volumes paired with empirical CDF values k/n."""
    if not groups:
        raise ValueError("need at least one group")
    volumes = sorted(smooth_hull(g, params).volume for g in groups)
    n = len(volumes)
    return [(v, (i + 1) / n) for i, v in enumerate(volumes)]


def concentration_factor(groups: Sequence[np.ndarray]) -> GammaReport:
    """Centroid spread divided by total within-group dispersion.

    Smaller values mean the groups are individually more spread out.
    """
    if not groups:
        raise ValueError("need at least one group")
    arrays = [np.atleast_2d(np.asarray(g, dtype=float)) for g in groups]
    if any(len(a) == 0 for a in arrays):
        raise ValueError("groups must be non-empty")
    centroids = np.array([a.mean(axis=0) for a in arrays])
    center = centroids.mean(axis=0)
    numerator = float(np.linalg.norm(centroids - center, axis=1).sum())
    denominator = float(
        sum(np.linalg.norm(a - c, axis=1).sum() for a, c in zip(arrays, centroids))
    )
    if denominator == 0.0:
        raise PhonoprepError("every group is a single repeated point")
    return GammaReport(
        gamma=numerator / denominator,
        centroids=centroids,
        group_sizes=tuple(len(a) for a in arrays),
    )


def density_measure(
    all_points: np.ndarray,
    groups: Sequence[np.ndarray],
    neighbor_index: int = 3,
    params: HullParams | None = None,
    m: int = 10_000,
    threshold: float = 0.001,
    seed: int = 0,
) -> DensityReport:
    """Sample the hull interior and measure distance to reference groups.

    Five seeded random groups form the reference set. Interior samples are
    convex combinations of the smoothed-hull corners with uniform random
    normalized weights. For every neighbor index 1..``neighbor_index`` the
    max, sum, and mean of the i-th nearest-neighbor distances are reported.
    Sampling stops at ``m`` samples or when the running mean (at the
    deepest index) moves less than ``threshold`` between batches.
    """
    check_int("seed", seed, 0)
    if neighbor_index not in (1, 2, 3):
        raise ValueError("neighbor_index must be 1, 2, or 3")
    m = check_int("m", m, 1)
    if len(groups) < 5:
        raise PhonoprepError(f"need >= 5 groups, got {len(groups)}")
    rng = np.random.default_rng(seed)
    chosen = tuple(sorted(rng.choice(len(groups), size=5, replace=False).tolist()))
    reference = np.vstack([np.atleast_2d(np.asarray(groups[i], dtype=float)) for i in chosen])
    if len(reference) < neighbor_index:
        raise PhonoprepError(
            f"reference set of {len(reference)} points cannot answer "
            f"{neighbor_index}-nearest-neighbor queries"
        )

    metrics = smooth_hull(all_points, params)
    if metrics.degenerate:
        raise PhonoprepError(f"smoothed hull of all points is degenerate"
                             f" ({metrics.removed_outliers} of {len(np.atleast_2d(all_points))}"
                             f" points removed as outliers)")
    corners = metrics.vertices

    from scipy.spatial import cKDTree

    tree = cKDTree(reference)
    indices = range(1, neighbor_index + 1)
    sums = {i: 0.0 for i in indices}
    maxes = {i: 0.0 for i in indices}
    samples_used = 0
    prev_mean = None
    while samples_used < m:
        batch = min(DENSITY_BATCH, m - samples_used)
        q = rng.random((batch, len(corners)))
        weights = q / q.sum(axis=1, keepdims=True)
        samples = weights @ corners
        dists, _ = tree.query(samples, k=neighbor_index)
        dists = np.asarray(dists).reshape(len(samples), neighbor_index)
        for i in indices:
            col = dists[:, i - 1]
            sums[i] += float(col.sum())
            maxes[i] = max(maxes[i], float(col.max()))
        samples_used += batch
        mean = sums[neighbor_index] / samples_used
        if prev_mean is not None and abs(mean - prev_mean) < threshold:
            break
        prev_mean = mean

    return DensityReport(
        max_density={i: maxes[i] for i in indices},
        sum_density={i: sums[i] for i in indices},
        mean_density={i: sums[i] / samples_used for i in indices},
        converge_threshold=threshold,
        samples_used=samples_used,
        chosen_groups=chosen,
        seed=seed,
    )


def group_points(
    projected: Mapping[str, np.ndarray],
    encoding: Mapping[str, str],
) -> list[np.ndarray]:
    """One point-list per distinct code, ordered by code.

    Units missing a projection are skipped (count logged).
    """
    buckets: dict[str, list[np.ndarray]] = {}
    skipped = 0
    for unit, code in encoding.items():
        vec = projected.get(unit)
        if vec is None:
            skipped += 1
            continue
        buckets.setdefault(code, []).append(np.asarray(vec, dtype=float))
    if skipped:
        log.warning("%d units had no projection and were skipped", skipped)
    return [np.array(buckets[code]) for code in sorted(buckets)]
