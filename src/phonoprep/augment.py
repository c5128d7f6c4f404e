"""Robustness data generation: similarity noise and edit perturbations.

``noise_augment`` substitutes a fixed fraction of words per sentence with
embedding-space neighbors (sampled proportionally to positive cosine
similarity). It reads its whole corpus before it draws: the neighbors of the
corpus's words, and of no other table word, are computed up front, one matrix
product per block of words, which may round a similarity differently in the
last place than a per-word product (tests pin the drawn streams).
``perturb_edit`` applies a fixed number of word-level edit operations. Both
are deterministic per seed, with independent per-sentence substreams.

Weighted draws reproduce ``Generator.choice(n, p=weights)`` index for index
and leave the generator in the same state: numpy's normalised CDF is built
once (per word type for neighbors, per call for edit operations) and each
draw bisects it with one ``rng.random()``. The weights are validated once,
where they are built, instead of on every draw.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from dataclasses import dataclass
from typing import Container, Iterable, Sequence

import numpy as np

from .errors import EmptyEmbedding
from .geometry import EmbeddingTable

__all__ = [
    "NoiseSpec",
    "PerturbationSpec",
    "noise_augment",
    "perturb_edit",
    "perturb_corpus",
    "edit_distance",
]

log = logging.getLogger(__name__)

EDIT_OPS = ("deletion", "substitution", "insertion")


@dataclass(frozen=True)
class NoiseSpec:
    """Similarity-noise parameters: replace ``fraction`` of words per sentence."""

    fraction: float = 0.2
    top_n: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if self.top_n < 1:
            raise ValueError("top_n must be >= 1")


@dataclass(frozen=True)
class PerturbationSpec:
    """Edit-perturbation parameters: exactly ``k`` operations per sentence."""

    k: int
    seed: int = 0
    op_weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if len(self.op_weights) != 3 or any(w < 0 for w in self.op_weights):
            raise ValueError("op_weights must be three non-negative weights")
        total = sum(self.op_weights)
        if total <= 0:
            raise ValueError("op_weights must not all be zero")
        object.__setattr__(
            self, "op_weights", tuple(w / total for w in self.op_weights)
        )


class _NeighborSampler:
    """Top-n cosine neighbors, with their sampling CDFs, of the given words;
    None for a word with no positively similar neighbor (a lone unit has none)."""

    BLOCK = 128  # rows per similarity product

    def __init__(self, table: EmbeddingTable, top_n: int, words: Container[str]):
        if not table.vectors:
            raise EmptyEmbedding("embedding table has no vectors")
        units, matrix = table.matrix()
        norms = np.linalg.norm(matrix, axis=1)
        norms[norms == 0] = 1.0
        normed = matrix / norms[:, None]
        rows = [i for i, u in enumerate(units) if u in words]
        n = max(min(top_n, len(units) - 1), 1)
        self._candidates: dict[str, tuple[list[str], list[float]] | None] = {}
        for start in range(0, len(rows), self.BLOCK):
            block = rows[start:start + self.BLOCK]
            sims = normed[block] @ normed.T
            sims[np.arange(len(block)), block] = -np.inf
            top = np.argpartition(sims, -n, axis=1)[:, -n:]
            order = np.argsort(np.take_along_axis(sims, top, axis=1), axis=1)[:, ::-1]
            top = np.take_along_axis(top, order, axis=1)
            weights = np.maximum(np.take_along_axis(sims, top, axis=1), 0.0)
            for wi, neighbors, w in zip(block, top, weights):
                self._candidates[units[wi]] = (
                    ([units[i] for i in neighbors], _cdf(w / w.sum())) if w.sum() > 0 else None)

    def candidates(self, word: str) -> tuple[list[str], list[float]] | None:
        """Top-n neighbors of ``word`` (excluding itself) with their sampling CDF."""
        return self._candidates.get(word)


def _cdf(p) -> list[float]:
    """The CDF ``Generator.choice(p=p)`` searches: ``p.cumsum()`` over its last value.

    ``p`` must be finite and non-negative with a positive sum; callers check
    that where the weights are built.
    """
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _draw(cdf: list[float], rng: np.random.Generator) -> int:
    """The index ``Generator.choice(len(cdf), p=p)`` returns, from one ``rng.random()``.

    numpy takes ``cdf.searchsorted(rng.random(), side="right")``;
    ``bisect_right`` makes the same comparisons on the same floats.
    """
    return bisect_right(cdf, rng.random())


def _replacement_count(fraction: float, length: int) -> int:
    # round to nearest keeps the corpus-level replacement rate at ``fraction``
    # (a ceiling would bias short sentences upward)
    return int(np.floor(fraction * length + 0.5))


def noise_augment(
    corpus: Iterable[str],
    table: EmbeddingTable,
    spec: NoiseSpec,
    stats_out: dict | None = None,
) -> list[str]:
    """Substitute sampled words with embedding neighbors, sentence by sentence.

    Words without vectors (or without positively-similar neighbors) stay
    unchanged. Sentence count and per-sentence length are preserved.
    """
    lines = list(corpus)
    sampler = _NeighborSampler(table, spec.top_n, {t for line in lines for t in line.split()})
    out: list[str] = []
    total_tokens = 0
    covered_tokens = 0
    replaced = 0
    for sent_index, line in enumerate(lines):
        tokens = line.split()
        total_tokens += len(tokens)
        covered_tokens += sum(1 for t in tokens if t in table.vectors)
        if not tokens:
            out.append(line)
            continue
        rng = np.random.default_rng([spec.seed, sent_index])
        count = _replacement_count(spec.fraction, len(tokens))
        for pos in sorted(rng.choice(len(tokens), size=count, replace=False)):
            cand = sampler.candidates(tokens[pos])
            if cand is None:
                continue
            words, cdf = cand
            tokens[pos] = words[_draw(cdf, rng)]
            replaced += 1
        out.append(" ".join(tokens))

    coverage = covered_tokens / total_tokens if total_tokens else 0.0
    if coverage < 0.9:
        log.warning("embedding covers only %.1f%% of corpus tokens", 100 * coverage)
    if stats_out is not None:
        stats_out.update(
            total_tokens=total_tokens,
            replaced_tokens=replaced,
            replacement_rate=replaced / total_tokens if total_tokens else 0.0,
            embedding_coverage=coverage,
        )
    return out


def perturb_edit(
    sentence: Sequence[str],
    vocab: Sequence[str],
    spec: PerturbationSpec,
    rng: np.random.Generator | None = None,
) -> list[str]:
    """Apply exactly ``k`` uniform edit operations to a token list.

    Deletions and substitutions on an emptied sentence fall back to
    insertions so all ``k`` operations are always performed.
    """
    if not vocab:
        raise ValueError("vocab must be non-empty")
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    op_cdf = _cdf(spec.op_weights)
    tokens = list(sentence)
    exhausted = not tokens
    for _ in range(spec.k):
        op = EDIT_OPS[_draw(op_cdf, rng)]
        if exhausted:
            op = "insertion"
        if op == "deletion":
            del tokens[rng.integers(len(tokens))]
        elif op == "substitution":
            tokens[rng.integers(len(tokens))] = vocab[rng.integers(len(vocab))]
        else:
            tokens.insert(rng.integers(len(tokens) + 1), vocab[rng.integers(len(vocab))])
        if not tokens:
            exhausted = True
    return tokens


def perturb_corpus(
    corpus: Iterable[str],
    vocab: Sequence[str],
    spec: PerturbationSpec,
) -> list[str]:
    """Perturb every sentence with an index-derived substream of the seed."""
    out = []
    for sent_index, line in enumerate(corpus):
        rng = np.random.default_rng([spec.seed, sent_index])
        out.append(" ".join(perturb_edit(line.split(), vocab, spec, rng=rng)))
    return out


def edit_distance(a: Sequence[str], b: Sequence[str]) -> int:
    """Word-level Levenshtein distance with unit costs."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, tok_a in enumerate(a, start=1):
        current = [i]
        for j, tok_b in enumerate(b, start=1):
            cost = 0 if tok_a == tok_b else 1
            current.append(min(
                previous[j] + 1,       # deletion
                current[j - 1] + 1,    # insertion
                previous[j - 1] + cost,  # substitution / match
            ))
        previous = current
    return previous[-1]
