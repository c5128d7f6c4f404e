"""Robustness data generation: similarity noise and edit perturbations.

``noise_augment`` substitutes a fixed fraction of words per sentence with
embedding-space neighbors (sampled proportionally to positive cosine
similarity). It reads its whole corpus before it draws: the neighbors of the
corpus's words, and of no other table word, are computed up front, one matrix
product per block of words, which may round a similarity differently in the
last place than a per-word product (tests pin the drawn streams). So the noise
is the same per seed for a given numpy/scipy build, OpenBLAS kernel and thread
count. ``perturb_edit`` applies a fixed number of word-level edit operations.
In both, sentence ``i`` draws the stream of
``np.random.default_rng([seed, i])``. The SeedSequence words of every
sentence are hashed for the whole corpus in one array pass, and each
sentence gets a fresh PCG64 seeded from its row of them.

Weighted draws reproduce ``Generator.choice(n, p=weights)`` index for index
and leave the generator in the same state: numpy's normalised CDF is built
once (per word type for neighbors; ``_OP_CDF`` for the three uniform edit
operations) and each draw bisects it with one ``rng.random()``.
"""

from __future__ import annotations

import functools
import logging
from bisect import bisect_right
from dataclasses import dataclass
from typing import Container, Iterable, Iterator, Sequence

import numpy as np

from .errors import PhonoprepError, check_fraction, check_int
from .geometry import EmbeddingTable, _unit_rows
from .subword import token_counts

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
_OP_CDF = [1 / 3, 2 / 3, 1.0]  # the CDF of ``Generator.choice(3, p=[1 / 3] * 3)``


@dataclass(frozen=True)
class NoiseSpec:
    """Similarity-noise parameters: replace ``fraction`` of words per sentence."""

    fraction: float = 0.2
    top_n: int = 10
    seed: int = 0

    def __post_init__(self):
        check_fraction("fraction", self.fraction)
        check_int("top_n", self.top_n, 1)
        check_int("seed", self.seed, 0)


@dataclass(frozen=True)
class PerturbationSpec:
    """Edit-perturbation parameters: exactly ``k`` operations per sentence."""

    k: int
    seed: int = 0

    def __post_init__(self):
        check_int("k", self.k, 0)
        check_int("seed", self.seed, 0)


class _NeighborSampler:
    """Top-n cosine neighbors, with their sampling CDFs, of the given words;
    None for a word with no positively similar neighbor (a lone unit has none)."""

    # rows per similarity product: the bytes hold only at this size, as BLAS may
    # round a row's products differently in a block of another size
    BLOCK = 128
    SELECT = 32  # rows per top-n selection: it works row by row, on a smaller index array

    def __init__(self, table: EmbeddingTable, top_n: int, words: Container[str]):
        if not table.vectors:
            raise PhonoprepError("embedding table has no vectors")
        units, matrix = table.matrix()
        normed = _unit_rows(matrix.astype(np.float64, copy=False))  # in place, ints cast first
        rows = [i for i, u in enumerate(units) if u in words]
        n = max(min(top_n, len(units) - 1), 1)
        self._candidates: dict[str, tuple[list[str], list[float]] | None] = {}
        for start in range(0, len(rows), self.BLOCK):
            block = rows[start:start + self.BLOCK]
            sims = normed[block] @ normed.T
            sims[np.arange(len(block)), block] = -np.inf
            top = np.concatenate([np.argpartition(sims[i:i + self.SELECT], -n, axis=1)[:, -n:]
                                  for i in range(0, len(block), self.SELECT)])
            order = np.argsort(np.take_along_axis(sims, top, axis=1), axis=1)[:, ::-1]
            top = np.take_along_axis(top, order, axis=1)
            weights = np.maximum(np.take_along_axis(sims, top, axis=1), 0.0)
            del sims  # before the next block's product
            # numpy's ``choice`` CDF of each row with positive weight, all rows at once
            totals = weights.sum(axis=1)
            live = totals > 0
            cdfs = np.cumsum(weights[live] / totals[live, None], axis=1)
            cdfs /= cdfs[:, -1:]
            live_cdfs = iter(cdfs.tolist())
            for wi, neighbors, alive in zip(block, top.tolist(), live.tolist()):
                self._candidates[units[wi]] = (
                    ([units[i] for i in neighbors], next(live_cdfs)) if alive else None)

    def candidates(self, word: str) -> tuple[list[str], list[float]] | None:
        """Top-n neighbors of ``word`` (excluding itself) with their sampling CDF."""
        return self._candidates.get(word)


def _draw(cdf: list[float], rng: np.random.Generator) -> int:
    """The index ``Generator.choice(len(cdf), p=p)`` returns, from one ``rng.random()``.

    numpy takes ``cdf.searchsorted(rng.random(), side="right")``;
    ``bisect_right`` makes the same comparisons on the same floats.
    """
    return bisect_right(cdf, rng.random())


# numpy's SeedSequence hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def _seed_words(seed: int, count: int) -> np.ndarray:
    """PCG64 seed words of ``np.random.default_rng([seed, i])`` for every ``i < count``.

    Returns a ``(count, 4)`` uint64 array whose row ``i`` equals
    ``np.random.SeedSequence([seed, i]).generate_state(4, np.uint64)``. The
    hash is numpy's, applied to all sentences at once: SeedSequence hashes
    the 32-bit words of ``seed`` (least significant first) and of ``i`` into
    a pool of four words and draws eight words from it, which pair into
    four uint64 words as numpy pairs them. uint32 arrays wrap as the C
    arithmetic does. ``seed`` must be an integer >= 0 and ``count`` at most
    2**32, so that each ``i`` is one word.
    """
    seed = int(seed)
    words = [(seed >> shift) & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.zeros((max(len(words) + 1, _POOL_SIZE), count), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(count, dtype=np.uint32)

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    drawn = []
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        drawn.append(value ^ (value >> 16))
    return np.stack(drawn, axis=1).astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seed_words_type() -> type:
    """The class of one precomputed row of ``_seed_words``, handed to ``PCG64`` as its seed.

    It is built on first use, as its base class loads ``numpy.random``, which
    importing this module does not."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("precomputed seed words hold exactly 4 uint64 words")
            return self.words

    return SeedWords


def _sentence_generators(seed: int, count: int) -> Iterator[np.random.Generator]:
    """A fresh generator in the state of ``default_rng([seed, i])`` for every ``i < count``."""
    from numpy.random import PCG64, Generator

    seed_words = _seed_words_type()
    for words in _seed_words(seed, count):
        yield Generator(PCG64(seed_words(words)))


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
    counts = token_counts(lines)
    sampler = _NeighborSampler(table, spec.top_n, counts)
    total_tokens = counts.total()
    covered_tokens = sum(n for t, n in counts.items() if t in table.vectors)
    out: list[str] = []
    replaced = 0
    for line, rng in zip(lines, _sentence_generators(spec.seed, len(lines))):
        tokens = line.split()
        if not tokens:
            out.append(line)
            continue
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
    tokens = list(sentence)
    exhausted = not tokens
    for _ in range(spec.k):
        op = EDIT_OPS[_draw(_OP_CDF, rng)]
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
    lines = list(corpus)
    return [" ".join(perturb_edit(line.split(), vocab, spec, rng=rng))
            for line, rng in zip(lines, _sentence_generators(spec.seed, len(lines)))]


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
