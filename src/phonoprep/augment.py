"""Robustness data generation: similarity noise and edit perturbations.

``noise_augment`` substitutes a fixed fraction of words per sentence with
embedding-space neighbors (sampled proportionally to positive cosine
similarity). It reads its whole corpus before it draws: the neighbors of the
corpus's words, and of no other table word, are computed up front, one matrix
product per block of words, which may round a similarity differently in the
last place than a per-word product (tests pin the drawn streams).
``perturb_edit`` applies a fixed number of word-level edit operations. Both
are deterministic per seed: sentence ``i`` draws the stream of
``np.random.default_rng([seed, i])``. The generator states of every sentence
are computed for the whole corpus in one array pass, and one generator is
re-seeded from them sentence by sentence.

Weighted draws reproduce ``Generator.choice(n, p=weights)`` index for index
and leave the generator in the same state: numpy's normalised CDF is built
once (per word type for neighbors, per ``PerturbationSpec`` for edit
operations) and each draw bisects it with one ``rng.random()``. The
weights are validated once, where they are built, instead of on every draw.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Container, Iterable, Iterator, Sequence

import numpy as np

from .errors import EmptyEmbedding, check_fraction, check_int
from .geometry import EmbeddingTable, _unit_rows

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
        check_fraction("fraction", self.fraction)
        check_int("top_n", self.top_n, 1)
        check_int("seed", self.seed, 0)


@dataclass(frozen=True)
class PerturbationSpec:
    """Edit-perturbation parameters: exactly ``k`` operations per sentence."""

    k: int
    seed: int = 0
    op_weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)

    def __post_init__(self):
        check_int("k", self.k, 0)
        check_int("seed", self.seed, 0)
        if len(self.op_weights) != 3 or any(w < 0 for w in self.op_weights):
            raise ValueError("op_weights must be three non-negative weights")
        total = sum(self.op_weights)
        if total <= 0:
            raise ValueError("op_weights must not all be zero")
        object.__setattr__(
            self, "op_weights", tuple(w / total for w in self.op_weights)
        )

    @cached_property
    def _op_cdf(self) -> list[float]:
        """The CDF each edit operation is drawn from, built once per spec."""
        return _cdf(self.op_weights)


class _NeighborSampler:
    """Top-n cosine neighbors, with their sampling CDFs, of the given words;
    None for a word with no positively similar neighbor (a lone unit has none)."""

    BLOCK = 128  # rows per similarity product

    def __init__(self, table: EmbeddingTable, top_n: int, words: Container[str]):
        if not table.vectors:
            raise EmptyEmbedding("embedding table has no vectors")
        units, matrix = table.matrix()
        normed = _unit_rows(matrix)
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
            # ``_cdf(w / w.sum())`` of each row with positive weight, all rows at once
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


# numpy's SeedSequence hash constants and PCG64's 128-bit multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT_HI, _PCG64_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_MASK32 = 0xFFFFFFFF


def _sentence_states(seed: int, count: int) -> np.ndarray:
    """PCG64 states of ``np.random.default_rng([seed, i])`` for every ``i < count``.

    Returns a ``(4, count)`` uint64 array whose rows are the high and low
    halves of each generator's 128-bit ``state`` and ``inc``. Each step is
    numpy's, applied to all sentences at once: SeedSequence hashes the
    32-bit words of ``seed`` (least significant first) and of ``i`` into a
    pool of four words and draws eight words from it; PCG64 takes them as
    the 128-bit seed ``s`` and stream ``q``, and sets ``inc = 2q + 1`` and
    ``state = (s + inc) * MULT + inc``. uint32 and uint64 arrays wrap as the
    C arithmetic does. ``seed`` must be an integer >= 0 and ``count`` at
    most 2**32, so that each ``i`` is one word.
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
        drawn.append((value ^ (value >> 16)).astype(np.uint64))
    s_hi, s_lo, q_hi, q_lo = (drawn[2 * k] | drawn[2 * k + 1] << 32 for k in range(4))

    inc_hi, inc_lo = q_hi << 1 | q_lo >> 63, q_lo << 1 | 1
    t_hi, t_lo = _add128(s_hi, s_lo, inc_hi, inc_lo)
    # (t * MULT) mod 2**128: the full low product plus the cross terms' low halves
    p_hi, p_lo = _mul64(t_lo, _PCG64_MULT_LO)
    p_hi += t_hi * _PCG64_MULT_LO + t_lo * _PCG64_MULT_HI
    return np.stack(_add128(p_hi, p_lo, inc_hi, inc_lo) + (inc_hi, inc_lo))


def _add128(a_hi, a_lo, b_hi, b_lo):
    """High and low uint64 halves of ``a + b`` mod 2**128."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _mul64(a, c: int):
    """High and low uint64 halves of the 128-bit product of ``a`` and ``c < 2**64``."""
    a0, a1, c0, c1 = a & _MASK32, a >> 32, c & _MASK32, c >> 32
    p00, p01, p10, p11 = a0 * c0, a0 * c1, a1 * c0, a1 * c1
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32), (p00 & _MASK32) | mid << 32


def _sentence_generators(seed: int, count: int) -> Iterator[np.random.Generator]:
    """One generator, set in turn to the state of ``default_rng([seed, i])``, ``i < count``.

    Each yield re-seeds the same generator, so a sentence's draws must be
    done before the next one is taken. The 32-bit buffer is emptied too,
    as a fresh generator's is.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    for state_hi, state_lo, inc_hi, inc_lo in zip(*_sentence_states(seed, count).tolist()):
        rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


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
    counts = Counter(chain.from_iterable(map(str.split, lines)))
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
        op = EDIT_OPS[_draw(spec._op_cdf, rng)]
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
