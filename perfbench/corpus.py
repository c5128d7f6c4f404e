"""Seeded corpus generator for the benchmark's two corpus shapes.

The vocabulary is built from consonant skeletons decorated with vowels, so
phonetic codes collide in many-to-one groups; topics are assigned
independently of spelling, and sentences mix topic words with shared
function words. ``DESK`` with seed ``DESK_SEED`` reproduces the bundled
``data/desk_en.txt`` byte for byte: the random draws are the ones
``tools/make_desk_corpus.py`` makes, in the same order. Per sentence they
are taken as one vector (``random(2 * length)`` yields the same doubles as
``2 * length`` scalar calls), and ``choice(a, p=w)`` is replaced by the
search it performs on the cumulative weights.

``WIDE`` has a larger skeleton space, more words per topic and a flatter
Zipf law, so most tokens are rare and the type/token ratio is about ten
times the desk corpus's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DESK_SEED = 20260809

ONSETS = (
    "b", "d", "f", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
    "br", "dr", "fl", "kl", "pr", "st", "tr", "sp", "bl", "kr",
)
MIDDLES = (
    "b", "d", "f", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
    "mb", "nd", "rt", "st", "lt", "nk", "rm", "ls", "nt", "rp",
)
ENDS = ("", "n", "r", "s", "t", "l", "k", "m")
VOWELS = tuple("aeiou")
N_TOPICS = 4
N_FUNCTION_WORDS = 60
FUNCTION_WORD_RATE = 0.3
SENTENCE_LENGTHS = (8, 25)  # half-open


@dataclass(frozen=True)
class CorpusShape:
    n_sentences: int
    words_per_topic: int
    n_skeletons: int
    onsets: tuple[str, ...]
    middles: tuple[str, ...]
    ends: tuple[str, ...]
    zipf_exponent: float


# the bundled desk corpus (tools/make_desk_corpus.py)
DESK = CorpusShape(
    n_sentences=10_000, words_per_topic=1250, n_skeletons=400,
    onsets=ONSETS, middles=MIDDLES, ends=ENDS, zipf_exponent=0.8,
)

# wide vocabulary: 'g', 'h', 'w', 'j' and more clusters enlarge the
# skeleton space; a flat Zipf law spreads tokens over many rare types
WIDE = CorpusShape(
    n_sentences=900, words_per_topic=1700, n_skeletons=1600,
    onsets=ONSETS + ("g", "h", "w", "j", "gr", "sk", "sl", "sn", "ch", "sh", "th", "pl"),
    middles=MIDDLES + ("g", "h", "w", "ng", "sk", "ck", "ll", "ss", "rd", "lp", "ft", "x"),
    ends=ENDS + ("d", "p", "f", "ng", "st", "nd", "rk", "x"),
    zipf_exponent=0.3,
)


def _vocabulary(rng: np.random.Generator, shape: CorpusShape) -> list[str]:
    skeletons = set()
    while len(skeletons) < shape.n_skeletons:
        skeletons.add((
            shape.onsets[rng.integers(len(shape.onsets))],
            shape.middles[rng.integers(len(shape.middles))],
            shape.ends[rng.integers(len(shape.ends))],
        ))
    skeletons = sorted(skeletons)

    words: set[str] = set()
    target = N_TOPICS * shape.words_per_topic
    while len(words) < target:
        onset, middle, end = skeletons[rng.integers(len(skeletons))]
        v1 = VOWELS[rng.integers(5)]
        v2 = VOWELS[rng.integers(5)]
        words.add(onset + v1 + middle + v2 + end)
    return sorted(words)


def _function_words(rng: np.random.Generator, shape: CorpusShape) -> list[str]:
    words: set[str] = set()
    while len(words) < N_FUNCTION_WORDS:
        onset = shape.onsets[rng.integers(13)]  # single-consonant onsets only
        words.add(onset + VOWELS[rng.integers(5)])
    return sorted(words)


def _zipf_cdf(n: int, exponent: float) -> np.ndarray:
    weights = np.arange(1, n + 1, dtype=float) ** -exponent
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def generate(shape: CorpusShape, seed: int) -> list[str]:
    """The corpus's sentences, one string per line; same seed, same lines."""
    rng = np.random.default_rng(seed)
    vocab = _vocabulary(rng, shape)
    function_words = np.array(_function_words(rng, shape))

    topic_of = rng.integers(N_TOPICS, size=len(vocab))
    topics = [np.array([w for w, t in zip(vocab, topic_of) if t == topic])
              for topic in range(N_TOPICS)]

    function_cdf = _zipf_cdf(len(function_words), shape.zipf_exponent)
    topic_cdf = [_zipf_cdf(len(t), shape.zipf_exponent) for t in topics]

    lines = []
    for _ in range(shape.n_sentences):
        topic = int(rng.integers(N_TOPICS))
        length = int(rng.integers(*SENTENCE_LENGTHS))
        draws = rng.random(2 * length)
        is_function = draws[0::2] < FUNCTION_WORD_RATE
        picks = draws[1::2]
        tokens = np.empty(length, dtype=object)
        tokens[is_function] = function_words[
            function_cdf.searchsorted(picks[is_function], side="right")]
        tokens[~is_function] = topics[topic][
            topic_cdf[topic].searchsorted(picks[~is_function], side="right")]
        lines.append(" ".join(tokens))
    return lines


def corpus_text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def type_token_ratio(lines: list[str]) -> float:
    tokens = [tok for line in lines for tok in line.split()]
    return len(set(tokens)) / len(tokens)
