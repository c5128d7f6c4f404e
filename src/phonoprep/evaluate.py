"""Corpus-level BLEU scoring and vocabulary statistics.

The scorer reproduces the classic multi-bleu script semantics with one
reference per sentence: case-sensitive, whitespace-tokenized BLEU-4 with
modified (clipped) n-gram precision and the brevity penalty, reported on
the familiar one-line format. Smoothing is off by default; any zero
n-gram precision zeroes the score.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import PhonoprepError
from .subword import TypeMap

# numpy is imported inside the functions that call it, so that ``vocab_stats``,
# which the pipeline reports with, loads no numpy
if TYPE_CHECKING:
    import numpy as np

__all__ = ["BleuReport", "VocabReport", "bleu", "vocab_stats"]

MAX_ORDER = 4
_CHUNK = 4096  # sentence pairs counted at a time


@dataclass(frozen=True)
class BleuReport:
    bleu: float  # percentage in [0, 100]
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    hyp_length: int
    ref_length: int

    @property
    def ratio(self) -> float:
        return self.hyp_length / self.ref_length if self.ref_length else 0.0

    def format_line(self) -> str:
        p = "/".join(f"{100 * x:.1f}" for x in self.precisions)
        return (
            f"BLEU = {self.bleu:.2f}, {p} "
            f"(BP={self.brevity_penalty:.3f}, ratio={self.ratio:.3f}, "
            f"hyp_len={self.hyp_length}, ref_len={self.ref_length})"
        )

    def to_dict(self) -> dict:
        return {"schema": "phonoprep/bleu-report/1", "bleu": self.bleu,
                "precisions": list(self.precisions), "brevity_penalty": self.brevity_penalty,
                "hyp_length": self.hyp_length, "ref_length": self.ref_length}


@dataclass(frozen=True)
class VocabReport:
    """Each named stream's ``(unique, total)`` token counts."""

    streams: dict[str, tuple[int, int]]

    def to_dict(self) -> dict:
        return {
            "schema": "phonoprep/vocab-report/1",
            "streams": {k: {"unique": u, "total": t}
                        for k, (u, t) in sorted(self.streams.items())},
        }

    def rows(self) -> tuple[list[str], list]:
        return ["stream", "unique", "total"], [
            [k, u, t] for k, (u, t) in sorted(self.streams.items())]


def _token_ids(lines: Iterable[str]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Every line's ``str.split()`` tokens as integer ids.

    Returns the distinct tokens in order of first appearance (token ``i``
    has id ``i``), the int64 ids of all tokens line after line, and each
    line's token count, 0 for a blank line. Each line is split once and its
    token strings are dropped before the next line is read.
    """
    import numpy as np

    index = TypeMap(lambda token: len(index))  # a token not yet seen gets the next id
    ids, lengths = array("q"), array("q")
    for line in lines:
        tokens = line.split()
        ids.extend(map(index.__getitem__, tokens))
        lengths.append(len(tokens))
    return (list(index), np.frombuffer(ids, dtype=np.int64),
            np.frombuffer(lengths, dtype=np.int64))


def _tokens_after(lengths: np.ndarray) -> np.ndarray:
    """How many tokens follow each token in its line, from ``_token_ids``' line lengths."""
    import numpy as np

    return np.repeat(np.cumsum(lengths), lengths) - np.arange(1, lengths.sum() + 1)


def _count_chunk(hypotheses: list[str], references: list[str],
                 matches: list[int], totals: list[int]) -> tuple[int, int]:
    """Add one chunk's clipped n-gram matches and hypothesis n-gram totals, order by
    order, to ``matches`` and ``totals``; return its hypothesis and reference lengths."""
    import numpy as np

    n_hyp = len(hypotheses)
    # hypothesis tokens first, then reference tokens
    vocab, tokens, lengths = _token_ids(chain(hypotheses, references))
    width = len(vocab)
    hyp_length = int(lengths[:n_hyp].sum())

    # the tokens after each token in its line
    after = _tokens_after(lengths)
    # start positions of the n-grams of this order, and their dense
    # (sentence, n-gram) ids; order 1 keys each token by its sentence
    starts = np.arange(len(tokens))
    grams = np.repeat(np.tile(np.arange(n_hyp), 2), lengths) * width + tokens
    for n in range(1, MAX_ORDER + 1):
        if n > 1:
            inside = after[starts] >= n - 1
            starts = starts[inside]
            grams = grams[inside] * width + tokens[starts + n - 1]
        distinct, grams = np.unique(grams, return_inverse=True)
        h = int(np.searchsorted(starts, hyp_length))  # hypothesis n-grams come first
        hyp_counts = np.bincount(grams[:h], minlength=len(distinct))
        ref_counts = np.bincount(grams[h:], minlength=len(distinct))
        matches[n - 1] += int(np.minimum(hyp_counts, ref_counts).sum())
        totals[n - 1] += h
    return hyp_length, int(lengths[n_hyp:].sum())


def bleu(hypotheses: Iterable[str], references: Iterable[str],
         smooth: bool = False) -> BleuReport:
    """Corpus BLEU-4 of a hypothesis stream against one reference line per hypothesis.

    Line ``i`` of both streams is sentence ``i``; the reference length is
    the sum of the reference line lengths. ``smooth`` add-one-smooths
    orders 2-4 (useful only for tiny corpora). The streams are read and
    counted ``_CHUNK`` sentence pairs at a time. N-gram counts are exact
    integers and clipping is per sentence, so the report does not depend on
    the chunk size or on the order in which sentences or n-grams are counted.
    """
    hyps, refs = iter(hypotheses), iter(references)
    matches, totals = [0] * MAX_ORDER, [0] * MAX_ORDER
    hyp_length = ref_length = sentences = 0
    while True:
        hyp_chunk, ref_chunk = list(islice(hyps, _CHUNK)), list(islice(refs, _CHUNK))
        if len(hyp_chunk) != len(ref_chunk):  # one stream ran out first: count both to the end
            raise PhonoprepError(
                f"{sentences + len(hyp_chunk) + sum(1 for _ in hyps)} hypotheses vs "
                f"{sentences + len(ref_chunk) + sum(1 for _ in refs)} references")
        if not hyp_chunk:
            break
        sentences += len(hyp_chunk)
        h, r = _count_chunk(hyp_chunk, ref_chunk, matches, totals)
        hyp_length += h
        ref_length += r

    precisions = []
    for n in range(MAX_ORDER):
        m, t = matches[n], totals[n]
        if smooth and n > 0:
            m, t = m + 1, t + 1
        precisions.append(m / t if t > 0 else 0.0)

    if hyp_length == 0:
        bp = 0.0
    elif hyp_length > ref_length:
        bp = 1.0
    else:
        bp = math.exp(1 - ref_length / hyp_length)

    if min(precisions) > 0:
        score = bp * math.exp(sum(math.log(p) for p in precisions) / MAX_ORDER) * 100
    else:
        score = 0.0

    return BleuReport(
        bleu=score,
        precisions=tuple(precisions),
        brevity_penalty=bp,
        hyp_length=hyp_length,
        ref_length=ref_length,
    )


def vocab_stats(named: Mapping[str, Mapping[str, int]]) -> VocabReport:
    """Exact unique/total token counts of each named stream, given as its ``token_counts``:
    the number of its keys and the sum of its values."""
    return VocabReport(streams={name: (len(counts), sum(counts.values()))
                                for name, counts in named.items()})
