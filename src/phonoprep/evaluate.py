"""Corpus-level BLEU scoring and vocabulary statistics.

The scorer reproduces the classic multi-bleu script semantics:
case-sensitive, whitespace-tokenized BLEU-4 with modified (clipped) n-gram
precision and the brevity penalty, reported on the familiar one-line
format. Smoothing is off by default; any zero n-gram precision zeroes the
score.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import LineCountMismatch

__all__ = ["BleuReport", "VocabReport", "bleu", "vocab_stats"]

MAX_ORDER = 4


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
    """unique/total token counts per named stream."""

    streams: dict[str, tuple[int, int]]

    def unique(self, stream: str = "corpus") -> int:
        return self.streams[stream][0]

    def total(self, stream: str = "corpus") -> int:
        return self.streams[stream][1]

    def to_dict(self) -> dict:
        return {
            "schema": "phonoprep/vocab-report/1",
            "streams": {k: {"unique": u, "total": t}
                        for k, (u, t) in sorted(self.streams.items())},
        }

    def rows(self) -> tuple[list[str], list]:
        return ["stream", "unique", "total"], [
            [k, u, t] for k, (u, t) in sorted(self.streams.items())]


def _clipped_matches(
    hyp_segments: list[list[str]],
    ref_segments: list[list[str]],
    ref_sentence: list[int],
) -> tuple[list[int], list[int]]:
    """Clipped n-gram matches and hypothesis n-gram totals for orders 1..4.

    Hypothesis segment i belongs to sentence i; reference segment j to
    sentence ``ref_sentence[j]``. Each n-gram gets a dense integer id,
    re-densified at every order so that no key can overflow, and a
    (sentence, n-gram) pair becomes one int64 key. A hypothesis key's
    count is clipped by its largest count in any one reference.
    """
    segments = hyp_segments + ref_segments
    flat = list(chain.from_iterable(segments))
    index = {tok: i for i, tok in enumerate(dict.fromkeys(flat))}
    tokens = np.fromiter(map(index.__getitem__, flat), dtype=np.int64, count=len(flat))
    lengths = [len(seg) for seg in segments]
    segment = np.repeat(np.arange(len(lengths)), lengths)
    n_hyp = len(hyp_segments)
    sentence = np.concatenate([np.arange(n_hyp), ref_sentence]).astype(np.int64)

    matches, totals = [], []
    grams, width = tokens, len(index)
    for n in range(1, MAX_ORDER + 1):
        if n > 1:
            # the n-gram starting at i is (its (n-1)-gram prefix, token i+n-1)
            distinct, grams = np.unique(grams[:-1] * len(index) + tokens[n - 1:],
                                        return_inverse=True)
            width = len(distinct)
        starts = segment[:max(0, len(segment) - n + 1)]
        inside = starts == segment[n - 1:]
        seg, gram = starts[inside], grams[inside]
        is_hyp = seg < n_hyp
        hyp_keys, hyp_counts = np.unique(sentence[seg[is_hyp]] * width + gram[is_hyp],
                                         return_counts=True)
        seg_keys, seg_counts = np.unique(seg[~is_hyp] * width + gram[~is_hyp],
                                         return_counts=True)
        ref_seg, ref_gram = np.divmod(seg_keys, width)
        ref_keys, at_key = np.unique(sentence[ref_seg] * width + ref_gram,
                                     return_inverse=True)
        ref_counts = np.zeros(len(ref_keys), dtype=np.int64)
        np.maximum.at(ref_counts, at_key, seg_counts)
        _, at_hyp, at_ref = np.intersect1d(hyp_keys, ref_keys, assume_unique=True,
                                           return_indices=True)
        matches.append(int(np.minimum(hyp_counts[at_hyp], ref_counts[at_ref]).sum()))
        totals.append(int(hyp_counts.sum()))
    return matches, totals


def bleu(
    hypotheses: Sequence[str],
    references: Sequence[str] | Sequence[Sequence[str]],
    smooth: bool = False,
) -> BleuReport:
    """Corpus BLEU-4 of one hypothesis stream against reference stream(s).

    Each reference entry may be a single sentence or a list of alternative
    references; clipping then uses the per-n-gram maximum across them, and
    the closest reference length feeds the brevity penalty. ``smooth``
    add-one-smooths orders 2-4 (useful only for tiny corpora). N-gram
    counts are exact integers, so the report does not depend on the order
    in which sentences or n-grams are counted.
    """
    hypotheses = list(hypotheses)
    references = list(references)
    if len(hypotheses) != len(references):
        raise LineCountMismatch(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )

    hyp_segments = [hyp.split() for hyp in hypotheses]
    ref_segments: list[list[str]] = []
    ref_sentence: list[int] = []
    hyp_length = 0
    ref_length = 0
    for i, (hyp_tokens, refs) in enumerate(zip(hyp_segments, references)):
        ref_group = [refs] if isinstance(refs, str) else list(refs)
        ref_token_lists = [r.split() for r in ref_group]
        ref_segments += ref_token_lists
        ref_sentence += [i] * len(ref_token_lists)

        hyp_length += len(hyp_tokens)
        diffs = sorted(
            (abs(len(r) - len(hyp_tokens)), len(r)) for r in ref_token_lists
        )
        ref_length += diffs[0][1]
    matches, totals = _clipped_matches(hyp_segments, ref_segments, ref_sentence)

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


def vocab_stats(
    corpus: Iterable[str] | Mapping[str, Iterable[str] | Mapping[str, int]],
) -> VocabReport:
    """Exact unique/total token counts, per stream when given a mapping.

    A stream is its lines, or its token counts: a mapping of each token to
    how often it occurs, whose keys are the unique tokens and whose values
    sum to the total.
    """
    if isinstance(corpus, Mapping):
        named = corpus
    else:
        named = {"corpus": corpus}
    streams = {}
    for name, stream in named.items():
        if not isinstance(stream, Mapping):
            stream = Counter(chain.from_iterable(map(str.split, stream)))
        streams[name] = (len(stream), sum(stream.values()))
    return VocabReport(streams=streams)
