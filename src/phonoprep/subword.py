"""Byte Pair Encoding over whitespace-tokenized text.

Learning initializes every word as its character sequence, then greedily
merges the most frequent adjacent symbol pair; a pair must occur at least
twice, and ties go to the lexicographically smallest pair, so learning is
fully deterministic. Pair counts are kept incrementally, as in subword-nmt
and fastBPE: a merge updates only the pairs beside its one site in a word
holding its left symbol once, and re-counts a word holding it more often.
The next pair comes off a lazy max-heap keyed by ``(-count, pair)``: a pair
is pushed when its count rises, and an entry popped above its pair's live
count is pushed back at that count. Overlapping occurrences all count:
``aaa`` holds ``(a, a)`` twice. Pairs are counted within a word and never
across two, so no end-of-word symbol is needed; the text ``</w>`` inside a
token is ordinary text.

Applied output uses a continuation suffix on every non-final piece of a
word (the ``@@`` convention), so ``bpe_decode`` inverts ``bpe_apply``
exactly; ``bpe_apply`` rejects tokens that themselves end with that suffix.
"""

from __future__ import annotations

import heapq
import json
import os
import secrets
from array import array
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import ContinuationMarkerToken, DanglingContinuation, EmptyCorpus, check_int

__all__ = [
    "BpeModel",
    "bpe_learn",
    "bpe_apply",
    "bpe_decode",
    "save_bpe_model",
    "load_bpe_model",
    "TypeMap",
    "iter_lines",
    "line_writer",
    "map_tokens",
    "read_lines",
    "split_lines",
    "write_lines",
    "write_json",
]

MERGE_FILE_HEADER = "#version: 0.2"
CONTINUATION = "@@"  # suffix of every non-final applied piece


@dataclass(frozen=True)
class BpeModel:
    """Ordered merge operations, applied in rank order."""

    merges: tuple[tuple[str, str], ...]
    _ranks: dict = field(default_factory=dict, repr=False, compare=False)
    # token -> applied pieces, filled by bpe_apply
    _segments: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        ranks = {pair: i for i, pair in enumerate(self.merges)}
        if len(ranks) != len(self.merges):
            raise ValueError("duplicate merge pairs")
        object.__setattr__(self, "_ranks", ranks)


def split_lines(text: str) -> list[str]:
    """The lines of ``text``: only ``"\\n"`` ends a line, and one ``"\\r"`` before it goes.

    Unlike ``str.splitlines()``, characters such as U+0085, U+2028 or a lone
    ``"\\r"`` stay inside their line, so every reader counts lines the way
    the writers (one ``"\\n"`` per line) do. The text after the last
    ``"\\n"`` is a line only if it is not empty.
    """
    *lines, last = text.split("\n")
    lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    if last:
        lines.append(last)
    return lines


def iter_lines(source: str | Path | BinaryIO) -> Iterator[str]:
    """The ``split_lines`` of a UTF-8 file or binary stream, read one line at a time.

    A binary read splits only at ``b"\\n"``, which no other UTF-8 character holds."""
    with open(source, "rb") if isinstance(source, (str, Path)) else nullcontext(source) as f:
        for raw in f:
            if raw.endswith(b"\n"):  # else the last line, which keeps a final "\r"
                raw = raw[:-2] if raw.endswith(b"\r\n") else raw[:-1]
            yield raw.decode("utf-8")


def read_lines(path: str | Path) -> list[str]:
    """The ``split_lines`` of a UTF-8 file, read without newline translation."""
    return list(iter_lines(path))


@contextmanager
def line_writer(path: str | Path) -> Iterator[Callable[[str], None]]:
    """A function writing a line and a ``"\\n"`` after it as UTF-8, as ``iter_lines`` reads it.

    The lines go to a sibling temp file, renamed to ``path`` once the block succeeds."""
    tmp = Path(f"{path}.tmp-{secrets.token_hex(6)}")
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as f:
            yield lambda line: f.write(line + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write each line through ``line_writer``; an error while ``lines`` runs leaves no file."""
    with line_writer(path) as write:
        for line in lines:
            write(line)


def write_json(path: str | Path, data: dict) -> None:
    """Write ``data`` as JSON, indented and with sorted keys, and a final ``"\\n"``."""
    write_lines(path, [json.dumps(data, indent=2, sort_keys=True)])


class TypeMap(dict):
    """Token -> ``fn(token)``, computed on the token's first lookup and kept."""

    def __init__(self, fn: Callable[[str], object]):
        super().__init__()
        self.fn = fn

    def __missing__(self, token: str):
        return self.setdefault(token, self.fn(token))

    def fill(self, tokens: Iterable[str]) -> None:
        """Compute the value of each of ``tokens`` not yet held."""
        self.update((tok, self.fn(tok)) for tok in tokens if tok not in self)


def map_tokens(table: Mapping[str, str], tokens: Iterable[str]) -> str:
    """Each of a line's ``tokens`` replaced by its text in ``table``, joined by spaces."""
    return " ".join(map(table.__getitem__, tokens))


def _token_ids(corpus: str | Iterable[str]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Every line's ``str.split()`` tokens as integer ids; a bare string is one line.

    Returns the distinct tokens in order of first appearance (token ``i``
    has id ``i``), the int64 ids of all tokens line after line, and each
    line's token count, 0 for a blank line. Each line is split once and its
    token strings are dropped before the next line is read.
    """
    if isinstance(corpus, str):
        corpus = [corpus]
    index = TypeMap(lambda token: len(index))  # a token not yet seen gets the next id
    ids, lengths = array("q"), array("q")
    for line in corpus:
        tokens = line.split()
        ids.extend(map(index.__getitem__, tokens))
        lengths.append(len(tokens))
    return (list(index), np.frombuffer(ids, dtype=np.int64),
            np.frombuffer(lengths, dtype=np.int64))


def _tokens_after(lengths: np.ndarray) -> np.ndarray:
    """How many tokens follow each token in its line, from ``_token_ids``' line lengths."""
    return np.repeat(np.cumsum(lengths), lengths) - np.arange(1, lengths.sum() + 1)


def bpe_learn(corpus: str | Iterable[str] | Mapping[str, int], num_operations: int) -> BpeModel:
    """Learn up to ``num_operations`` merges from a corpus of sentences.

    ``corpus`` is either the sentences or their token counts, a mapping of
    each token (as ``str.split()`` gives it) to how often it occurs. The
    merges depend only on those counts, not on the order of the tokens, so
    both forms of one corpus learn the same merges. Stops early once no
    adjacent pair occurs more than once.
    """
    check_int("num_operations", num_operations, 0)
    if isinstance(corpus, Mapping):
        word_freqs = corpus
        if any(f < 1 for f in word_freqs.values()):
            raise ValueError("every token count must be >= 1")
    else:
        tokens, ids, _ = _token_ids(corpus)
        word_freqs = dict(zip(tokens, np.bincount(ids, minlength=len(tokens)).tolist()))
    if not word_freqs:
        raise EmptyCorpus("corpus has no tokens")

    # one working sequence of symbols per unique word
    seqs: list[list[str]] = [list(w) for w in word_freqs]
    freqs = list(word_freqs.values())

    # exact live count of every pair present, plus a superset index of the
    # words holding it (entries go stale as merges rewrite words)
    pair_counts: dict[tuple[str, str], int] = {}
    pair_words: defaultdict[tuple[str, str], set[int]] = defaultdict(set)
    for wi, seq in enumerate(seqs):
        f = freqs[wi]
        for pair in zip(seq, seq[1:]):
            pair_counts[pair] = pair_counts.get(pair, 0) + f
            pair_words[pair].add(wi)

    # (-count, pair) pops the most frequent pair, ties to the smallest pair;
    # only counts >= 2 are pushed, as a pair must occur twice to be merged.
    # A pair is pushed when its count rises, so every live pair keeps an
    # entry at or above its count; an entry above it is re-queued when popped.
    def rebuild() -> list[tuple[int, tuple[str, str]]]:
        heap = [(-c, pair) for pair, c in pair_counts.items() if c >= 2]
        heapq.heapify(heap)
        return heap

    heap = rebuild()
    merges: list[tuple[str, str]] = []
    while len(merges) < num_operations and heap:
        neg_count, best = heapq.heappop(heap)
        count = pair_counts.get(best, 0)
        if count != -neg_count:
            if count >= 2:
                heapq.heappush(heap, (-count, best))
            continue
        merges.append(best)
        left, right = best
        joined = left + right
        deltas: defaultdict[tuple[str, str], int] = defaultdict(int)
        # merging leaves no (left, right) behind, so the index entry is spent
        for wi in pair_words.pop(best):
            seq = seqs[wi]
            sites = seq.count(left)  # a word without left is a stale index entry
            f = freqs[wi]
            if sites == 1:
                # one site: only the pairs beside it change; a new pair is built
                # once, so its count and its index entry share one key tuple
                j = seq.index(left)
                if seq[j + 1:j + 2] != [right]:  # stale index entry
                    continue
                deltas[best] -= f
                if j:
                    deltas[seq[j - 1], left] -= f
                    pair = seq[j - 1], joined
                    deltas[pair] += f
                    pair_words[pair].add(wi)
                if j + 2 < len(seq):
                    deltas[right, seq[j + 2]] -= f
                    pair = joined, seq[j + 2]
                    deltas[pair] += f
                    pair_words[pair].add(wi)
                seq[j:j + 2] = (joined,)
            elif sites:
                # two or more: recount the whole word
                merged: list[str] = []
                j, n = 0, len(seq)
                while j < n:
                    if j + 1 < n and seq[j] == left and seq[j + 1] == right:
                        merged.append(joined)
                        j += 2
                    else:
                        merged.append(seq[j])
                        j += 1
                if len(merged) == n:  # stale index entry
                    continue
                for pair in zip(seq, seq[1:]):
                    deltas[pair] -= f
                for pair in zip(merged, merged[1:]):
                    deltas[pair] += f
                    pair_words[pair].add(wi)
                seqs[wi] = merged
        for pair, delta in deltas.items():
            if delta == 0:
                continue
            count = pair_counts.get(pair, 0) + delta
            if count > 0:
                pair_counts[pair] = count
                if delta > 0 and count >= 2:
                    heapq.heappush(heap, (-count, pair))
            else:
                del pair_counts[pair]
        if len(heap) > 2 * len(pair_counts):
            heap = rebuild()

    return BpeModel(merges=tuple(merges))


def _segment(word: str, model: BpeModel) -> list[str]:
    symbols = list(word)
    ranks = model._ranks
    while len(symbols) > 1:
        best_rank = None
        best_at = -1
        for j in range(len(symbols) - 1):
            rank = ranks.get((symbols[j], symbols[j + 1]))
            if rank is not None and (best_rank is None or rank < best_rank):
                best_rank, best_at = rank, j
        if best_rank is None:
            break
        symbols[best_at:best_at + 2] = [symbols[best_at] + symbols[best_at + 1]]
    return symbols


def bpe_apply(sentence: list[str], model: BpeModel) -> list[str]:
    """Split each token into learned subword pieces.

    Non-final pieces of a word carry the continuation marker so the output
    is exactly decodable; a token that itself ends with the marker raises
    ``ContinuationMarkerToken``. Segmentations are cached on the model, so
    repeated tokens cost one lookup.
    """
    out: list[str] = []
    cache = model._segments
    for token in sentence:
        pieces = cache.get(token)
        if pieces is None:
            if token.endswith(CONTINUATION):
                raise ContinuationMarkerToken(
                    f"token {token!r} ends with the continuation marker {CONTINUATION!r}"
                )
            raw = _segment(token, model)
            pieces = [p + CONTINUATION for p in raw[:-1]] + [raw[-1]]
            cache[token] = pieces
        out.extend(pieces)
    return out


def bpe_decode(pieces: list[str], model: BpeModel) -> list[str]:
    """Rejoin subword pieces into tokens; exact inverse of ``bpe_apply``."""
    out: list[str] = []
    buf: list[str] = []
    for piece in pieces:
        if piece.endswith(CONTINUATION) and len(piece) > len(CONTINUATION):
            buf.append(piece[:-len(CONTINUATION)])
        else:
            buf.append(piece)
            out.append("".join(buf))
            buf = []
    if buf:
        raise DanglingContinuation(f"stream ends mid-word: {''.join(buf)!r}")
    return out


def save_bpe_model(model: BpeModel, path: str | Path) -> None:
    """Write the merge list in the de-facto merge-file layout."""
    write_lines(path, [MERGE_FILE_HEADER] + [f"{a} {b}" for a, b in model.merges])


def load_bpe_model(path: str | Path) -> BpeModel:
    merges = []
    for lineno, line in enumerate(read_lines(path), 1):
        if lineno == 1 and line.startswith("#version"):
            continue
        if not line.strip():
            continue
        parts = line.split(" ")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'left right', got {line!r}")
        if any(part.split() != [part] for part in parts):  # else no token can use it
            raise ValueError(f"{path}:{lineno}: merge symbols must be one token each, "
                             f"got {line!r}")
        merges.append((parts[0], parts[1]))
    return BpeModel(merges=tuple(merges))
