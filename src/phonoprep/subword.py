"""Byte Pair Encoding over whitespace-tokenized text.

Learning initializes every word as its character sequence, then greedily
merges the most frequent adjacent symbol pair; a pair must occur at least
twice, and ties go to the lexicographically smallest pair, so learning is
fully deterministic. Pair counts are kept incrementally, as in subword-nmt
and fastBPE: a merge updates only the pairs beside its one site in a word
holding its left symbol once, and re-counts a word holding it more often.
Each live pair keeps a list of the words that may hold it; a rewritten word
stays listed under pairs it lost, and the list goes when the pair's count
reaches 0, so the index holds no dead pair. The next pair comes off a lazy
max-heap keyed by ``(-count, pair)``: a pair is pushed when its count
rises, and an entry popped above its pair's live count is pushed back at
that count. Overlapping occurrences all count:
``aaa`` holds ``(a, a)`` twice. Pairs are counted within a word and never
across two, so no end-of-word symbol is needed; the text ``</w>`` inside a
token is ordinary text.

Applied output uses a continuation suffix on every non-final piece of a
word (the ``@@`` convention), so ``bpe_decode`` inverts ``bpe_apply``
exactly; ``bpe_apply`` rejects tokens that themselves end with that suffix.

Merges apply in rank order in both the learner and the applier, so the
learner's final symbols for a word are what ``bpe_apply`` gives it (the
subword-nmt construction). ``bpe_learn`` therefore hands each learned
word's pieces to its model, and only a type the learner did not see is
segmented by ``bpe_apply``; a model loaded from its merge file starts with
none and segments every type on first use.
"""

from __future__ import annotations

import heapq
import json
import os
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping

from .errors import PhonoprepError, check_int

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
    "token_counts",
    "write_lines",
    "json_text",
    "write_json",
]

MERGE_FILE_HEADER = "#version: 0.2"
CONTINUATION = "@@"  # suffix of every non-final applied piece


@dataclass(frozen=True)
class BpeModel:
    """Ordered merge operations, applied in rank order."""

    merges: tuple[tuple[str, str], ...]
    _ranks: dict = field(default_factory=dict, repr=False, compare=False)
    # token -> applied pieces: each learned word's from bpe_learn, any other from bpe_apply
    _segments: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        ranks = {pair: i for i, pair in enumerate(self.merges)}
        if len(ranks) != len(self.merges):
            raise ValueError("duplicate merge pairs")
        object.__setattr__(self, "_ranks", ranks)


def iter_lines(source: str | Path | BinaryIO) -> Iterator[str]:
    """The lines of a UTF-8 file or binary stream, read one line at a time.

    Only ``"\\n"`` ends a line, and one ``"\\r"`` before it goes. Unlike
    ``str.splitlines()``, characters such as U+0085, U+2028 or a lone ``"\\r"``
    stay inside their line, so every reader counts lines the way the writers
    (one ``"\\n"`` per line) do. The text after the last ``"\\n"`` is a line
    only if it is not empty. A binary read splits only at ``b"\\n"``, which no
    other UTF-8 character holds."""
    with open(source, "rb") if isinstance(source, (str, Path)) else nullcontext(source) as f:
        for raw in f:
            if raw.endswith(b"\n"):  # else the last line, which keeps a final "\r"
                raw = raw[:-2] if raw.endswith(b"\r\n") else raw[:-1]
            yield raw.decode("utf-8")


def read_lines(path: str | Path) -> list[str]:
    """The ``iter_lines`` of a UTF-8 file, as a list."""
    return list(iter_lines(path))


@contextmanager
def line_writer(path: str | Path) -> Iterator[Callable[[str], None]]:
    """A function writing a line and a ``"\\n"`` after it as UTF-8, as ``iter_lines`` reads it.

    The lines go to a sibling temp file, renamed to ``path`` once the block succeeds. A
    directory at ``path`` is refused here, before the block, as the rename would refuse it."""
    if Path(path).is_dir():
        raise IsADirectoryError(f"{path} is a directory")
    tmp = Path(f"{path}.tmp-{os.urandom(6).hex()}")
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


def json_text(data: dict) -> str:
    """``data`` as the JSON of every file written: indented, with sorted keys."""
    return json.dumps(data, indent=2, sort_keys=True)


def write_json(path: str | Path, data: dict) -> None:
    """Write ``json_text(data)`` and a final ``"\\n"``."""
    write_lines(path, [json_text(data)])


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


def token_counts(lines: Iterable[str]) -> Counter[str]:
    """How often each ``str.split()`` token of ``lines`` occurs, in order of first appearance."""
    return Counter(chain.from_iterable(map(str.split, lines)))


def bpe_learn(counts: Mapping[str, int], num_operations: int) -> BpeModel:
    """Learn up to ``num_operations`` merges from a corpus's ``token_counts``.

    The merges depend only on how often each token occurs, not on the order
    of the tokens. Stops early once no adjacent pair occurs more than once.
    The model already holds the ``bpe_apply`` pieces of every token except
    one ending in the continuation marker, which ``bpe_apply`` refuses.
    """
    check_int("num_operations", num_operations, 0)
    if any(f < 1 for f in counts.values()):
        raise ValueError("every token count must be >= 1")
    if "" in counts:  # no str.split() token is empty, and an empty one has no pieces
        raise ValueError("tokens must not be empty")
    if not counts:
        raise PhonoprepError("corpus has no tokens")

    # one working sequence of symbols per unique word
    seqs: list[list[str]] = [list(w) for w in counts]
    freqs = list(counts.values())

    # exact live count of every pair present, plus each live pair's list of the
    # words that may hold it: entries go stale as merges rewrite words, and a
    # word may be listed twice
    pair_counts: dict[tuple[str, str], int] = {}
    pair_words: defaultdict[tuple[str, str], list[int]] = defaultdict(list)
    for wi, seq in enumerate(seqs):
        f = freqs[wi]
        for pair in zip(seq, seq[1:]):
            pair_counts[pair] = pair_counts.get(pair, 0) + f
            pair_words[pair].append(wi)

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
    count_of = pair_counts.get
    while len(merges) < num_operations and heap:
        neg_count, best = heapq.heappop(heap)
        count = count_of(best, 0)
        if count != -neg_count:
            if count >= 2:
                heapq.heappush(heap, (-count, best))
            continue
        merges.append(best)
        left, right = best
        joined = left + right
        deltas: dict[tuple[str, str], int] = {}
        delta_of = deltas.get
        # merging leaves no (left, right) behind, so the index entry is spent
        for wi in pair_words.pop(best):
            seq = seqs[wi]
            sites = seq.count(left)  # a word without left is a stale index entry
            if sites == 1:
                # one site: only the pairs beside it change; a new pair is built
                # once, so its count and its index entry share one key tuple
                j = seq.index(left)
                last = len(seq) - 1
                if j == last or seq[j + 1] != right:  # stale index entry
                    continue
                f = freqs[wi]
                deltas[best] = delta_of(best, 0) - f
                if j:
                    pair = seq[j - 1], left
                    deltas[pair] = delta_of(pair, 0) - f
                    pair = seq[j - 1], joined
                    deltas[pair] = delta_of(pair, 0) + f
                    pair_words[pair].append(wi)
                if j + 1 < last:
                    pair = right, seq[j + 2]
                    deltas[pair] = delta_of(pair, 0) - f
                    pair = joined, seq[j + 2]
                    deltas[pair] = delta_of(pair, 0) + f
                    pair_words[pair].append(wi)
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
                f = freqs[wi]
                for pair in zip(seq, seq[1:]):
                    deltas[pair] = delta_of(pair, 0) - f
                for pair in zip(merged, merged[1:]):
                    deltas[pair] = delta_of(pair, 0) + f
                    pair_words[pair].append(wi)
                seqs[wi] = merged
        for pair, delta in deltas.items():
            if delta == 0:
                continue
            count = count_of(pair, 0) + delta
            if count > 0:
                pair_counts[pair] = count
                if delta > 0 and count >= 2:
                    heapq.heappush(heap, (-count, pair))
            else:  # no word holds the pair, so every index entry is stale
                del pair_counts[pair]
                pair_words.pop(pair, None)  # best's list is already spent
        if len(heap) > 2 * len(pair_counts):
            heap = rebuild()

    # free the learner's tables before the pieces are built; each word's final
    # symbols are its applied pieces, and a marker-ending word is left to
    # bpe_apply, which refuses it
    del pair_counts, pair_words, heap
    model = BpeModel(merges=tuple(merges))
    model._segments.update((w, _marked(seq)) for w, seq in zip(counts, seqs)
                           if not w.endswith(CONTINUATION))
    return model


def _marked(symbols: list[str]) -> list[str]:
    """A word's symbols as applied pieces: every non-final one gains the continuation marker."""
    return [p + CONTINUATION for p in symbols[:-1]] + [symbols[-1]]


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
    ``PhonoprepError``. Segmentations are cached on the model, so
    repeated tokens cost one lookup: a model from ``bpe_learn`` already holds
    every learned word's pieces, and only other tokens are segmented here.
    """
    out: list[str] = []
    cache = model._segments
    for token in sentence:
        pieces = cache.get(token)
        if pieces is None:
            if token.endswith(CONTINUATION):
                raise PhonoprepError(f"token {token!r} ends with the continuation marker"
                                     f" {CONTINUATION!r}")
            if not token:
                raise PhonoprepError("an empty token has no pieces")
            pieces = cache[token] = _marked(_segment(token, model))
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
        raise PhonoprepError(f"stream ends mid-word: {''.join(buf)!r}")
    return out


def save_bpe_model(model: BpeModel, path: str | Path) -> None:
    """Write the merge list in the de-facto merge-file layout."""
    write_lines(path, [MERGE_FILE_HEADER] + [f"{a} {b}" for a, b in model.merges])


def load_bpe_model(path: str | Path) -> BpeModel:
    """Read a merge file; a bad line or a pair listed twice is a ``PhonoprepError``
    naming ``path:lineno``."""
    merges: dict[tuple[str, str], int] = {}  # pair -> its line
    for lineno, line in enumerate(read_lines(path), 1):
        if lineno == 1 and line.startswith("#version"):
            continue
        if not line.strip():
            continue
        parts = line.split(" ")
        if len(parts) != 2:
            raise PhonoprepError(f"{path}:{lineno}: expected 'left right', got {line!r}")
        if any(part.split() != [part] for part in parts):  # else no token can use it
            raise PhonoprepError(f"{path}:{lineno}: merge symbols must be one token each, "
                                 f"got {line!r}")
        pair = (parts[0], parts[1])
        if pair in merges:
            raise PhonoprepError(f"{path}:{lineno}: merge pair {line!r} is listed twice,"
                                 f" first at line {merges[pair]}")
        merges[pair] = lineno
    return BpeModel(merges=tuple(merges))
