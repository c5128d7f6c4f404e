"""Phonetic and table-based token encoders.

Soundex, NYSIIS, and Metaphone follow the classic algorithm family used by
name-matching toolkits (American Soundex with the H/W separator rule, the
1970 NYSIIS rules, Lawrence Philips' original 1990 Metaphone). All three
are many-to-one: distinct words may share a code, and the same word always
gets the same code.

Pinyin and Wubi are table-driven per-character lookups backed by TSV files
(see ``load_code_table``); characters missing from the table pass through
unchanged.
"""

from __future__ import annotations

import unicodedata
from pathlib import Path
from typing import Callable

from .errors import NonAlphabeticToken, PhonoprepError
from .subword import read_lines

__all__ = [
    "TABLE_KINDS",
    "GRANULARITIES",
    "fold_to_ascii_letters",
    "soundex_encode",
    "nysiis_encode",
    "metaphone_encode",
    "encode_or_passthrough",
    "load_code_table",
    "bundled_table_path",
    "table_encode",
]

_VOWELS = frozenset("AEIOU")

# letter -> soundex digit class; H and W are handled separately
_SOUNDEX_MAP = {c: d for c, d in zip("ABCDEFGHIJKLMNOPQRSTUVWXYZ",
                                     "01230120022455012623010202")}


def fold_to_ascii_letters(token: str) -> str:
    """Uppercase ASCII letters of ``token`` after stripping diacritics.

    NFKD-decomposes, drops combining marks, keeps A-Z only. Returns ""
    when nothing alphabetic survives.
    """
    if token.isascii() and token.isalpha():  # NFKD leaves ASCII as it is, with no marks
        return token.upper()
    folded = unicodedata.normalize("NFKD", token)
    out = []
    for ch in folded:
        if unicodedata.combining(ch):
            continue
        ch = ch.upper()
        if "A" <= ch <= "Z":
            out.append(ch)
    return "".join(out)


def _clean(token: str) -> str:
    word = fold_to_ascii_letters(token)
    if not word:
        raise NonAlphabeticToken(f"no alphabetic content in {token!r}")
    return word


def soundex_encode(token: str) -> str:
    """American Soundex code: first letter plus three digit classes.

    Vowels reset the previous digit; H and W are transparent, so equal
    digits separated only by H/W collapse. Output always matches
    ``[A-Z][0-9]{3}``.
    """
    word = _clean(token)
    code = [word[0], "0", "0", "0"]
    count = 1
    previous = _SOUNDEX_MAP[word[0]]
    for ch in word[1:]:
        if count >= 4:
            break
        if ch in ("H", "W"):
            continue
        digit = _SOUNDEX_MAP[ch]
        if digit != "0" and digit != previous:
            code[count] = digit
            count += 1
        previous = digit
    return "".join(code)


# letter -> its NYSIIS code where the letters around it play no part; the
# letters of _NYSIIS_CONTEXT are coded in the loop
_NYSIIS_CONTEXT = frozenset("EKSPHW")
_NYSIIS_MAP = {c: "A" if c in _VOWELS else {"Q": "G", "Z": "S", "M": "N"}.get(c, c)
               for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZ"}


def nysiis_encode(token: str) -> str:
    """NYSIIS code (1970 rules), uncapped; its first six characters are the
    traditional strict variant.

    The letters are rewritten left to right, and a rule that rewrites more
    than its own letter (EV -> AF, KN -> NN, SCH -> SSS, PH -> FF) writes
    ahead into the later letters, which are then read as rewritten. H and W
    read the rewritten previous letter, and a letter joins the key only
    where it differs from that letter."""
    word = _clean(token)

    if word.startswith("MAC"):
        word = "MCC" + word[3:]
    if word.startswith("KN"):
        word = "NN" + word[2:]
    if word.startswith("K"):
        word = "C" + word[1:]
    if word.startswith(("PH", "PF")):
        word = "FF" + word[2:]
    if word.startswith("SCH"):
        word = "SSS" + word[3:]

    if word.endswith(("EE", "IE")):
        word = word[:-2] + "Y"
    if word.endswith(("DT", "RT", "RD", "NT", "ND")):
        word = word[:-2] + "D"

    chars = list(word)
    n = len(chars)
    prev = chars[0]
    key = [prev]
    for i in range(1, n):
        cur = chars[i]
        if cur in _NYSIIS_CONTEXT:
            nxt = chars[i + 1] if i + 1 < n else ""
            if cur == "E":
                if nxt == "V":
                    chars[i + 1] = "F"
                cur = "A"
            elif cur == "K":
                cur = "N" if nxt == "N" else "C"  # the N ahead is already N
            elif cur == "S":
                if nxt == "C" and i + 2 < n and chars[i + 2] == "H":
                    chars[i + 1] = chars[i + 2] = "S"
            elif cur == "P":
                if nxt == "H":
                    chars[i + 1] = cur = "F"
            elif cur == "H":
                if prev not in _VOWELS or nxt not in _VOWELS:
                    cur = prev
            elif prev in _VOWELS:  # W
                cur = prev
        else:
            cur = _NYSIIS_MAP[cur]
        if cur != prev:
            key.append(cur)
        prev = cur

    result = "".join(key)
    if len(result) > 1:
        if result.endswith("S"):
            result = result[:-1]
        if len(result) > 2 and result.endswith("AY"):
            result = result[:-2] + "Y"
        if result.endswith("A"):
            result = result[:-1]
        if not result:
            result = "".join(key)
    return result


_FRONTV = frozenset("EIY")
_VARSON = frozenset("CSPTG")  # consonants that silence a following H


def metaphone_encode(token: str) -> str:
    """Original Metaphone code ('0' stands for the TH sound), uncapped; its
    first four characters are the traditional truncated form."""
    word = _clean(token)
    if len(word) == 1:
        return word

    two = word[:2]
    if two in ("KN", "GN", "PN", "AE", "WR"):
        word = word[1:]
    elif two == "WH":
        word = "W" + word[2:]
    elif word[0] == "X":
        word = "S" + word[1:]

    # collapse doubled consonants up front so digraph rules see the collapsed
    # form, e.g. -SSIO- behaves like -SIO-; C and G are exempt (CC is a real
    # cluster as in "accede", GG must stay hard as in "maggie")
    deduped = [word[0]]
    for ch in word[1:]:
        if ch == deduped[-1] and ch not in _VOWELS and ch not in ("C", "G"):
            continue
        deduped.append(ch)
    word = "".join(deduped)

    n_last = len(word) - 1
    code: list[str] = []
    i = 0
    while i < len(word):
        ch = word[i]
        if ch != "C" and i > 0 and word[i - 1] == ch:
            i += 1
            continue

        if ch in _VOWELS:
            if i == 0:
                code.append(ch)
        elif ch == "B":
            if not (i == n_last and i > 0 and word[i - 1] == "M"):
                code.append("B")
        elif ch == "C":
            nxt = word[i + 1] if i < n_last else ""
            if i > 0 and word[i - 1] == "S" and i < n_last and nxt in _FRONTV:
                pass  # -SCE-, -SCI-, -SCY-: C is silent
            elif word.startswith("CIA", i):
                code.append("X")
            elif i < n_last and nxt in _FRONTV:
                code.append("S")
            elif i > 0 and word[i - 1] == "S" and nxt == "H":
                code.append("K")
            elif nxt == "H":
                if i == 0 and len(word) > 3 and word[2] in _VOWELS:
                    code.append("K")
                else:
                    code.append("X")
            else:
                code.append("K")
        elif ch == "D":
            if i + 2 <= n_last and word[i + 1] == "G" and word[i + 2] in _FRONTV:
                code.append("J")
                i += 3
                continue
            code.append("T")
        elif ch == "G":
            silent = False
            if i + 1 == n_last and word[i + 1] == "H":
                silent = True
            elif i + 1 < n_last and word[i + 1] == "H" and word[i + 2] not in _VOWELS:
                silent = True
            elif i > 0 and word.startswith("GN", i):  # GN covers -GNED-
                silent = True
            if not silent:
                hard = i > 0 and word[i - 1] == "G"
                if i < n_last and word[i + 1] in _FRONTV and not hard:
                    code.append("J")
                else:
                    code.append("K")
        elif ch == "H":
            if i == n_last or (i > 0 and word[i - 1] in _VARSON):
                pass
            elif word[i + 1] in _VOWELS:
                code.append("H")
        elif ch in "FJLMNR":
            code.append(ch)
        elif ch == "K":
            if i == 0 or word[i - 1] != "C":
                code.append("K")
        elif ch == "P":
            code.append("F" if word.startswith("H", i + 1) else "P")
        elif ch == "Q":
            code.append("K")
        elif ch == "S":
            if word.startswith(("SH", "SIO", "SIA"), i):
                code.append("X")
            else:
                code.append("S")
        elif ch == "T":
            if word.startswith(("TIA", "TIO"), i):
                code.append("X")
            elif word.startswith("TCH", i):
                pass
            elif word.startswith("TH", i):
                code.append("0")
            else:
                code.append("T")
        elif ch == "V":
            code.append("F")
        elif ch in ("W", "Y"):
            if i < n_last and word[i + 1] in _VOWELS:
                code.append(ch)
        elif ch == "X":
            code.append("K")
            code.append("S")
        elif ch == "Z":
            code.append("S")
        i += 1
    return "".join(code)


def encode_or_passthrough(token: str, codec: Callable[[str], str]) -> tuple[str, bool]:
    """``(codec(token), False)``, or ``(token, True)`` for a token the codec
    rejects as non-alphabetic or gives an empty code (metaphone's ``wh``):
    such tokens keep their surface form, so no token drops out of its line."""
    try:
        code = codec(token)
    except NonAlphabeticToken:
        return token, True
    return (code, False) if code else (token, True)


TABLE_KINDS = ("pinyin", "wubi")


def load_code_table(path: str | Path) -> dict[str, str]:
    """Read a TSV code table: ``character<TAB>code`` per line, ``#`` comments.

    A code must be one ``str.split()`` token: non-empty, with no whitespace.
    Returns the dict of each character's first listed code; a later listing
    of a character is checked like any line, then ignored.
    """
    path = Path(path)
    entries: dict[str, str] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        # a code is one token, so each character of a word gives one code token
        if len(parts) != 2 or len(parts[0]) != 1 or parts[1].split() != [parts[1]]:
            raise PhonoprepError(f"{path}:{lineno}: malformed table line: {line!r}")
        entries.setdefault(parts[0], parts[1])
    if not entries:
        raise PhonoprepError(f"no entries in {path}")
    return entries


def bundled_table_path(kind: str) -> Path:
    """Path of the pinyin.tsv / wubi.tsv file shipped with the package."""
    if kind not in TABLE_KINDS:
        raise ValueError(f"unknown table kind {kind!r}")
    return Path(__file__).parent / "data" / f"{kind}.tsv"


GRANULARITIES = ("per_character", "letters")


def table_encode(token: str, table: dict[str, str],
                 granularity: str = "per_character") -> list[str]:
    """Encode ``token`` one character at a time via ``table``.

    ``per_character`` yields each character's code; ``letters``
    additionally splits each code into single-character pieces (so
    ``xiao4`` becomes ``x i a o 4``). Characters absent from the table
    pass through unchanged.
    """
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity {granularity!r}")
    codes = [table.get(ch, ch) for ch in token]
    if granularity == "per_character":
        return codes
    return [piece for code in codes for piece in code]
