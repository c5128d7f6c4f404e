"""Phonetic and table encoder tests.

The frozen vector files under tests/data/ were generated ahead of the
implementation from independent reference libraries (an Apache
Commons-Codec port cross-checked against a second implementation; only
values both references agree on were kept for soundex/metaphone).
"""

from __future__ import annotations

import hashlib
import random
import re
import string
import unicodedata
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from phonoprep.encoders import (
    bundled_table_path,
    encode_or_passthrough,
    fold_to_ascii_letters,
    load_code_table,
    metaphone_encode,
    nysiis_encode,
    soundex_encode,
    table_encode,
)
from phonoprep.errors import NonAlphabeticToken, PhonoprepError

DATA = Path(__file__).parent / "data"
DESK_CORPUS = Path(__file__).parent.parent / "data" / "desk_en.txt"


def _rows(name):
    for line in (DATA / name).read_text(encoding="utf-8").splitlines():
        yield line.split("\t")


class TestSoundex:
    def test_table1_codes(self):
        assert soundex_encode("body") == "B300"
        assert soundex_encode("but") == "B300"
        assert soundex_encode("bad") == "B300"
        assert soundex_encode("speak") == "S120"
        assert soundex_encode("space") == "S120"
        assert soundex_encode("suppose") == "S120"
        assert soundex_encode("speech") == "S120"
        for w in ["car", "care", "chair", "cherry", "choir", "cry", "crow", "core"]:
            assert soundex_encode(w) == "C600"

    def test_single_letter_zero_padded(self):
        assert soundex_encode("a") == "A000"

    def test_reference_vectors(self):
        rows = list(_rows("soundex_vectors.tsv"))
        assert len(rows) >= 50
        for word, expected in rows:
            assert soundex_encode(word) == expected, word

    def test_hw_separator_rule(self):
        # S and C collapse across the intervening H; vowels break the run
        assert soundex_encode("Ashcraft") == "A261"
        assert soundex_encode("Tymczak") == "T522"
        assert soundex_encode("Pfister") == "P236"

    def test_shape(self):
        for word, _ in _rows("soundex_vectors.tsv"):
            assert re.fullmatch(r"[A-Z][0-9]{3}", soundex_encode(word))

    def test_non_alphabetic_raises(self):
        with pytest.raises(NonAlphabeticToken):
            soundex_encode("1234")
        with pytest.raises(NonAlphabeticToken):
            soundex_encode("!!!")

    def test_diacritics_folded(self):
        assert soundex_encode("café") == soundex_encode("cafe")
        assert soundex_encode("Müller") == soundex_encode("Muller")

    def test_vocabulary_compression(self):
        words = [w for w, _ in _rows("soundex_vectors.tsv")]
        codes = {soundex_encode(w) for w in words}
        assert len(codes) <= len(set(words))


class TestNysiis:
    def test_reference_examples(self):
        assert nysiis_encode("KNIGHT") == "NAGT"
        assert nysiis_encode("MACINTOSH") == "MCANT"

    def test_single_letter(self):
        assert nysiis_encode("A") == "A"

    def test_reference_vectors(self):
        rows = list(_rows("nysiis_vectors.tsv"))
        assert len(rows) >= 50
        for word, expected, expected6 in rows:
            assert nysiis_encode(word) == expected, word
            assert nysiis_encode(word)[:6] == expected6, word

    def test_truncation_flag(self):
        long = nysiis_encode("WESTERLUND")
        assert long == "WASTARLAD"

    def test_trailing_ee_becomes_y(self):
        assert nysiis_encode("KNEE") == "NY"


class TestMetaphone:
    def test_reference_examples(self):
        assert metaphone_encode("this") == "0S"
        assert metaphone_encode("building") == "BLTNK"
        assert metaphone_encode("B") == "B"

    def test_reference_vectors(self):
        rows = list(_rows("metaphone_vectors.tsv"))
        assert len(rows) >= 50
        for word, expected in rows:
            assert metaphone_encode(word) == expected, word

    def test_th_symbol(self):
        assert metaphone_encode("thought").startswith("0")
        assert metaphone_encode("Thompson").startswith("0")

    def test_no_length_cap_by_default(self):
        assert len(metaphone_encode("discombobulated")) > 4
        assert metaphone_encode("discombobulated")[:4] == "TSKM"


@pytest.mark.parametrize("encode", [soundex_encode, nysiis_encode, metaphone_encode])
class TestSharedCodecProperties:
    def test_many_to_one_witness(self, encode):
        # distinct words sharing one code exist for every codec
        groups = {}
        for w, *_ in _rows("soundex_vectors.tsv"):
            groups.setdefault(encode(w), set()).add(w.upper())
        assert any(len(ws) > 1 for ws in groups.values())

    @given(st.text(alphabet=st.characters(min_codepoint=65, max_codepoint=122), min_size=1, max_size=12))
    def test_case_insensitive_and_deterministic(self, encode, word):
        if not any(c.isalpha() for c in word):
            return
        assert encode(word.lower()) == encode(word.upper())
        assert encode(word) == encode(word)


_PIN_LETTERS = "AEIOUYHWKNSCPVMQZTDRGBFLJX"
_PIN_PREFIXES = ("MAC", "KN", "K", "PH", "PF", "SCH", "WH", "WR", "X", "AE", "GN", "PN")
_PIN_SUFFIXES = ("EE", "IE", "DT", "RT", "RD", "NT", "ND")


def _pin_words() -> list[str]:
    """Every type of the desk corpus, then 20,000 seeded words built to reach each
    codec rule: the rule prefixes and suffixes, both cases, accented letters, and
    tokens with no letters."""
    words = sorted(set(DESK_CORPUS.read_text(encoding="utf-8").split()))
    rng = random.Random(1970)
    for _ in range(20_000):
        word = "".join(rng.choice(_PIN_LETTERS) for _ in range(rng.randint(0, 9)))
        if rng.random() < 0.4:
            word = rng.choice(_PIN_PREFIXES) + word
        if rng.random() < 0.3:
            word += rng.choice(_PIN_SUFFIXES)
        if rng.random() < 0.05:
            at = rng.randint(0, len(word))
            word = word[:at] + rng.choice("\u00e9\u00c0\u00e7\u00f1\u00dc\u00f8") + word[at:]
        if rng.random() < 0.02:
            word = rng.choice(("42", "--", "3.14", "\u00bf?", "\u4e2d"))
        words.append("".join(c.lower() if rng.random() < 0.5 else c for c in word))
    return words


def _codec_digest(encode) -> str:
    lines = []
    for word in _pin_words():
        try:
            code = encode(word)
        except NonAlphabeticToken:
            code = "!"
        lines.append(f"{word}\t{code}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("encode, digest", [
    (soundex_encode, "b5a495acd57c487ba28f7bb83364db401923951f12535035c14aa27294e99a4a"),
    (nysiis_encode, "0ac9933f27361da65de9deb61ad4f02d21b7f8ab94354ea0304c1a0c78289d8d"),
    (metaphone_encode, "bb7f97044f8df4fa53504f185df15c4054abfddee1f1906498a7d161c44bba53"),
])
def test_codec_outputs_are_pinned(encode, digest):
    # one SHA-256 per codec over `word<TAB>code` lines ("!" where the codec refuses
    # the word), so a rewrite of a codec's loop must keep every code it gives
    assert _codec_digest(encode) == digest


def reference_fold(token: str) -> str:
    """The fold one character at a time: NFKD, no combining marks, upper case, A-Z only."""
    out = []
    for ch in unicodedata.normalize("NFKD", token):
        if unicodedata.combining(ch):
            continue
        ch = ch.upper()
        if "A" <= ch <= "Z":
            out.append(ch)
    return "".join(out)


@given(st.text(alphabet=string.ascii_letters, max_size=12)
       | st.text(alphabet=string.ascii_letters + string.digits + string.punctuation, max_size=12)
       | st.text(max_size=12))
@example("")
@example("Body")
@example("caf\u00e9")  # a precomposed letter: NFKD splits off its combining mark
@example("straße")  # non-ASCII letters whose upper case is ASCII
@example("\u0131\ufb01")  # dotless i, and the fi ligature that NFKD splits
@example("\uff21\uff22")  # fullwidth letters fold to ASCII
def test_fold_matches_the_nfkd_loop(token):
    assert fold_to_ascii_letters(token) == reference_fold(token)


@pytest.mark.parametrize("token, expected", [("body", ("B300", False)), ("42", ("42", True))])
def test_encode_or_passthrough(token, expected):
    assert encode_or_passthrough(token, soundex_encode) == expected


@pytest.mark.parametrize("token", ["wh", "gh", "hw", "WHY"])
def test_empty_code_passes_through(token):
    # metaphone has no sound for these; an empty code would drop the token from its line
    assert metaphone_encode(token) == ""
    assert encode_or_passthrough(token, metaphone_encode) == (token, True)


class TestCodeTable:
    def test_bundled_pinyin_table1(self):
        table = load_code_table(bundled_table_path("pinyin"))
        for ch in "笑校孝效":
            assert table_encode(ch, table) == ["xiao4"], ch
        for ch in "氏事市视":
            assert table_encode(ch, table) == ["shi4"], ch

    def test_letters_granularity(self):
        table = load_code_table(bundled_table_path("pinyin"))
        assert table_encode("市", table, granularity="letters") == ["s", "h", "i", "4"]

    def test_unknown_characters_pass_through(self):
        table = load_code_table(bundled_table_path("wubi"))
        assert table_encode("abc", table) == ["a", "b", "c"]

    def test_multi_character_token(self):
        table = load_code_table(bundled_table_path("pinyin"))
        assert table_encode("笑话", table) == ["xiao4", "hua4"]

    def test_duplicate_keys_keep_order(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("国\tguo2\n国\tguo3\n", encoding="utf-8")
        assert load_code_table(p) == {"国": "guo2"}

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("# header\n\n笑\txiao4\n", encoding="utf-8")
        assert load_code_table(p) == {"笑": "xiao4"}

    def test_empty_table(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("# only comments\n", encoding="utf-8")
        with pytest.raises(PhonoprepError, match=r"^no entries in .*t\.tsv$"):
            load_code_table(p)

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("笑\txiao4\nbadline\n", encoding="utf-8")
        with pytest.raises(PhonoprepError, match=r"t\.tsv:2: malformed table line: "):
            load_code_table(p)

    def test_later_listing_of_a_character_is_still_checked(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("国\tguo2\n国\tguo 3\n", encoding="utf-8")
        with pytest.raises(PhonoprepError, match=r"t\.tsv:2: malformed table line: "):
            load_code_table(p)

    def test_unknown_table_kind_is_refused(self):
        with pytest.raises(ValueError, match="^unknown table kind 'zhuyin'$"):
            bundled_table_path("zhuyin")

    def test_unknown_granularity_is_refused(self):
        table = load_code_table(bundled_table_path("pinyin"))
        with pytest.raises(ValueError, match="^unknown granularity 'words'$"):
            table_encode("笑", table, "words")

    @pytest.mark.parametrize("code", ["a b", "xiao 4", " xiao4", "xiao4 ", "a\u2028b", "\x0c"])
    def test_code_with_whitespace_is_malformed(self, tmp_path, code):
        # a code is one token: "a b" would give a one-character token two codes
        p = tmp_path / "t.tsv"
        p.write_text(f"笑\txiao4\nx\t{code}\n", encoding="utf-8")
        with pytest.raises(PhonoprepError, match=r"t\.tsv:2: malformed table line: "):
            load_code_table(p)

    @staticmethod
    def _file_codes(kind):
        # the code of every row of the file, a character's later listings included
        lines = bundled_table_path(kind).read_text(encoding="utf-8").splitlines()
        codes = [line.split("\t")[1] for line in lines if line and not line.startswith("#")]
        assert codes
        return codes

    def test_wubi_code_shape(self):
        for code in self._file_codes("wubi"):
            assert 1 <= len(code) <= 4

    def test_pinyin_tone_digit_shape(self):
        for code in self._file_codes("pinyin"):
            assert code[-1] in "12345"
