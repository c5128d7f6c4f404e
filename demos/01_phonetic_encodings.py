#!/usr/bin/env python3
"""Phonetic and table encoders: many-to-one codes, vocabulary compression.

Walks through Soundex, NYSIIS, and Metaphone on English words and the
bundled Pinyin/Wubi lookup tables on Chinese characters.
"""

from phonoprep.encoders import (
    bundled_table_path,
    load_code_table,
    metaphone_encode,
    nysiis_encode,
    soundex_encode,
    table_encode,
)

print("=== Soundex groups words that sound alike ===")
for word in ["body", "but", "bad", "speak", "space", "suppose"]:
    print(f"  {word:10s} -> {soundex_encode(word)}")

print("\n=== The three phonetic codes for one sentence ===")
sentence = "this is a nice building".split()
for name, encode in [("soundex", soundex_encode),
                     ("nysiis", nysiis_encode),
                     ("metaphone", metaphone_encode)]:
    codes = " ".join(encode(w) for w in sentence)
    print(f"  {name:10s} {codes}")

print("\n=== Vocabulary compression on a word list ===")
words = [
    "care", "car", "chair", "cherry", "choir", "cry", "crow", "core",
    "night", "knight", "knit", "note", "nut", "net",
]
for name, encode in [("soundex", soundex_encode), ("metaphone", metaphone_encode)]:
    codes = {encode(w) for w in words}
    print(f"  {name}: {len(words)} words -> {len(codes)} codes")

print("\n=== Pinyin: one syllable covers several characters ===")
pinyin = load_code_table(bundled_table_path("pinyin"))
for char in "笑校孝效氏事市视":
    print(f"  {char} -> {table_encode(char, pinyin)[0]}")

print("\n=== Pinyin in letters splits the code into characters ===")
print(f"  市 -> {table_encode('市', pinyin, granularity='letters')}")

print("\n=== Wubi decomposes characters by structure, not sound ===")
wubi = load_code_table(bundled_table_path("wubi"))
for char in "我你好笑":
    print(f"  {char} -> {table_encode(char, wubi)[0]}")
