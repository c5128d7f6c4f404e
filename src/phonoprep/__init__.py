"""phonoprep: corpus encodings and dispersion analysis for translation data.

The package turns tokenized text into auxiliary code streams (phonetic
codes, Pinyin/Wubi lookups, seeded random clusters), learns and applies
BPE subword segmentation, generates noise-augmented and edit-perturbed
corpora, scores BLEU, and measures how widely the members of each code
group spread in an embedding space (convex hulls, coverage curves,
concentration factor, nearest-neighbor density).
"""

__version__ = "0.1.0"
