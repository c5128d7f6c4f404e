"""Exception types raised by the public API, and the checks of its seeds and counts.

Everything derives from PhonoprepError so callers (and the CLI) can
distinguish data/contract problems from genuine bugs.
"""

from __future__ import annotations

import numbers


class PhonoprepError(Exception):
    """Base class for all errors raised by this package."""


# --- encoders ---

class NonAlphabeticToken(PhonoprepError):
    """Token has no alphabetic content after diacritic folding."""


class MalformedTableLine(PhonoprepError):
    """A code-table line does not parse; carries the 1-based line number."""

    def __init__(self, path: str, lineno: int, line: str):
        super().__init__(f"{path}:{lineno}: malformed table line: {line!r}")
        self.path = path
        self.lineno = lineno
        self.line = line


class EmptyTable(PhonoprepError):
    """Code-table file contained no entries."""


# --- clustering ---

class EmptyUnitList(PhonoprepError):
    """No units supplied where at least one is required."""


class SizeMismatch(PhonoprepError):
    """Cluster-size distribution does not cover the unit count."""


class InvalidFraction(PhonoprepError, ValueError):
    """Fraction outside (0, 1], or a cluster fraction yielding zero clusters."""


class TooFewPoints(PhonoprepError):
    """Fewer points than requested clusters."""


# --- subword ---

class EmptyCorpus(PhonoprepError):
    """Corpus stream yielded no tokens."""


class DanglingContinuation(PhonoprepError):
    """Subword stream ended in the middle of a word."""


class ContinuationMarkerToken(PhonoprepError):
    """Token ends with the continuation marker, so its pieces would not decode."""


# --- geometry ---

class DimensionMismatch(PhonoprepError):
    """Embedding line has the wrong number of components."""

    def __init__(self, path: str, lineno: int, expected: int, got: int):
        super().__init__(
            f"{path}:{lineno}: expected {expected} components, got {got}"
        )
        self.path = path
        self.lineno = lineno
        self.expected = expected
        self.got = got


class MalformedFloat(PhonoprepError):
    """Embedding line has a component that does not parse as a float."""


class DegenerateData(PhonoprepError):
    """Data without the structure to analyse: identical points, a degenerate
    hull, or a co-occurrence matrix with no positive PPMI entry."""


class AllPointsRemoved(PhonoprepError):
    """Hull smoothing removed every point; threshold too aggressive."""


class ZeroDispersion(PhonoprepError):
    """Every group collapses to a single repeated point (denominator 0)."""


class InsufficientGroups(PhonoprepError):
    """Fewer groups than the density measure needs to sample."""


class EmptyEmbedding(PhonoprepError):
    """Embedding table has no vectors."""


# --- evaluate ---

class LineCountMismatch(PhonoprepError):
    """Hypothesis and reference streams have different lengths."""


# --- pipeline ---

class SeparatorCollision(PhonoprepError):
    """Separator token occurs in one of the streams being combined."""


class InvalidConfig(PhonoprepError):
    """A configuration names an unknown key or lacks a required one."""


class PipelineStageError(PhonoprepError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


# --- argument checks ---

def check_int(name: str, value, low: int) -> int:
    """``value`` as a plain int if it is an integer >= ``low`` and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def check_fraction(name: str, value) -> float:
    """``value`` as a plain float if it is a number in (0, 1]; a bool is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value <= 1:
        raise InvalidFraction(f"{name} must be a number in (0, 1], got {value!r}")
    return float(value)
