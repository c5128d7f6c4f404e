"""The package's exception types, and the checks of its seeds, counts and fractions.

Data and contract problems raise ``PhonoprepError`` and argument checks
``ValueError``; the CLI exits 2 on either, and 3 on anything else, a bug.
A subclass exists only where the package itself catches it by type.
"""

from __future__ import annotations

import numbers


class PhonoprepError(Exception):
    """Base class for all errors raised by this package."""


class NonAlphabeticToken(PhonoprepError):
    """Token has no alphabetic content after diacritic folding; the encoders pass it through."""


class PipelineStageError(PhonoprepError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


def check_int(name: str, value, low: int) -> int:
    """``value`` as a plain int if it is an integer >= ``low`` and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def check_fraction(name: str, value) -> float:
    """``value`` as a plain float if it is a number in (0, 1]; a bool is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value <= 1:
        raise ValueError(f"{name} must be a number in (0, 1], got {value!r}")
    return float(value)
