"""Exact radix arithmetic for arbitrary-precision integers.

Expansions are stored least-significant digit first, so the list index of a
digit equals its exponent. Zero is represented by the empty expansion.
Whether a digit counts as "small" is always decided by exact rational
comparison against kappa*g; no floats are involved anywhere in this module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

RationalLike = Union[Fraction, int, str]


def _exact_fraction(value: RationalLike) -> Fraction:
    """Coerce to an exact Fraction. Floats are rejected: a threshold that
    arrives as 0.1 has already been silently rounded."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"kappa must be a Fraction, int, or 'p/q' string, got {type(value).__name__}")


@dataclass(frozen=True)
class BaseSpec:
    """A radix g >= 2 together with a smallness threshold kappa in (0, 1].

    A digit d is small iff d < kappa*g, strictly. The strictness matters
    exactly when kappa*g is an integer: for g=4, kappa=1/2 the digit 2 is
    large. Equivalently the small alphabet is {0, ..., ceil(kappa*g)-1}.
    """

    g: int
    kappa: Fraction = Fraction(1, 2)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kappa", _exact_fraction(self.kappa))
        if not isinstance(self.g, int) or isinstance(self.g, bool) or self.g < 2:
            raise ValueError(f"base must be an integer >= 2, got {self.g!r}")
        if not (0 < self.kappa <= 1):
            raise ValueError(f"kappa must lie in (0, 1], got {self.kappa}")

    @functools.cached_property
    def max_small_digit(self) -> int:
        """Largest digit still counted small: ceil(kappa*g) - 1. Computed
        once per spec; the cache lives in the instance __dict__, outside the
        fields, so ==, hash and repr do not see it."""
        return math.ceil(self.kappa * self.g) - 1

    @property
    def alphabet_size(self) -> int:
        """Number of small digit values."""
        return self.max_small_digit + 1

    def is_large(self, d: int) -> bool:
        return d > self.max_small_digit

    def to_json_dict(self) -> dict:
        return {"g": self.g, "kappa": str(self.kappa)}


@dataclass(frozen=True)
class DigitVector:
    """Positional expansion of a non-negative integer, least-significant first.

    Canonical form only: no most-significant zero is stored, and zero is the
    empty tuple, so equal integers always compare equal digit-wise.
    """

    base: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "digits", tuple(self.digits))
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        for d in self.digits:
            if not (0 <= d < self.base):
                raise ValueError(f"digit {d} outside [0, {self.base})")
        if self.digits and self.digits[-1] == 0:
            raise ValueError("non-canonical expansion: most-significant digit is zero")

    def __len__(self) -> int:
        return len(self.digits)

    def digit_at(self, k: int) -> int:
        """Digit at exponent k; positions beyond the expansion are zero."""
        if k < 0:
            raise ValueError("negative position")
        return self.digits[k] if k < len(self.digits) else 0

    def render(self) -> str:
        """Human form '(d_m...d_1d_0)_g', most-significant digit first."""
        return render_many((from_digits(self),), self.base)[0]


def to_digits(n: int, g: int) -> DigitVector:
    """Expand n >= 0 in base g >= 2."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"n must be an integer, got {type(n).__name__}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if g < 2:
        raise ValueError(f"base must be >= 2, got {g}")
    out = []
    while n:
        n, d = divmod(n, g)
        out.append(d)
    return DigitVector(g, tuple(out))


_TABLE_CAP = 512  # most entries in one chunk table


@functools.cache
def _chunk_tables(g: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(padded, top) for the largest k with g^k <= _TABLE_CAP: padded[c] is
    the chunk c as k digits with leading zeros, top[c] the same without them
    ('0' for c = 0). Digits are separated by ',' above base 10."""
    sep = "" if g <= 10 else ","
    digits = [str(d) for d in range(g)]
    top = padded = digits
    while len(padded) * g <= _TABLE_CAP:
        top = top + [hi + sep + lo for hi in digits[1:] for lo in padded]
        padded = [hi + sep + lo for hi in digits for lo in padded]
    return tuple(padded), tuple(top)


def render_many(ns: Sequence[int], g: int) -> list[str]:
    """The form '(d_m...d_1d_0)_g' of each n >= 0, in order: digits most
    significant first, separated by ',' above base 10, zero as '(0)_g'.

    Up to base 512 each n is cut into k-digit chunks (g^k <= 512) and every
    chunk is a lookup in a per-base table built on first use; above 512 a
    chunk is one digit, converted directly, so no table exceeds 512 entries.
    """
    if g < 2:
        raise ValueError(f"base must be >= 2, got {g}")
    if ns and min(ns) < 0:
        raise ValueError(f"n must be non-negative, got {min(ns)}")
    if g <= _TABLE_CAP:
        padded, top = _chunk_tables(g)
        size, chunk, head = len(padded), padded.__getitem__, top.__getitem__
    else:
        size, chunk, head = g, str, str
    sep = "" if g <= 10 else ","
    suffix = f")_{g}"
    out = []
    for n in ns:
        parts = []
        while n >= size:
            n, c = divmod(n, size)
            parts.append(chunk(c))
        parts.append(head(n))
        parts.reverse()
        out.append("(" + sep.join(parts) + suffix)
    return out


def from_digits(dv: DigitVector) -> int:
    """Evaluate an expansion back to the integer it denotes."""
    value = 0
    for d in reversed(dv.digits):
        value = value * dv.base + d
    return value


def large_digit_count(n: int, spec: BaseSpec) -> int:
    """Number of base-g digits of n that are >= kappa*g."""
    if n < 0:
        raise ValueError("n must be non-negative")
    bound = spec.max_small_digit
    g = spec.g
    count = 0
    while n:
        n, d = divmod(n, g)
        if d > bound:
            count += 1
    return count


def window_positions(g: int, lo: int, hi: int) -> range:
    """The exponents k with lo <= g^k <= hi, ascending; empty when none."""
    k, place = 0, 1
    while place < lo:
        place *= g
        k += 1
    first = k
    while place <= hi:
        place *= g
        k += 1
    return range(first, k)


def multi_base_profile(n: int, specs: Sequence[BaseSpec]) -> tuple[tuple[int, int], ...]:
    """Per-base (total digit count, large digit count) for one integer."""
    out = []
    for spec in specs:
        dv = to_digits(n, spec.g)
        out.append((len(dv), large_digit_count(n, spec)))
    return tuple(out)


def render_digit_grid(n: int, specs: Sequence[BaseSpec]) -> str:
    """Multi-line rendering of n in every base, large digits bracketed.

    Example row: 'base  5 (kappa 1/2):  1 2 0 1 1 [3] [4] [4] [4]'
    """
    lines = []
    width = max(len(str(s.g)) for s in specs)
    for spec in specs:
        dv = to_digits(n, spec.g)
        cells = []
        for d in reversed(dv.digits) if dv.digits else (0,):
            cells.append(f"[{d}]" if spec.is_large(d) else str(d))
        lines.append(f"base {spec.g:>{width}} (kappa {spec.kappa}):  " + " ".join(cells))
    return "\n".join(lines)
