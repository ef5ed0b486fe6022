"""p-adic valuations of central binomial coefficients via carry counting.

The valuation of C(2n, n) at a prime p equals the number of carries produced
when n is added to itself in base p. A digit >= p/2 always generates a carry,
and a digit equal to (p - 1)/2 passes an incoming carry along, so the carry
count can exceed the number of large digits (n = 5, p = 3 has one large digit
but valuation 2). Only the zero/nonzero question reduces to digit counting:
C(2n, n) is coprime to p exactly when every base-p digit of n is < p/2. The
factorial-formula and Lucas-theorem oracles used to validate all of this
live in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .digits import to_digits  # unused here; bench/tracer.py wraps kummer.to_digits

# Deterministic Miller-Rabin witness set for every modulus below 3.3e24,
# which covers all 64-bit inputs.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Deterministic for p < 2^64; the same witness tuple is used above that
    (no pseudoprime below 3.3e24 is known to pass it)."""
    if p < 2:
        return False
    for small in _MR_WITNESSES:
        if p % small == 0:
            return p == small
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def central_binom_valuation(n: int, p: int) -> int:
    """v_p(C(2n, n)) for n >= 1, computed as the number of carries when n is
    added to itself in base p. Per digit d (least significant first) the
    column sum is 2*d plus the incoming carry, so a carry leaves the column
    exactly when that sum reaches p. p = 2 is permitted (every 1-bit carries,
    so the valuation is the binary digit sum)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_prime(p)
    carries = 0
    carry = 0
    m = n
    while m:
        m, d = divmod(m, p)
        carry = 1 if 2 * d + carry >= p else 0
        carries += carry
    return carries


@dataclass(frozen=True)
class GrahamSplit:
    """Factorization C(2n, n) = n1 * n2 where n2 collects the given primes."""

    n: int
    primes: tuple[int, ...]
    valuations: tuple[int, ...]
    n2: int
    n2_log_ratio: float

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "primes": list(self.primes),
            "valuations": dict(zip(map(str, self.primes), self.valuations)),
            "n2": self.n2,
            # n = 1 with n2 > 1 gives inf, which strict JSON cannot hold
            "n2_log_ratio": self.n2_log_ratio if math.isfinite(self.n2_log_ratio) else None,
        }

    def csv_row(self) -> list:
        return [self.n, *self.valuations, self.n2, self.n2_log_ratio]


def graham_split(n: int, primes: Sequence[int]) -> GrahamSplit:
    """Split C(2n, n) over a set of distinct primes.

    n2 = prod p^v_p(C(2n,n)) over the given primes; n2_log_ratio is
    log(n2)/log(n), with the convention 0.0 when n2 == 1 (so n = 1, where
    the ratio is otherwise undefined, is covered as well).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    primes = tuple(primes)
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    vals = tuple(central_binom_valuation(n, p) for p in primes)
    n2 = 1
    for p, v in zip(primes, vals):
        n2 *= p**v
    if n2 == 1:
        ratio = 0.0
    elif n == 1:
        ratio = math.inf
    else:
        ratio = math.log(n2) / math.log(n)
    return GrahamSplit(n, primes, vals, n2, ratio)

