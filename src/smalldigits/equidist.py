"""Equidistribution experiments for fractional parts of n / log_L g.

Everything here revolves around the exponents theta_j = ln L / ln g_j. Their
fractional multiples {n * theta_j} drive the power sums whose distance to
the nearest integer controls how often the block construction can fail, so
this module provides: exact-ish fractional-part streams (256-bit fixed
point), a multiprecision power-sum norm with a formal error bound, bad-n
censuses over an epsilon grid, a box-counting discrepancy estimate, and the
lattice minimum experiment.

The census and the discrepancy scan every n <= N in two tiers, and both
return exactly what the slow tier alone would:

- Tier 1 is numpy over chunks of n. With theta64 the top 64 bits of the
  256-bit fixed-point theta, x = n * theta64 mod 2^64 (uint64 wraps), and
  the top 64 bits of the 256-bit state n * theta mod 2^256 lie in
  [x, x + n): the dropped low bits of theta add less than n to them.
- Tier 2 is the slow path for the few n that tier 1 cannot certify. The
  discrepancy bins a point from its 256-bit state when the window
  [x, x + n) meets two bins; the census calls power_sum_norm when the
  float64 norm lies within its certified error err1 (plus twice the
  multiprecision error) of some epsilon.

The lattice minimum meets in the middle: sorted tail sums, one binary
search per head vector.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import mpmath as mp
import numpy as np

from .errors import BudgetExceededError

_FIXED_BITS = 256
_MASK = (1 << _FIXED_BITS) - 1
_FRAC_ERR_BUDGET = 1e-12
_CHUNK = 1 << 14  # n per numpy pass: memory stays flat in N, arrays stay in cache


def _integer_root(g: int, m: int) -> int:
    """floor(g^(1/m)) for g >= 1, m >= 1, by Newton's method on integers."""
    x = 1 << -(-g.bit_length() // m)  # 2^ceil(bits/m) > g^(1/m)
    while True:
        y = ((m - 1) * x + g // x ** (m - 1)) // m
        if y >= x:
            return x
        x = y


def _primitive_power_base(g: int) -> int:
    """Smallest c with g = c^m for some m >= 1."""
    for m in range(g.bit_length(), 1, -1):
        c = _integer_root(g, m)
        if c >= 2 and c**m == g:
            return c
    return g


@dataclass(frozen=True)
class ExponentSystem:
    """Bases g_1..g_r (pairwise multiplicatively independent), a modulus base
    ell coprime to all of them, the working scale L = ell^h, and optional
    real weights zeta_j (default: all ones)."""

    bases: tuple[int, ...]
    ell: int
    L: int
    zetas: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "bases", tuple(self.bases))
        if not self.bases:
            raise ValueError("need at least one base")
        for g in self.bases:
            if not isinstance(g, int) or g < 2:
                raise ValueError(f"bases must be integers >= 2, got {g!r}")
        prims = [_primitive_power_base(g) for g in self.bases]
        if len(set(prims)) != len(prims):
            raise ValueError("bases must be pairwise multiplicatively independent")
        if self.ell < 2:
            raise ValueError("ell must be >= 2")
        prod = 1
        for g in self.bases:
            prod *= g
        if math.gcd(self.ell, prod) != 1:
            raise ValueError(f"ell={self.ell} shares a factor with a base")
        L = self.L
        while L > 1 and L % self.ell == 0:
            L //= self.ell
        if L != 1 or self.L < self.ell:
            raise ValueError(f"L={self.L} is not a positive power of ell={self.ell}")
        zetas = tuple(self.zetas) if self.zetas else (1,) * len(self.bases)
        if len(zetas) != len(self.bases):
            raise ValueError(f"expected {len(self.bases)} weights, got {len(zetas)}")
        object.__setattr__(self, "zetas", zetas)

    @property
    def r(self) -> int:
        return len(self.bases)

    def to_json_dict(self) -> dict:
        return {
            "bases": list(self.bases),
            "ell": self.ell,
            "L": self.L,
            "zetas": [str(z) for z in self.zetas],
        }


@lru_cache(maxsize=None)
def _theta_fixed(L: int, g: int, bits: int = _FIXED_BITS) -> int:
    """round((ln L / ln g) * 2^bits) computed with ample guard digits."""
    dps = int(bits * 0.302) + 25
    with mp.workdps(dps):
        theta = mp.log(L) / mp.log(g)
        return int(mp.nint(theta * mp.mpf(2) ** bits))


@lru_cache(maxsize=256)
def _theta_mp(L: int, g: int, dps: int) -> mp.mpf:
    """ln L / ln g rounded at dps working digits (mpf values are immutable)."""
    with mp.workdps(dps):
        return mp.log(L) / mp.log(g)


def _top64(sys: ExponentSystem, g: int, ns: np.ndarray) -> np.ndarray:
    """x = n * theta64 mod 2^64 for each n in the uint64 array ns, where
    theta64 is the top 64 bits of _theta_fixed(L, g) mod 2^256. The top 64
    bits of the 256-bit state (n * _theta_fixed) mod 2^256 lie in
    [x, x + n) mod 2^64."""
    return ns * np.uint64((_theta_fixed(sys.L, g) & _MASK) >> (_FIXED_BITS - 64))


def frac_exponents(sys: ExponentSystem, n: int) -> tuple[tuple[float, ...], float]:
    """({n * theta_j})_j as floats plus a certified absolute error bound."""
    if n < 0:
        raise ValueError("n must be >= 0")
    err = n * 2.0 ** (-(_FIXED_BITS - 1)) + 2.0**-52
    if err > _FRAC_ERR_BUDGET:
        raise ValueError(f"n={n} exceeds the fixed-point precision budget")
    scale = 2.0**-_FIXED_BITS
    values = tuple(((n * _theta_fixed(sys.L, g)) & _MASK) * scale for g in sys.bases)
    return values, err


@dataclass(frozen=True)
class NormValue:
    """Distance to the nearest integer together with a formal error bound."""

    value: float
    err: float

    def indeterminate_against(self, threshold: float) -> bool:
        return abs(self.value - threshold) <= self.err


def _norm_err(sys: ExponentSystem, n, dps: int):
    """The formal error bound of power_sum_norm(sys, n, dps); n may be an
    int or a numpy array. Fractional parts lose about log10(n) digits, and
    each term amplifies that by |zeta| * g * ln g. mpmath's {n theta} is off
    by up to about 8 n theta 2^-prec with 2^-prec <= 0.15 10^-dps, which
    (n + 1) 10^(1 - dps) covers only while theta = ln L / ln g <= 8, so a
    base's term grows by theta / 8 beyond that."""
    with mp.workdps(dps):
        amplification = 0.0
        for g, z in zip(sys.bases, sys.zetas):
            theta = math.log(sys.L) / math.log(g)
            slope = abs(float(mp.mpmathify(z))) * g * math.log(g)
            amplification += slope * max(1.0, theta / 8)
    return amplification * (n + 1) * 10.0 ** (1 - dps) + (sys.r + 2) * 10.0 ** (2 - dps)


def power_sum_norm(sys: ExponentSystem, n: int, dps: int = 50) -> NormValue:
    """|| sum_j zeta_j * g_j^{n * theta_j mod 1} || at dps working digits,
    with the formal error bound _norm_err(sys, n, dps)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    with mp.workdps(dps):
        total = mp.mpf(0)
        for g, z in zip(sys.bases, sys.zetas):
            f = mp.frac(n * _theta_mp(sys.L, g, dps))
            total += mp.mpmathify(z) * mp.power(g, f)
        norm = abs(total - mp.nint(total))
    return NormValue(float(norm), _norm_err(sys, n, dps))


def _float_norms(sys: ExponentSystem, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tier 1 of bad_n_census: float64 norms v1 of the power sum at each n
    in the uint64 array ns, and err1 with |v1 - float(true norm)| <= err1.

    The certificate, term by term (A = sum |z_j| g_j ln g_j, S = sum |z_j| g_j):
    - f_j = fl(x_j) * 2^-64 with x_j from _top64. _theta_fixed / 2^256 is
      within 2^-255 of theta_j mod 1, so n * theta_j mod 1 is within
      n 2^-255 of the state / 2^256; the state's top 64 bits lie in
      [x_j, x_j + n), so x_j / 2^64 is within n 2^-64 of it; rounding x_j
      to a float moves f_j by at most 2^-53. So f_j is within
      delta_f = n (2^-64 + 2^-255) + 2^-53 of the true {n theta_j}, on the
      circle.
    - Slope: |d/df z g^f| <= |z| g ln g on [0, 1], so the exact terms move
      by at most A delta_f. Across the wrap f = 0 ~ 1 the term jumps by
      z (g - 1), an integer for integer weights, which the norm ignores;
      for other weights nothing is certified and err1 is infinite, so
      every n goes to tier 2.
    - Rounding, 4 ulp (4 * 2^-52 of a magnitude) each: float(z_j), the
      power and the product, at most 3 * 2^-50 |z_j| g_j per term; r
      additions of partial sums bounded by S, r S 2^-50. t - rint(t) and
      abs are exact.
    - float(nv.value) of the multiprecision norm (<= 1/2): 2^-54.
    The norm is 1-Lipschitz, so err1 = A delta_f + (3 + r) S 2^-50 + 2^-54.
    """
    t = np.zeros(len(ns))
    slope = size = 0.0
    for g, z in zip(sys.bases, sys.zetas):
        f = _top64(sys, g, ns).astype(np.float64) * 2.0**-64
        t += float(z) * np.power(float(g), f)
        size += abs(float(z)) * g
        slope += abs(float(z)) * g * math.log(g)
    v1 = np.abs(t - np.rint(t))
    if any(z != int(z) for z in sys.zetas):
        return v1, np.full(len(ns), np.inf)
    delta_f = ns * (2.0**-64 + 2.0**-255) + 2.0**-53
    return v1, slope * delta_f + (3 + sys.r) * size * 2.0**-50 + 2.0**-54


@dataclass(frozen=True)
class CensusEntry:
    epsilon: float
    count: int
    indeterminate: int
    examples: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "count": self.count,
            "indeterminate": self.indeterminate,
            "examples": list(self.examples),
        }


@dataclass(frozen=True)
class CensusReport:
    """Counts of n <= N with small power-sum norm, one entry per epsilon.

    empirical_exponent is the least-squares slope of log(count/N) against
    log(epsilon) — reported with residuals, never as a pass/fail verdict,
    since the analytic constant is ineffective. reference_exponent = 1/r.
    """

    N: int
    dps: int
    entries: tuple[CensusEntry, ...]
    empirical_exponent: Optional[float]
    fit_residuals: tuple[float, ...]
    reference_exponent: float

    def to_json_dict(self) -> dict:
        return {
            "N": self.N,
            "dps": self.dps,
            "entries": [e.to_json_dict() for e in self.entries],
            "empirical_exponent": self.empirical_exponent,
            "fit_residuals": list(self.fit_residuals),
            "reference_exponent": self.reference_exponent,
        }


def bad_n_census(
    sys: ExponentSystem,
    epsilons: Sequence[float],
    N: int,
    dps: int = 50,
    list_cap: int = 1000,
    budget: int = 10**6,
) -> CensusReport:
    """Count n in [1, N] with power_sum_norm(sys, n, dps) <= epsilon, per
    epsilon; a cell is indeterminate where that norm is within its error
    of epsilon. epsilon >= 0.5 counts every n and is never indeterminate.

    Counts, examples and indeterminate counts are those of calling
    power_sum_norm for every n. Tier 1 (_float_norms) gives v1 with
    |v1 - norm| <= err1 + err, err = _norm_err(sys, n, dps). Where every
    epsilon < 0.5 has |v1 - epsilon| > err1 + 2 err, the norm lies on v1's
    side of each epsilon and farther than err from it, so v1 decides; the
    other n (tier 2) call power_sum_norm.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > budget:
        raise BudgetExceededError(f"N={N} exceeds scan budget {budget}")
    eps = [float(e) for e in epsilons]
    if not eps:
        raise ValueError("need at least one epsilon")
    if any(e <= 0 for e in eps):
        raise ValueError("epsilon must be positive")

    counts = [0] * len(eps)
    indet = [0] * len(eps)
    examples: list[list[int]] = [[] for _ in eps]
    for start in range(1, N + 1, _CHUNK):
        ns = np.arange(start, min(start + _CHUNK, N + 1), dtype=np.uint64)
        value, err1 = _float_norms(sys, ns)
        err = _norm_err(sys, ns, dps)
        window = err1 + 2 * err
        tier2 = np.zeros(len(ns), dtype=bool)
        for e in eps:
            if e < 0.5:
                tier2 |= np.abs(value - e) <= window
        for i in np.flatnonzero(tier2):
            nv = power_sum_norm(sys, int(ns[i]), dps=dps)
            value[i], err[i] = nv.value, nv.err
        for i, e in enumerate(eps):
            hit = value <= e if e < 0.5 else np.full(len(ns), True)
            counts[i] += int(np.count_nonzero(hit))
            if e < 0.5:
                indet[i] += int(np.count_nonzero(np.abs(value - e) <= err))
            room = list_cap - len(examples[i])
            if room > 0:
                examples[i].extend((start + np.flatnonzero(hit)[:room]).tolist())

    entries = tuple(
        CensusEntry(e, c, i, tuple(ex)) for e, c, i, ex in zip(eps, counts, indet, examples)
    )
    exponent, residuals = _loglog_fit(
        [(e, c) for e, c in zip(eps, counts) if 0 < c and e < 0.5], N
    )
    return CensusReport(N, dps, entries, exponent, residuals, 1.0 / sys.r)


def _loglog_fit(pairs: list[tuple[float, int]], N: int) -> tuple[Optional[float], tuple]:
    if len(pairs) < 2 or len({e for e, _ in pairs}) < 2:
        return None, ()
    xs = np.log([e for e, _ in pairs])
    ys = np.log([c / N for _, c in pairs])
    slope, intercept = np.polyfit(xs, ys, 1)
    residuals = ys - (slope * xs + intercept)
    return float(slope), tuple(float(t) for t in residuals)


def _bin(x: np.ndarray, grid: int, carry: int) -> np.ndarray:
    """floor((x * grid + carry) / 2^64), exact for uint64 x, grid < 2^32 and
    carry < grid: x is split into 32-bit halves so no product wraps."""
    g = np.uint64(grid)
    return ((x >> 32) * g + (((x & 0xFFFFFFFF) * g + carry) >> 32)) >> 32


def _straddles(x: np.ndarray, ns: np.ndarray, grid: int) -> np.ndarray:
    """True where the states whose top 64 bits lie in [x, x + n) fall in
    more than one of grid bins, wraparound included. The lowest such state
    x * 2^192 has bin _bin(x, grid, 0); the highest, last * 2^192 + 2^192 - 1
    with last = x + n - 1, has bin _bin(last, grid, grid - 1)."""
    last = x + (ns - 1)
    return (last < x) | (_bin(x, grid, 0) != _bin(last, grid, grid - 1))


def _box_counts(sys: ExponentSystem, N: int, grid: int) -> np.ndarray:
    """How many of the 256-bit fixed-point points ({n theta_j})_j, n = 1..N,
    fall in each of the grid^d boxes of side 1/grid; the bin of a state s is
    s * grid // 2^256. A coordinate takes its bin from _top64 unless its
    window straddles a bin edge; those few go through the 256-bit state."""
    d = sys.r
    counts = np.zeros(grid**d, dtype=np.int64)
    for start in range(1, N + 1, _CHUNK):
        ns = np.arange(start, min(start + _CHUNK, N + 1), dtype=np.uint64)
        flat = np.zeros(len(ns), dtype=np.int64)
        for g in sys.bases:
            x = _top64(sys, g, ns)
            bins = _bin(x, grid, 0).astype(np.int64)
            theta = _theta_fixed(sys.L, g) & _MASK
            for i in np.flatnonzero(_straddles(x, ns, grid)):
                bins[i] = ((int(ns[i]) * theta & _MASK) * grid) >> _FIXED_BITS
            flat = flat * grid + bins
        counts += np.bincount(flat, minlength=grid**d)
    return counts.reshape((grid,) * d)


def discrepancy_estimate(
    sys: ExponentSystem, N: int, grid: Optional[int] = None, budget: int = 10**6
) -> float:
    """Star-discrepancy upper estimate of {frac_exponents(n)}_{n<=N} by
    box counting (Kuipers and Niederreiter, Uniform Distribution of
    Sequences, 1974): max corner deviation plus the d/grid resolution term.
    The box counts are exact for the 256-bit fixed-point points (see
    _box_counts); N above budget raises BudgetExceededError."""
    d = sys.r
    if d > 3:
        raise ValueError("box counting supports at most 3 dimensions")
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > budget:
        raise BudgetExceededError(f"N={N} exceeds scan budget {budget}")
    if grid is None:
        grid = {1: 1024, 2: 64, 3: 16}[d]
    if grid < 2:
        raise ValueError("grid must be >= 2")
    if grid >= 1 << 32:
        raise ValueError("grid must be below 2^32")
    if grid**d > N:
        raise ValueError(f"grid {grid}^{d} is too fine for N={N}")

    cum = _box_counts(sys, N, grid)
    for axis in range(d):
        cum = np.cumsum(cum, axis=axis)
    # cum[i1-1,...,id-1] counts points in the box prod [0, i_j/grid)
    axes = [np.arange(1, grid + 1) / grid for _ in range(d)]
    vol = axes[0]
    for a in axes[1:]:
        vol = np.multiply.outer(vol, a)
    worst = float(np.max(np.abs(cum / N - vol)))
    return worst + d / grid


@dataclass(frozen=True)
class LatticeResult:
    """Exhaustive minimum of ||sum m_j / log_L g_j|| over 0 < ||m||_inf <= M."""

    M: int
    min_norm: float
    argmin: tuple[int, ...]
    reference: float
    err: float
    vectors_scanned: int

    def to_json_dict(self) -> dict:
        return {
            "M": self.M,
            "min_norm": self.min_norm,
            "argmin": list(self.argmin),
            "reference": self.reference,
            "err": self.err,
            "vectors_scanned": self.vectors_scanned,
        }


def lattice_min_combination(sys: ExponentSystem, M: int, budget: int = 10**7) -> LatticeResult:
    """Minimum of ||sum m_j theta_j|| over integer vectors with
    0 < ||m||_inf <= M, in 256-bit fixed point, so the result is
    bit-identical across runs. Ties resolve to the first vector in
    lexicographic order (v and -v always tie).

    Meet in the middle: a vector is a head (its first r // 2 coordinates)
    and a tail. The nonzero tails are sorted by their sum mod 2^256, ties by
    the tail itself. For a head with sum s, the tails closest to -s on the
    circle are the first of the run at or above it and the first of the run
    below it (both wrapping); the zero tail is tried on its own for nonzero
    heads. The cost is about (2M+1)^(r - r//2) log M for the sort and
    (2M+1)^(r//2) binary searches, instead of (2M+1)^r sums.
    vectors_scanned and the budget still count the box, (2M+1)^r - 1
    vectors.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    r = sys.r
    total = (2 * M + 1) ** r - 1
    if total > budget:
        raise BudgetExceededError(f"{total} vectors exceed budget {budget}")

    modulus = 1 << _FIXED_BITS
    thetas = [_theta_fixed(sys.L, g) for g in sys.bases]
    h = r // 2
    coords = range(-M, M + 1)
    zero = (0,) * (r - h)
    tails = sorted(
        (sum(m * t for m, t in zip(tail, thetas[h:])) % modulus, tail)
        for tail in itertools.product(coords, repeat=r - h)
        if tail != zero
    )
    keys = [key for key, _ in tails]
    best: Optional[tuple[int, tuple[int, ...]]] = None
    for head in itertools.product(coords, repeat=h):
        s = sum(m * t for m, t in zip(head, thetas)) % modulus
        above = bisect_left(keys, -s % modulus) % len(keys)
        below = bisect_left(keys, keys[above - 1])
        picks = [tails[above], tails[below]] + ([(0, zero)] if any(head) else [])
        for key, tail in picks:
            u = (s + key) % modulus
            cand = (min(u, modulus - u), head + tail)
            if best is None or cand < best:
                best = cand
    err = r * M * 2.0 ** (-(_FIXED_BITS - 1))
    return LatticeResult(
        M,
        best[0] / modulus,
        best[1],
        float(M) ** (-r),
        err,
        total,
    )
