"""Equidistribution experiments for fractional parts of n / log_L g.

Everything here revolves around the exponents theta_j = ln L / ln g_j. Their
fractional multiples {n * theta_j} drive the power sums whose distance to
the nearest integer controls how often the block construction can fail, so
this module provides: exact-ish fractional-part streams (256-bit fixed
point), a multiprecision power-sum norm with a formal error bound, bad-n
censuses over an epsilon grid, a box-counting discrepancy estimate, the
separated-power-sum lower-bound probe, and the exhaustive lattice minimum
experiment.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import mpmath as mp
import numpy as np

from .errors import BudgetExceededError

_FIXED_BITS = 256
_FRAC_ERR_BUDGET = 1e-12


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


def frac_exponents(sys: ExponentSystem, n: int) -> tuple[tuple[float, ...], float]:
    """({n * theta_j})_j as floats plus a certified absolute error bound."""
    if n < 0:
        raise ValueError("n must be >= 0")
    err = n * 2.0 ** (-(_FIXED_BITS - 1)) + 2.0**-52
    if err > _FRAC_ERR_BUDGET:
        raise ValueError(f"n={n} exceeds the fixed-point precision budget")
    mask = (1 << _FIXED_BITS) - 1
    scale = 2.0**-_FIXED_BITS
    values = tuple(((n * _theta_fixed(sys.L, g)) & mask) * scale for g in sys.bases)
    return values, err


@dataclass(frozen=True)
class NormValue:
    """Distance to the nearest integer together with a formal error bound."""

    value: float
    err: float

    def indeterminate_against(self, threshold: float) -> bool:
        return abs(self.value - threshold) <= self.err


def power_sum_norm(sys: ExponentSystem, n: int, dps: int = 50) -> NormValue:
    """|| sum_j zeta_j * g_j^{n * theta_j mod 1} || at dps working digits.

    The error bound is formal: fractional parts lose about log10(n) digits,
    and each term amplifies that by g * ln g.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    with mp.workdps(dps):
        total = mp.mpf(0)
        amplification = 0.0
        for g, z in zip(sys.bases, sys.zetas):
            zc = mp.mpmathify(z)
            f = mp.frac(n * _theta_mp(sys.L, g, dps))
            total += zc * mp.power(g, f)
            amplification += abs(float(zc)) * g * math.log(g)
        norm = abs(total - mp.nint(total))
        err = amplification * (n + 1) * 10.0 ** (1 - dps) + (sys.r + 2) * 10.0 ** (2 - dps)
        return NormValue(float(norm), err)


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
    """Count n in [1, N] with power_sum_norm <= epsilon, per epsilon."""
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
    # one norm evaluation per n, shared across the whole epsilon grid
    for n in range(1, N + 1):
        nv = power_sum_norm(sys, n, dps=dps)
        for i, e in enumerate(eps):
            if e >= 0.5 or nv.value <= e:
                counts[i] += 1
                if len(examples[i]) < list_cap:
                    examples[i].append(n)
            if e < 0.5 and nv.indeterminate_against(e):
                indet[i] += 1

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


def discrepancy_estimate(sys: ExponentSystem, N: int, grid: Optional[int] = None) -> float:
    """Star-discrepancy upper estimate of {frac_exponents(n)}_{n<=N} by
    box counting: max corner deviation plus the d/grid resolution term."""
    d = sys.r
    if d > 3:
        raise ValueError("box counting supports at most 3 dimensions")
    if N < 1:
        raise ValueError("N must be >= 1")
    if grid is None:
        grid = {1: 1024, 2: 64, 3: 16}[d]
    if grid < 2:
        raise ValueError("grid must be >= 2")
    if grid**d > N:
        raise ValueError(f"grid {grid}^{d} is too fine for N={N}")

    mask = (1 << _FIXED_BITS) - 1
    thetas = [_theta_fixed(sys.L, g) & mask for g in sys.bases]
    counts = np.zeros((grid,) * d, dtype=np.int64)
    state = [0] * d
    for _ in range(N):
        idx = []
        for j in range(d):
            state[j] = (state[j] + thetas[j]) & mask
            idx.append((state[j] * grid) >> _FIXED_BITS)
        counts[tuple(idx)] += 1

    cum = counts
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
class SeparationReport:
    max_abs: float
    delta: float
    ratio: float

    def to_json_dict(self) -> dict:
        return {"max_abs": self.max_abs, "delta": self.delta, "ratio": self.ratio}


def power_sum_separation_check(
    xs: Sequence[float], cs: Sequence[float], points: Sequence[float]
) -> SeparationReport:
    """Evaluate f(t) = sum c_i x_i^t at 2^(r-1) separated points and report
    max|f| against delta^(r-1) * max|c| (the empirical implied constant)."""
    xs = [float(x) for x in xs]
    cs = [float(c) for c in cs]
    if len(xs) != len(cs):
        raise ValueError("xs and cs must have equal length")
    r = len(xs)
    if r < 1:
        raise ValueError("need at least one term")
    if len(set(xs)) != r:
        raise ValueError("xs must be distinct")
    if any(x <= 0 for x in xs):
        raise ValueError("xs must be positive")
    pts = [float(v) for v in points]
    if len(pts) != 2 ** (r - 1):
        raise ValueError(f"need exactly {2 ** (r - 1)} points, got {len(pts)}")
    if any(not 0 < v < 1 for v in pts):
        raise ValueError("points must lie in (0, 1)")
    if any(b <= a for a, b in zip(pts, pts[1:])):
        raise ValueError("points must be strictly increasing")
    cmax = max(abs(c) for c in cs)
    if cmax == 0:
        raise ValueError("coefficients are all zero")

    max_abs = max(abs(sum(c * x**t for c, x in zip(cs, xs))) for t in pts)
    delta = min((b - a for a, b in zip(pts, pts[1:])), default=1.0)
    ratio = max_abs / (delta ** (r - 1) * cmax)
    return SeparationReport(max_abs, delta, ratio)


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
    """Scan every integer vector with ||m||_inf <= M, m != 0; fixed-point
    arithmetic makes the result bit-identical across runs. Ties resolve to
    the first vector in lexicographic order."""
    if M < 1:
        raise ValueError("M must be >= 1")
    r = sys.r
    total = (2 * M + 1) ** r - 1
    if total > budget:
        raise BudgetExceededError(f"{total} vectors exceed budget {budget}")

    modulus = 1 << _FIXED_BITS
    thetas = [_theta_fixed(sys.L, g) for g in sys.bases]
    best: Optional[int] = None
    best_vec: Optional[tuple[int, ...]] = None
    for vec in itertools.product(range(-M, M + 1), repeat=r):
        if all(m == 0 for m in vec):
            continue
        s = sum(m * t for m, t in zip(vec, thetas)) % modulus
        dist = min(s, modulus - s)
        if best is None or dist < best:
            best, best_vec = dist, vec
    err = r * M * 2.0 ** (-(_FIXED_BITS - 1))
    return LatticeResult(
        M,
        best / modulus,
        best_vec,
        float(M) ** (-r),
        err,
        total,
    )
