"""Exponential sums over digit-restricted sets and their Fourier companions.

The central object is the family A = {sum c_i g^i : 0 <= c_i < t, i < R} of
integers whose first R base-g digits all lie below t. Its exponential sum at
frequency k factors into R short geometric sums, one per digit position,
which makes exact evaluation cheap even when g^R is astronomically large.
On top of that sit the large-spectrum enumeration with its analytic counting
bound, the frequency-vector boxes used for multi-base counting, and a
compactly supported bump function handled purely through its Fourier
coefficients.

The large-spectrum enumeration is a branch and bound over the digits of k,
lowest first: factor i of |S(k)| depends only on k mod g^(R-i), so each new
digit fixes one factor, and the factors not yet fixed are at most t. A
subtree is pruned when its partial product times t^(unfixed) lies below
the cut by more than a relative margin (1e-9, or 1e-14 per factor for very
long families) that covers float rounding, so only k the exhaustive
comparison would reject are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetExceededError

_DIRECT_CAP = 10**6


@dataclass(frozen=True)
class SmallDigitFamily:
    """Integers with R base-g digits all below t; |A| = t^R."""

    g: int
    t: int
    R: int

    def __post_init__(self) -> None:
        if not isinstance(self.g, int) or self.g < 2:
            raise ValueError(f"base must be an integer >= 2, got {self.g!r}")
        if not isinstance(self.t, int) or not 1 <= self.t < self.g:
            raise ValueError(f"digit bound must satisfy 1 <= t < g, got t={self.t!r}")
        if not isinstance(self.R, int) or self.R < 1:
            raise ValueError(f"length must be a positive integer, got {self.R!r}")

    @property
    def modulus(self) -> int:
        return self.g**self.R

    @property
    def size(self) -> int:
        return self.t**self.R

    def to_json_dict(self) -> dict:
        return {"g": self.g, "t": self.t, "R": self.R}


def _sin_pi(num: int, den: int) -> float:
    """sin(pi * num/den) with the argument folded exactly into [0, 1/2]."""
    num %= 2 * den
    sign = 1.0
    if num >= den:
        num -= den
        sign = -1.0
    if 2 * num > den:
        num = den - num
    return sign * math.sin(math.pi * num / den)


def exp_sum_product(family: SmallDigitFamily, k: int) -> complex:
    """Sum of e(nk/g^R) over the family, as a product of R geometric sums.

    Every angle is derived from the exact residue k*g^i mod g^R, reduced
    before any float conversion, so results are bit-identical for k and
    k mod g^R no matter how large k is.
    """
    g, t, N = family.g, family.t, family.modulus
    r = k % N
    total = complex(1.0, 0.0)
    for _ in range(family.R):
        if r == 0:
            total *= t
        else:
            mag = _sin_pi(t * r, N) / _sin_pi(r, N)
            m = ((t - 1) * r) % (2 * N)
            angle = math.pi * m / N
            total *= complex(mag * math.cos(angle), mag * math.sin(angle))
        r = (r * g) % N
    return total


def exp_sum_direct(family: SmallDigitFamily, k: int) -> complex:
    """Literal sum over all t^R family members (brute-force cross-check)."""
    if family.size > _DIRECT_CAP:
        raise BudgetExceededError(
            f"direct evaluation needs {family.size} terms, cap is {_DIRECT_CAP}"
        )
    g, t, N = family.g, family.t, family.modulus
    k %= N
    total = 0j
    # one digit position at a time keeps this O(R * t^R) without recursion
    values = [0]
    for i in range(family.R):
        step = g**i
        values = [v + c * step for c in range(t) for v in values]
    for n in values:
        m = (n * k) % N
        angle = 2.0 * math.pi * m / N
        total += complex(math.cos(angle), math.sin(angle))
    return total


@dataclass(frozen=True)
class SpectrumQuery:
    """Frequency-range query: either (K, eta) or (M, delta) with eta = M^-delta."""

    family: SmallDigitFamily
    K: Optional[int] = None
    eta: Optional[float] = None
    M: Optional[int] = None
    delta: Optional[float] = None
    budget: int = 10**7

    def __post_init__(self) -> None:
        ke = self.K is not None or self.eta is not None
        md = self.M is not None or self.delta is not None
        if ke and md:
            raise ValueError("choose one mode: (K, eta) or (M, delta), not both")
        if self.K is not None:
            if self.eta is None:
                raise ValueError("K mode needs eta")
            if self.K < 1:
                raise ValueError("K must be >= 1")
            if not 0 < self.eta <= 1:
                raise ValueError(f"eta must lie in (0, 1], got {self.eta}")
        elif self.M is not None:
            if self.delta is None:
                raise ValueError("M mode needs delta")
            if self.M < 2:
                raise ValueError("M must be >= 2")
            if self.delta < 0:
                raise ValueError("delta must be >= 0")
        else:
            raise ValueError("choose a mode: (K, eta) or (M, delta)")
        if self.budget < 1:
            raise ValueError("budget must be positive")

    @property
    def frequency_count(self) -> int:
        if self.K is not None:
            return self.family.g**self.K
        return self.M

    @property
    def threshold_eta(self) -> float:
        if self.eta is not None:
            return self.eta
        return float(self.M) ** (-self.delta)

    @property
    def exponent_bound(self) -> int:
        """K itself, or the least K with g^K >= M in direct-cap mode."""
        if self.K is not None:
            return self.K
        K, p = 0, 1
        while p < self.M:
            p *= self.family.g
            K += 1
        return K

    def to_json_dict(self) -> dict:
        return {
            "family": self.family.to_json_dict(),
            "K": self.K,
            "eta": self.eta,
            "M": self.M,
            "delta": self.delta,
            "budget": self.budget,
        }


def large_spectrum_enumerate(query: SpectrumQuery) -> list[tuple[int, float]]:
    """All k in the query range with |S(k)| >= eta * t^R, sorted by k.

    Branch and bound over the base-g digits of k, lowest first. Factor i of
    |S(k)| is |sin(pi t x)/sin(pi x)| with x = (k mod g^(R-i)) / g^(R-i), so
    once the low j digits of k are fixed, so is the factor for position R-j;
    every factor not yet fixed is at most t. A subtree whose partial product
    times t^(R-j) falls below cut * (1 - slack) is pruned. The walk fixes
    min(K, R) digits in (K, eta) mode and min(exponent_bound, R) in (M, delta)
    mode; a leaf stands for every k < count congruent to it mod g^depth.

    The prune never changes the result: every surviving k is decided by
    abs(exp_sum_product(family, k)) >= cut exactly as an exhaustive scan
    would, so hits and magnitudes are bit-identical to that scan. The prune
    is sound because each factor carries relative rounding error of a few
    ulps (about 12 * 2^-53) in both the walk and exp_sum_product, so the
    two products differ relatively by less than 3e-15 * R; slack =
    max(1e-9, 1e-14 * R) exceeds that, so a pruned k would also fail
    `mag >= cut`. Underflow adds an absolute error of at most about
    R * 2^-1074 * t^R, negligible against cut = eta * t^R while
    eta >= 1e-290; below that the walk prunes nothing. The value of
    exp_sum_product depends only on k mod g^R, bit for bit, so one call per
    leaf decides all of its k.
    """
    count = query.frequency_count
    if count > query.budget:
        raise BudgetExceededError(f"{count} frequencies exceed budget {query.budget}")
    family = query.family
    g, t, R = family.g, family.t, family.R
    eta = query.threshold_eta
    cut = eta * family.size
    floor = cut * (1.0 - max(1e-9, 1e-14 * R)) if eta >= 1e-290 else 0.0
    depth = min(query.exponent_bound, R)
    caps = [float(t) ** (R - j) for j in range(depth + 1)]  # bound on the unfixed factors
    hits: list[tuple[int, float]] = []

    def walk(low: int, j: int, scale: int, partial: float) -> None:
        # low = k mod scale, scale = g^j, partial = product of the fixed factors
        if j == depth:
            mag = abs(exp_sum_product(family, low))
            if mag >= cut:
                hits.extend((k, mag) for k in range(low, count, scale))
            return
        nxt = scale * g
        for child in range(low, min(nxt, count), scale):
            factor = abs(_sin_pi(t * child, nxt) / _sin_pi(child, nxt)) if child else float(t)
            if partial * factor * caps[j + 1] >= floor:
                walk(child, j + 1, nxt, partial * factor)

    walk(0, 0, 1, 1.0)
    hits.sort()
    return hits


@dataclass(frozen=True)
class SpectrumBound:
    """Analytic cap on the large-spectrum count.

    value is (10/t)^min(R,K) * exp(2*sqrt(K ln t ln(1/eta))) * g^K. exponent
    carries the alternative per-M form log_g(10g/t) + 2*sqrt(delta) and is
    None outside (M, delta) mode; any unspecified leading factor is left to
    the caller as a measured count/bound ratio.
    """

    query: SpectrumQuery
    value: float
    exponent: Optional[float]

    def to_json_dict(self) -> dict:
        return {
            "query": self.query.to_json_dict(),
            "value": self.value,
            "exponent": self.exponent,
        }


def spectrum_bound(query: SpectrumQuery) -> SpectrumBound:
    family = query.family
    g, t, R = family.g, family.t, family.R
    K = query.exponent_bound
    eta = query.threshold_eta
    value = (
        (10.0 / t) ** min(R, K)
        * math.exp(2.0 * math.sqrt(K * math.log(t) * math.log(1.0 / eta)))
        * float(g) ** K
    )
    exponent = None
    if query.M is not None:
        exponent = math.log(10.0 * g / t, g) + 2.0 * math.sqrt(query.delta)
    return SpectrumBound(query, value, exponent)


def _default_width(family: SmallDigitFamily) -> Fraction:
    return Fraction(1, family.g ** (family.R + 1))


def gamma_vectors(
    families: Sequence[SmallDigitFamily],
    M: int,
    h: int,
    deltas: Optional[Sequence] = None,
    c2: float = 1.0,
    C1: float = 1.0,
    budget: int = 10**7,
) -> list[tuple[tuple[int, ...], float]]:
    """Nonzero integer vectors in the dyadic shell M/2 <= max|k_i| < M whose
    per-coordinate product of exponential-sum magnitudes is large.

    Kept are vectors with |k_i| <= C1 * (ln(1/prod deltas))^2 / delta_i in
    every coordinate and prod_i |S_i(k_i)| >= c2 * max|k_i|^(-(r+1)/h) * |A|.
    c2 and C1 are experiment knobs, not derived constants. deltas defaults
    to 1/g_i^(R_i+1).
    """
    families = tuple(families)
    if not families:
        raise ValueError("need at least one family")
    if M < 2:
        raise ValueError("M must be >= 2")
    if h < 3:
        raise ValueError("h must be >= 3")
    r = len(families)
    if deltas is None:
        widths = [_default_width(f) for f in families]
    else:
        widths = [Fraction(str(d)) if isinstance(d, float) else Fraction(d) for d in deltas]
        if len(widths) != r:
            raise ValueError(f"expected {r} widths, got {len(widths)}")
        if any(not 0 < w < 1 for w in widths):
            raise ValueError("widths must lie in (0, 1)")
    log_recip = sum(math.log(w.denominator) - math.log(w.numerator) for w in widths)
    bounds = []
    for w in widths:
        cap = math.floor(C1 * log_recip**2 * w.denominator / w.numerator)
        bounds.append(min(M - 1, cap))
    volume = 1
    for b in bounds:
        volume *= 2 * b + 1
    if volume > budget:
        raise BudgetExceededError(f"box volume {volume} exceeds budget {budget}")

    # per-coordinate magnitude tables; |S(-k)| = |S(k)|
    tables = []
    for f, b in zip(families, bounds):
        mags = [abs(exp_sum_product(f, k)) for k in range(b + 1)]
        tables.append(mags)
    size_product = 1
    for f in families:
        size_product *= f.size

    half = (M + 1) // 2  # max|k_i| >= M/2  <=>  max >= ceil(M/2)
    out = []

    def rec(i: int, prefix: tuple[int, ...], mag: float, mx: int) -> None:
        if i == r:
            if mx < half or mx == 0:
                return
            if mag >= c2 * mx ** (-(r + 1) / h) * size_product:
                out.append((prefix, mag))
            return
        table = tables[i]
        for k in range(-bounds[i], bounds[i] + 1):
            rec(i + 1, prefix + (k,), mag * table[abs(k)], max(mx, abs(k)))

    rec(0, (), 1.0, 0)
    return out


# --- bump function, spectral side only ---------------------------------------


@dataclass(frozen=True)
class BumpParams:
    """Width delta in (0,1) and convolution order J; c_j = 1/(4 j^2)."""

    delta: float
    J: int

    def __post_init__(self) -> None:
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")
        if not isinstance(self.J, int) or self.J < 1:
            raise ValueError(f"J must be a positive integer, got {self.J!r}")
        # support window needs sum c_j <= 1/2; the series sum is pi^2/24 < 1/2
        if sum(self.coefficients) > 0.5:
            raise ValueError("coefficient sum exceeds 1/2")

    @property
    def coefficients(self) -> tuple[float, ...]:
        return tuple(1.0 / (4.0 * j * j) for j in range(1, self.J + 1))

    def to_json_dict(self) -> dict:
        return {"delta": self.delta, "J": self.J}


def bump_fourier_coeff(params: BumpParams, k: int) -> float:
    """psihat(k) = prod_j sinc^2(pi c_j delta k); k = 0 gives exactly 1."""
    if k == 0:
        return 1.0
    total = 1.0
    for c in params.coefficients:
        x = c * params.delta * k
        s = math.sin(math.pi * x) / (math.pi * x)
        total *= s * s
    return total


@dataclass(frozen=True)
class BumpReport:
    params: BumpParams
    tail_cap: int
    coeff_at_zero: float
    coeff_sum: float
    tail_bound: float
    sum_bound: float
    envelope_violations: int
    first_violation: Optional[int]
    support_leak: float
    support_points: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_json_dict(),
            "tail_cap": self.tail_cap,
            "coeff_at_zero": self.coeff_at_zero,
            "coeff_sum": self.coeff_sum,
            "tail_bound": self.tail_bound,
            "sum_bound": self.sum_bound,
            "envelope_violations": self.envelope_violations,
            "first_violation": self.first_violation,
            "support_leak": self.support_leak,
            "support_points": list(self.support_points),
        }


def bump_property_report(
    params: BumpParams,
    tail_cap: int,
    tail_tol: float = 1e-6,
    chunk: int = 1_000_000,
) -> BumpReport:
    """Scan psihat over |k| <= tail_cap and certify the three bump properties.

    Checks 0 <= psihat(k) <= min(1, (J^2/(delta k))^(2J)) pointwise, sums the
    coefficients with a certified tail bound, and reconstructs psi by the
    truncated series at points outside the support window to measure leakage.

    The certified tail combines two estimates. The first factor dominates
    termwise (psihat <= sinc^2(pi c_1 delta k)) and sum_{k in Z}
    sinc^2(pi a k) = 1/a for 0 < a <= 1, giving an exact tail for the first
    factor alone. The polynomial envelope integral 2 (J^2/delta)^(2J)
    cap^(1-2J)/(2J-1) joins the minimum only for J >= 2, where the envelope
    inequality is actually provable; at J = 1 it fails on a positive-density
    set of k (|sin(pi delta k/4)| > pi/4), which the violation counter
    reports rather than hides.
    """
    if tail_cap < 1:
        raise ValueError("tail_cap must be >= 1")
    delta, J = params.delta, params.J
    cs = np.asarray(params.coefficients)
    two_j = 2 * J

    points = tuple(x for x in (0.6 * delta, 0.75 * delta, 0.9 * delta, 0.25) if x > delta / 2)
    coeff_sum = 1.0  # k = 0 term
    first_factor_sum = 1.0
    leaks = [1.0] * len(points)
    violations = 0
    first_violation: Optional[int] = None

    for start in range(1, tail_cap + 1, chunk):
        ks = np.arange(start, min(start + chunk, tail_cap + 1), dtype=np.float64)
        first = np.sinc(cs[0] * delta * ks) ** 2
        psi = first.copy()
        for c in cs[1:]:
            psi *= np.sinc(c * delta * ks) ** 2
        base = np.minimum((J * J) / (delta * ks), 1.0)
        bad = psi > base**two_j
        if bad.any():
            violations += int(bad.sum())
            if first_violation is None:
                first_violation = int(ks[int(np.argmax(bad))])
        coeff_sum += 2.0 * float(psi.sum())
        first_factor_sum += 2.0 * float(first.sum())
        for i, x in enumerate(points):
            leaks[i] += 2.0 * float((psi * np.cos(2.0 * math.pi * x * ks)).sum())

    identity_total = 1.0 / (cs[0] * delta)  # = 4/delta
    sinc_tail = max(0.0, identity_total - first_factor_sum)
    if J >= 2:
        envelope_tail = math.exp(
            two_j * math.log(J * J / delta)
            + (1 - two_j) * math.log(tail_cap)
            + math.log(2.0 / (two_j - 1))
        )
        tail = min(sinc_tail, envelope_tail)
    else:
        tail = sinc_tail
    if tail > tail_tol:
        raise ValueError(
            f"tail_cap {tail_cap} certifies tail {tail:.3g} > tolerance {tail_tol:.3g}"
        )
    return BumpReport(
        params,
        tail_cap,
        bump_fourier_coeff(params, 0),
        coeff_sum,
        tail,
        identity_total,
        violations,
        first_violation,
        max(abs(v) for v in leaks) if leaks else 0.0,
        points,
    )
