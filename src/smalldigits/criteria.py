"""Threshold conditions controlling when the multi-base constructions work.

Three sums-of-logarithms conditions (a density heuristic, a quantitative
theorem-style condition with the 320*r^5 constant, and a spectrum-stage
condition) plus one purely rational two-base condition. Ceilings are taken
in exact rational arithmetic before any logarithm is evaluated; logarithms
are evaluated in multiprecision with an explicit indeterminate window, and
the equal-base threshold solver avoids logarithms entirely by comparing
exact integer powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from mpmath import mp

from .digits import BaseSpec, _exact_fraction

# Comparisons landing this close to the threshold are reported indeterminate
# rather than decided by floating point.
INDETERMINATE_WINDOW = Fraction(1, 10**20)


@dataclass(frozen=True)
class ConditionTerm:
    g: int
    kappa: str
    value: float


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one condition evaluation.

    value/threshold are floats for display; value_str preserves more digits.
    satisfied reflects the stated comparison; indeterminate is set when the
    value lands within the certification window of the threshold, in which
    case satisfied should not be trusted.
    """

    name: str
    value: float
    value_str: str
    threshold: float
    comparison: str
    satisfied: bool
    indeterminate: bool
    terms: tuple[ConditionTerm, ...]

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "value_str": self.value_str,
            "threshold": self.threshold,
            "comparison": self.comparison,
            "satisfied": self.satisfied,
            "indeterminate": self.indeterminate,
            "terms": [{"g": t.g, "kappa": t.kappa, "term": t.value} for t in self.terms],
        }


def _log_ratio_base_g(ratio: Fraction, g: int):
    # log_g(ratio) with exact integer arguments to mp.log
    return (mp.log(ratio.numerator) - mp.log(ratio.denominator)) / mp.log(g)


def _ratio_threshold(form: str, g: int, kappa: Fraction, r: int) -> tuple[Fraction, Fraction]:
    """Per-base ratio A and threshold c of a sum condition over r bases:
    sum_j log_{g_j}(A_j) < c."""
    if form == "conjecture":
        return Fraction(g, math.ceil(kappa * g)), Fraction(1)
    if form == "theorem":
        return Fraction(320 * r**5) / kappa, Fraction(1, 2 * r)
    if form == "prop":
        return Fraction(10 * g, math.ceil(kappa * g / (32 * r**5))), Fraction(1, 2 * r)
    raise ValueError(f"unknown condition {form!r}")


def _sum_report(form: str, specs, r: int, dps: int) -> ConditionReport:
    pairs = [_ratio_threshold(form, s.g, s.kappa, r) for s in specs]
    threshold = pairs[0][1]
    with mp.workdps(dps):
        terms = []
        total = mp.mpf(0)
        for spec, (ratio, _) in zip(specs, pairs):
            t = _log_ratio_base_g(ratio, spec.g)
            terms.append(ConditionTerm(spec.g, str(spec.kappa), float(t)))
            total += t
        thr = mp.mpf(threshold.numerator) / threshold.denominator
        gap = abs(total - thr)
        err = (len(specs) + 4) * mp.mpf(10) ** (5 - dps) * (1 + abs(total))
        window = mp.mpf(INDETERMINATE_WINDOW.numerator) / INDETERMINATE_WINDOW.denominator
        indeterminate = gap <= max(err, window)
        satisfied = bool(total < thr)
        value_str = mp.nstr(total, dps - 5)
    return ConditionReport(
        name=f"{form}_sum",
        value=float(total),
        value_str=value_str,
        threshold=float(threshold),
        comparison="<",
        satisfied=satisfied,
        indeterminate=bool(indeterminate),
        terms=tuple(terms),
    )


def conjecture_sum(specs: Sequence[BaseSpec], dps: int = 40) -> ConditionReport:
    """sum_j log_{g_j}(g_j / ceil(kappa_j*g_j)) < 1.

    This is the density-heuristic condition: the sum is 1 minus the expected
    growth exponent of the simultaneous small-digit family.
    """
    specs = tuple(specs)
    if not specs:
        raise ValueError("need at least one base")
    return _sum_report("conjecture", specs, len(specs), dps)


def theorem_sum(specs: Sequence[BaseSpec], r: int, dps: int = 40) -> ConditionReport:
    """sum_j log_{g_j}(320*r^5 / kappa_j) < 1/(2r)."""
    specs = tuple(specs)
    if r != len(specs):
        raise ValueError(f"r={r} does not match {len(specs)} bases")
    return _sum_report("theorem", specs, r, dps)


def prop_sum(specs: Sequence[BaseSpec], r: int, dps: int = 40) -> ConditionReport:
    """sum_j log_{g_j}(10*g_j / ceil((kappa_j/(32*r^5))*g_j)) < 1/(2r)."""
    specs = tuple(specs)
    if r != len(specs):
        raise ValueError(f"r={r} does not match {len(specs)} bases")
    return _sum_report("prop", specs, r, dps)


def egrs_condition(spec1: BaseSpec, spec2: BaseSpec) -> ConditionReport:
    """Two-base repair feasibility: (a1-1)/(g1-1) + (a2-1)/(g2-1) >= 1 where
    a_i = ceil(kappa_i*g_i). Decided in exact rational arithmetic; the
    boundary case equals 1 exactly and is satisfied (the comparison is not
    strict), never indeterminate."""
    for s in (spec1, spec2):
        if s.kappa < Fraction(1, s.g):
            raise ValueError(f"kappa={s.kappa} below 1/{s.g}: no nonzero digit is small")
    total = Fraction(0)
    terms = []
    for s in (spec1, spec2):
        term = Fraction(math.ceil(s.kappa * s.g) - 1, s.g - 1)
        terms.append(ConditionTerm(s.g, str(s.kappa), float(term)))
        total += term
    return ConditionReport(
        name="egrs_condition",
        value=float(total),
        value_str=str(total),
        threshold=1.0,
        comparison=">=",
        satisfied=total >= 1,
        indeterminate=False,
        terms=tuple(terms),
    )


@dataclass(frozen=True)
class EqualBaseThreshold:
    condition: str
    r: int
    kappa: str
    min_g: int
    min_pow10_exponent: int

    def to_json_dict(self) -> dict:
        return {
            "condition": self.condition,
            "r": self.r,
            "kappa": self.kappa,
            "min_g": str(self.min_g),
            "min_pow10_exponent": self.min_pow10_exponent,
        }


def _equal_base_satisfied(condition: str, r: int, kappa: Fraction, g: int) -> bool:
    # r equal terms: sum < c/d  <=>  (A^r)^d < g^c, exact in integers.
    a, threshold = _ratio_threshold(condition, g, kappa, r)
    lhs = (a**r) ** threshold.denominator
    rhs = Fraction(g) ** threshold.numerator
    return lhs < rhs


def equal_base_threshold(
    r: int, kappa, condition: str, max_exponent: int = 5000, scan_cap: int = 10**4
) -> EqualBaseThreshold:
    """Minimal integer base g (all r bases equal, same kappa) satisfying the
    named condition, plus the minimal power of ten that satisfies it.

    Every comparison is exact integer arithmetic, so boundary bases that
    land on exact equality are classified correctly (equality fails a
    strict condition). Ceiling jumps make the conditions non-monotone over
    short stretches of small g, so small bases are scanned exhaustively;
    beyond scan_cap the wiggle is negligible relative to the gap and a
    bisection with +/-1 stability probes takes over.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    kappa = _exact_fraction(kappa)
    if not (0 < kappa <= 1):
        raise ValueError(f"kappa must lie in (0, 1], got {kappa}")

    exponent = None
    for e in range(1, max_exponent + 1):
        if _equal_base_satisfied(condition, r, kappa, 10**e):
            exponent = e
            break
    if exponent is None:
        raise RuntimeError(f"no power of ten up to 10^{max_exponent} satisfies {condition}")

    min_g = None
    for g in range(2, min(scan_cap, 10**exponent) + 1):
        if _equal_base_satisfied(condition, r, kappa, g):
            min_g = g
            break
    if min_g is None:
        lo, hi = scan_cap, 10**exponent
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _equal_base_satisfied(condition, r, kappa, mid):
                hi = mid
            else:
                lo = mid
        min_g = hi
        # stability probe: the answer must flip across min_g
        if not _equal_base_satisfied(condition, r, kappa, min_g):
            raise RuntimeError("threshold probe failed at min_g")
        if _equal_base_satisfied(condition, r, kappa, min_g - 1):
            raise RuntimeError("threshold probe failed at min_g - 1")

    return EqualBaseThreshold(condition, r, str(kappa), min_g, exponent)
