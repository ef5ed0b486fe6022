"""Constructions of integers with simultaneously small digits.

Two constructions live here. The greedy two-base repair starts from a pure
power of the first base and adds progressively lower powers of it to clear
large digits of the second base, most significant offender first. The block
construction builds b = sum s_n * L^n top-down in a universal base L coprime
to all target bases, choosing each shift s_n so the digits inside a padded
window stay small, and audits the result window by window.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .digits import BaseSpec, _exact_fraction, large_digit_count, to_digits, window_positions
from .errors import BudgetExceededError

# --- greedy two-base digit repair -------------------------------------------


def _msb_offender(value: int, spec: BaseSpec) -> Optional[int]:
    """Position of the most significant large digit, or None."""
    g, bound = spec.g, spec.max_small_digit
    k, offender = 0, None
    while value:
        value, d = divmod(value, g)
        if d > bound:
            offender = k
        k += 1
    return offender


def _iter_moves(value, g1, spec2, offender, max_exponent, order, mult_cap):
    """Candidate (exponent, times, new_value) triples for clearing the most
    significant offender. A move is admissible when the corrective power's
    leading base-g2 digit sits at the offender's position and the addition
    leaves no large digit at that position or above."""
    g2 = spec2.g
    lo, hi = g2**offender, g2 ** (offender + 1) - 1
    exps = window_positions(g1, lo, hi)
    if max_exponent is not None:
        exps = range(exps.start, min(exps.stop, max_exponent))
    if order == "highest":
        exps = exps[::-1]
    elif order != "lowest":
        raise ValueError(f"unknown policy order {order!r}")
    for e in exps:
        power = g1**e
        for times in range(1, mult_cap + 1):
            cand = value + times * power
            new_off = _msb_offender(cand, spec2)
            if new_off is None or new_off < offender:
                yield e, times, cand


@dataclass(frozen=True)
class RepairMove:
    """One repair step: value = previous value + times * g1^exponent, which
    clears the large base-g2 digit at offender_position."""

    exponent: int
    times: int
    offender_position: int
    value: int

    def to_json_dict(self) -> dict:
        return {
            "exponent": self.exponent,
            "times": self.times,
            "offender_position": self.offender_position,
            "value": str(self.value),
        }


@dataclass(frozen=True)
class EgrsTrace:
    """Full record of one greedy repair run.

    Step values strictly increase and step exponents strictly decrease.
    final is None when the run failed (budget exhausted or unrecoverable
    dead end); best_partial then holds the most repaired value seen.
    """

    g1: int
    g2: int
    kappa1: Fraction
    kappa2: Fraction
    start_exponent: int
    step_budget: int
    policy: str
    steps: tuple[RepairMove, ...]
    final: Optional[int]
    attempts: int
    best_partial: int
    best_partial_large: int

    def values(self) -> list[int]:
        return [s.value for s in self.steps]

    def to_json_dict(self) -> dict:
        return {
            "g1": self.g1,
            "g2": self.g2,
            "kappa1": str(self.kappa1),
            "kappa2": str(self.kappa2),
            "start_exponent": self.start_exponent,
            "step_budget": self.step_budget,
            "policy": self.policy,
            "steps": [s.to_json_dict() for s in self.steps],
            "final": None if self.final is None else str(self.final),
            "attempts": self.attempts,
            "best_partial": str(self.best_partial),
            "best_partial_large": self.best_partial_large,
        }


def egrs_construct(
    g1: int,
    g2: int,
    kappa1,
    kappa2,
    start_exponent: int,
    step_budget: int = 10_000,
    policy: str = "lowest",
) -> EgrsTrace:
    """Greedy repair with backtracking from g1^start_exponent.

    Each step adds times * g1^e (times below the base-g1 smallness cap, so
    base-g1 digits stay small automatically: exponents strictly decrease,
    hence each appears once with multiplicity equal to its digit). The
    "lowest" policy tries the smallest admissible exponent first and
    reproduces the worked two-base runs; "highest" tries the largest first.
    Dead ends backtrack; step_budget caps total attempted moves.
    """
    spec1 = BaseSpec(g1, _exact_fraction(kappa1))
    spec2 = BaseSpec(g2, _exact_fraction(kappa2))
    if math.gcd(g1, g2) != 1:
        raise ValueError("bases must be coprime")
    if start_exponent < 0:
        raise ValueError("start_exponent must be >= 0")
    mult_cap = min(spec1.max_small_digit, g2 - 1)
    if mult_cap < 1:
        raise ValueError(f"kappa1={spec1.kappa} admits no nonzero base-{g1} digit")

    feasibility = Fraction(spec1.max_small_digit, g1 - 1) + Fraction(spec2.max_small_digit, g2 - 1)
    if feasibility < 1:
        warnings.warn(
            f"repair feasibility sum {feasibility} < 1: the greedy run may dead-end",
            stacklevel=2,
        )

    start = g1**start_exponent

    def key_of(value):
        off = _msb_offender(value, spec2)
        return ((-1 if off is None else off), large_digit_count(value, spec2))

    best_partial, best_key = start, key_of(start)
    attempts = 0
    # Each frame: (value before the move, offender, iterator of moves, chosen step or None)
    stack: list[dict] = []
    value, prev_exp = start, start_exponent

    def push_frame(val, cap):
        off = _msb_offender(val, spec2)
        return {
            "value": val,
            "offender": off,
            "moves": None if off is None else _iter_moves(val, g1, spec2, off, cap, policy, mult_cap),
            "step": None,
        }

    frame = push_frame(value, prev_exp)
    while True:
        if frame["offender"] is None:
            steps = tuple(f["step"] for f in stack)
            return EgrsTrace(
                g1, g2, spec1.kappa, spec2.kappa, start_exponent, step_budget, policy,
                steps, frame["value"], attempts, frame["value"], 0,
            )
        move = next(frame["moves"], None)
        if move is None:
            # dead end: unwind to the previous frame and try its next move
            if not stack:
                return EgrsTrace(
                    g1, g2, spec1.kappa, spec2.kappa, start_exponent, step_budget, policy,
                    (), None, attempts, best_partial, best_key[1],
                )
            frame = stack.pop()
            continue
        e, times, cand = move
        attempts += 1
        if attempts > step_budget:
            raise BudgetExceededError(
                f"step budget {step_budget} exhausted after {len(stack)} committed steps"
            )
        ck = key_of(cand)
        if ck < best_key:
            best_key, best_partial = ck, cand
        frame["step"] = RepairMove(e, times, frame["offender"], cand)
        stack.append(frame)
        frame = push_frame(cand, e)


# --- top-down block construction ---------------------------------------------


@dataclass(frozen=True)
class BlockConfig:
    """Parameters of the block construction.

    L = ell^h is the universal base, coprime to every target base; shifts
    range over [1, H]; C_pad >= 1 pads the digit windows away from block
    boundaries. N is the number of blocks below the leading one.
    """

    specs: tuple[BaseSpec, ...]
    ell: int
    L: int
    H: int
    C_pad: Fraction = Fraction(8)
    N: int = 8

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        object.__setattr__(self, "C_pad", _exact_fraction(self.C_pad))
        if not self.specs:
            raise ValueError("need at least one base")
        if self.ell < 2:
            raise ValueError("ell must be >= 2")
        prod = 1
        for s in self.specs:
            prod *= s.g
        if math.gcd(self.ell, prod) != 1:
            raise ValueError(f"ell={self.ell} shares a factor with a target base")
        L = self.L
        while L > 1 and L % self.ell == 0:
            L //= self.ell
        if L != 1 or self.L < self.ell:
            raise ValueError(f"L={self.L} is not a positive power of ell={self.ell}")
        if self.H < self.L:
            raise ValueError("H must be >= L")
        if self.C_pad < 1:
            raise ValueError("C_pad must be >= 1")
        if self.N < 1:
            raise ValueError("N must be >= 1")

    def constraint_window(self, n: int) -> Optional[tuple[int, int]]:
        """Integer place-value window [ceil(C_pad*L^n), floor(L^(n+1)/C_pad)]
        used when choosing shift s_n; None when empty."""
        lo = math.ceil(self.C_pad * self.L**n)
        hi = math.floor(Fraction(self.L ** (n + 1)) / self.C_pad)
        return (lo, hi) if lo <= hi else None

    def audit_window(self, n: int) -> Optional[tuple[int, int]]:
        """Audit window [C_pad*(H/L)*L^n, L^(n+1)/C_pad], tightened on the
        left so later blocks cannot disturb it; None when empty."""
        lo = math.ceil(self.C_pad * Fraction(self.H * self.L**n, self.L))
        hi = math.floor(Fraction(self.L ** (n + 1)) / self.C_pad)
        return (lo, hi) if lo <= hi else None

    def to_json_dict(self) -> dict:
        return {
            "specs": [s.to_json_dict() for s in self.specs],
            "ell": self.ell,
            "L": self.L,
            "H": self.H,
            "C_pad": str(self.C_pad),
            "N": self.N,
        }


def _window_clean(value: int, windows: Sequence[tuple[int, int, int, int]]) -> bool:
    """True when no digit of value inside any window is large. Each window
    is (g, place value of its lowest digit, number of digits, bound)."""
    for g, place, width, bound in windows:
        rest = value // place
        for _ in range(width):
            rest, d = divmod(rest, g)
            if d > bound:
                return False
    return True


def block_find_shift(cfg: BlockConfig, n: int, beta: int) -> Optional[int]:
    """Minimal s in [1, H] such that every digit of s*L^n + beta inside the
    constraint window is small in every base; None if no shift works."""
    if not (0 <= n <= cfg.N):
        raise ValueError(f"block index {n} outside [0, {cfg.N}]")
    if beta < 0:
        raise ValueError("beta must be non-negative")
    window = cfg.constraint_window(n)
    windows = []
    if window is not None:
        for spec in cfg.specs:
            positions = window_positions(spec.g, *window)
            windows.append((spec.g, spec.g**positions.start, len(positions), spec.max_small_digit))
    Ln = cfg.L**n
    for s in range(1, cfg.H + 1):
        if _window_clean(s * Ln + beta, windows):
            return s
    return None


@dataclass(frozen=True)
class BaseAudit:
    """Large-digit census of the final value, positions classified by which
    audit window they fall in (good block, bad block, or fringe)."""

    g: int
    total_digits: int
    large_total: int
    good_window_positions: int
    good_window_large: int
    bad_window_positions: int
    bad_window_large: int
    fringe_positions: int
    fringe_large: int

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "total_digits": self.total_digits,
            "large_total": self.large_total,
            "good_window_positions": self.good_window_positions,
            "good_window_large": self.good_window_large,
            "bad_window_positions": self.bad_window_positions,
            "bad_window_large": self.bad_window_large,
            "fringe_positions": self.fringe_positions,
            "fringe_large": self.fringe_large,
        }


@dataclass(frozen=True)
class BlockTrace:
    """Outcome of a block construction run.

    shifts[i] is s_i (index = block); s_N = 1 always, s_n = 0 exactly on the
    bad blocks where no admissible shift existed. b = sum shifts[i] * L^i.
    """

    config: BlockConfig
    shifts: tuple[int, ...]
    good_blocks: tuple[int, ...]
    bad_blocks: tuple[int, ...]
    b: int
    audits: tuple[BaseAudit, ...]

    def b_from(self, n: int) -> int:
        """Partial value sum_{i >= n} s_i * L^i."""
        L = self.config.L
        return sum(s * L**i for i, s in enumerate(self.shifts) if i >= n)

    def summarize(self) -> dict:
        """Bad-digit bookkeeping recomputed from the trace itself."""
        out = {}
        for audit in self.audits:
            out[audit.g] = {
                "large_total": audit.large_total,
                "large_in_good_windows": audit.good_window_large,
                "bad_window_positions": audit.bad_window_positions,
                "fringe_positions": audit.fringe_positions,
                "bad_digit_fraction": (audit.large_total / audit.total_digits) if audit.total_digits else 0.0,
                "classified_bound_holds": audit.large_total
                <= audit.good_window_large + audit.bad_window_positions + audit.fringe_positions,
            }
        return out

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "shifts": list(self.shifts),
            "good_blocks": list(self.good_blocks),
            "bad_blocks": list(self.bad_blocks),
            "b": str(self.b),
            "audits": [a.to_json_dict() for a in self.audits],
            "summary": {str(k): v for k, v in self.summarize().items()},
        }


def _audit_base(cfg: BlockConfig, b: int, spec: BaseSpec, good: set[int], bad: set[int]) -> BaseAudit:
    dv = to_digits(b, spec.g)
    category = ["fringe"] * len(dv)
    for n in range(cfg.N):
        window = cfg.audit_window(n)
        if window is None:
            continue
        lo, hi = window
        kind = "good" if n in good else "bad"
        # g^k <= b exactly for the positions k the expansion of b has
        for k in window_positions(spec.g, lo, min(hi, b)):
            if category[k] == "fringe":
                category[k] = kind
    bound = spec.max_small_digit
    counts = {"good": [0, 0], "bad": [0, 0], "fringe": [0, 0]}
    for k, d in enumerate(dv.digits):
        bucket = counts[category[k]]
        bucket[0] += 1
        if d > bound:
            bucket[1] += 1
    large_total = counts["good"][1] + counts["bad"][1] + counts["fringe"][1]
    return BaseAudit(
        spec.g,
        len(dv),
        large_total,
        counts["good"][0],
        counts["good"][1],
        counts["bad"][0],
        counts["bad"][1],
        counts["fringe"][0],
        counts["fringe"][1],
    )


def block_construct(cfg: BlockConfig) -> BlockTrace:
    """Top-down run: s_N = 1, then for n = N-1 .. 0 the minimal working
    shift (0 marking a bad block), followed by a full per-base audit."""
    shifts = [0] * (cfg.N + 1)
    shifts[cfg.N] = 1
    partial = cfg.L**cfg.N
    good, bad = [], []
    for n in range(cfg.N - 1, -1, -1):
        s = block_find_shift(cfg, n, partial)
        if s is None:
            bad.append(n)
        else:
            shifts[n] = s
            good.append(n)
            partial += s * cfg.L**n
    b = partial
    good_set, bad_set = set(good), set(bad)
    audits = tuple(_audit_base(cfg, b, spec, good_set, bad_set) for spec in cfg.specs)
    return BlockTrace(cfg, tuple(shifts), tuple(sorted(good)), tuple(sorted(bad)), b, audits)


def stability_check(trace: BlockTrace, n: int, spec: BaseSpec) -> bool:
    """Digits of b and of the partial value b_{>=n} agree at every position
    whose place value exceeds g*H*L^n/(L-1): the lower blocks cannot reach
    that high even with maximal shifts and carries."""
    cfg = trace.config
    if not (0 <= n <= cfg.N):
        raise ValueError(f"block index {n} outside [0, {cfg.N}]")
    if spec.g not in {s.g for s in cfg.specs}:
        raise ValueError(f"base {spec.g} is not part of this construction")
    threshold = Fraction(spec.g * cfg.H * cfg.L**n, cfg.L - 1)
    full = to_digits(trace.b, spec.g)
    part = to_digits(trace.b_from(n), spec.g)
    k = window_positions(spec.g, 1, math.floor(threshold)).stop
    top = max(len(full), len(part))
    while k < top:
        if full.digit_at(k) != part.digit_at(k):
            return False
        k += 1
    return True
