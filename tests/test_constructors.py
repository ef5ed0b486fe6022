"""Constructive-engine tests.

The repair-walk regression below was verified positionally by hand:
531441 = (114001231)_5, and adding 3^9, 3^5, 3^3, 3^2, 3^1 clears the
most-significant large base-5 digit one offender at a time, landing on
551406 = (1001000101110)_3 = (120121111)_5. The block tests re-derive
every chosen shift by an in-test rescan written straight from the window
definitions.
"""

import math
import warnings
from fractions import Fraction

import pytest

from smalldigits import (
    BaseSpec,
    BlockConfig,
    BudgetExceededError,
    RepairMove,
    block_construct,
    block_find_shift,
    egrs_construct,
    stability_check,
    to_digits,
)
from smalldigits.constructors import _iter_moves, _msb_offender

HALF = Fraction(1, 2)


def _egrs_repair_step(current, g1, g2, kappa2):
    """Oracle for one greedy repair move: clear the most significant large
    base-g2 digit with the lowest admissible power of g1, or None when every
    base-g2 digit is already small."""
    spec2 = BaseSpec(g2, kappa2)
    offender = _msb_offender(current, spec2)
    if offender is None:
        return None
    e, times, value = next(_iter_moves(current, g1, spec2, offender, None, "lowest", 1))
    return RepairMove(e, times, offender, value)


# --- greedy repair ---------------------------------------------------------------


def test_egrs_verified_walk():
    trace = egrs_construct(3, 5, HALF, HALF, 12)
    assert trace.final == 551406
    assert trace.values() == [551124, 551367, 551394, 551403, 551406]
    assert 3**12 == 531441  # the walk starts one level above the first step
    assert [s.exponent for s in trace.steps] == [9, 5, 3, 2, 1]
    assert [s.offender_position for s in trace.steps] == [6, 3, 2, 1, 0]
    assert all(s.times == 1 for s in trace.steps)


def test_egrs_final_value_is_small_in_both_bases():
    trace = egrs_construct(3, 5, HALF, HALF, 12)
    assert to_digits(trace.final, 3).render() == "(1001000101110)_3"
    assert to_digits(trace.final, 5).render() == "(120121111)_5"
    assert all(d <= 1 for d in to_digits(trace.final, 3).digits)
    assert all(d <= 2 for d in to_digits(trace.final, 5).digits)


def test_egrs_reconstruction_identity():
    trace = egrs_construct(3, 5, HALF, HALF, 12)
    total = 3**12
    prev = 12
    for step in trace.steps:
        assert step.exponent < prev  # strictly decreasing, no reuse
        prev = step.exponent
        total += step.times * 3**step.exponent
    assert total == trace.final


def test_egrs_trivial_start():
    trace = egrs_construct(3, 5, HALF, HALF, 0)
    assert trace.final == 1 and trace.steps == ()


def test_egrs_other_pairs_produce_valid_witnesses():
    for g1, g2, start in [(3, 5, 7), (5, 3, 6), (3, 7, 9), (7, 5, 6)]:
        spec1, spec2 = BaseSpec(g1, HALF), BaseSpec(g2, HALF)
        trace = egrs_construct(g1, g2, HALF, HALF, start)
        if trace.final is None:
            continue  # a failure trace is legal; validity is what we check
        assert not any(spec1.is_large(d) for d in to_digits(trace.final, g1).digits)
        assert not any(spec2.is_large(d) for d in to_digits(trace.final, g2).digits)


def test_egrs_highest_policy_also_terminates():
    trace = egrs_construct(3, 5, HALF, HALF, 12, policy="highest")
    if trace.final is not None:
        assert all(d <= 2 for d in to_digits(trace.final, 5).digits)
        assert all(d <= 1 for d in to_digits(trace.final, 3).digits)


def test_egrs_repair_step_clears_top_offender():
    move = _egrs_repair_step(531441, 3, 5, HALF)
    assert move is not None
    assert move.exponent == 9 and move.offender_position == 6
    assert move.value == 551124


def test_egrs_steps_are_repair_moves():
    trace = egrs_construct(3, 5, HALF, HALF, 12)
    assert trace.steps[0] == _egrs_repair_step(3**12, 3, 5, HALF)
    assert trace.to_json_dict()["steps"][0] == trace.steps[0].to_json_dict()


def test_msb_offender_matches_digit_expansion():
    for spec in (BaseSpec(5, HALF), BaseSpec(7, Fraction(2, 7)), BaseSpec(4, HALF)):
        for value in range(3000):
            large = [k for k, d in enumerate(to_digits(value, spec.g).digits) if spec.is_large(d)]
            assert _msb_offender(value, spec) == (large[-1] if large else None)


def test_egrs_repair_step_none_when_clean():
    assert _egrs_repair_step(551406, 3, 5, HALF) is None


def test_egrs_budget_exhaustion():
    with pytest.raises(BudgetExceededError):
        egrs_construct(3, 5, HALF, HALF, 12, step_budget=1)


def test_egrs_validation():
    with pytest.raises(ValueError):
        egrs_construct(4, 6, HALF, HALF, 3)  # bases share a factor
    with pytest.raises(ValueError):
        egrs_construct(3, 5, HALF, HALF, -1)
    with pytest.raises(ValueError):
        egrs_construct(2, 3, HALF, HALF, 3)  # base-2 alphabet {0}: no moves


def test_egrs_warns_when_condition_fails():
    # (ceil(5/4)-1)/4 + (ceil(7/4)-1)/6 = 1/4 + 1/6 < 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trace = egrs_construct(5, 7, Fraction(1, 4), Fraction(1, 4), 0)
    assert any("feasibility" in str(w.message).lower() for w in caught)
    assert trace.final == 1  # start value is already clean


def test_egrs_trace_serialization():
    trace = egrs_construct(3, 5, HALF, HALF, 12)
    d = trace.to_json_dict()
    assert d["final"] == "551406"
    assert len(d["steps"]) == 5
    assert d["steps"][0]["exponent"] == 9


# --- block construction ------------------------------------------------------------


SMALL_CFG = dict(ell=2, L=16, H=32, C_pad=Fraction(2), N=8)


def _small_config():
    return BlockConfig((BaseSpec(3, HALF), BaseSpec(5, HALF)), **SMALL_CFG)


def _window_clean_oracle(value, spec, window):
    """Straight from the definition: every digit whose place value lies in
    [lo, hi] must be small."""
    if window is None:
        return True
    lo, hi = window
    place, k = 1, 0
    dv = to_digits(value, spec.g)
    ok = True
    while place <= hi:
        if place >= lo and spec.is_large(dv.digit_at(k)):
            ok = False
        place *= spec.g
        k += 1
    return ok


def test_block_windows_exact_endpoints():
    cfg = _small_config()
    for n in range(cfg.N):
        lo, hi = cfg.constraint_window(n)
        assert lo == math.ceil(2 * 16**n)
        assert hi == 16 ** (n + 1) // 2
        assert lo <= hi


def test_block_construct_shifts_are_minimal_and_valid():
    cfg = _small_config()
    trace = block_construct(cfg)
    assert trace.shifts[cfg.N] == 1
    partial = 16**cfg.N
    for n in range(cfg.N - 1, -1, -1):
        window = cfg.constraint_window(n)
        chosen = trace.shifts[n]
        # rescan from scratch: the minimal working shift, or None
        found = None
        for s in range(1, cfg.H + 1):
            if all(_window_clean_oracle(s * 16**n + partial, spec, window) for spec in cfg.specs):
                found = s
                break
        assert (found or 0) == chosen
        partial += chosen * 16**n
    assert partial == trace.b


def test_block_construct_frozen_outcome():
    trace = block_construct(_small_config())
    assert trace.b == 7117828434
    assert trace.bad_blocks == ()
    assert trace.good_blocks == tuple(range(8))
    assert trace.b == sum(s * 16**i for i, s in enumerate(trace.shifts))


def test_block_value_within_stated_range():
    cfg = _small_config()
    trace = block_construct(cfg)
    assert 16**cfg.N <= trace.b <= cfg.H * 16 ** (cfg.N + 1)


def test_block_good_windows_audit_clean():
    trace = block_construct(_small_config())
    for audit in trace.audits:
        assert audit.good_window_large == 0
        assert audit.large_total <= audit.fringe_large + audit.bad_window_large


def test_block_find_shift_matches_construct():
    cfg = _small_config()
    assert block_find_shift(cfg, cfg.N - 1, 16**cfg.N) == block_construct(cfg).shifts[cfg.N - 1]
    with pytest.raises(ValueError):
        block_find_shift(cfg, cfg.N + 1, 1)
    with pytest.raises(ValueError):
        block_find_shift(cfg, 0, -5)


def test_block_stability_every_level():
    cfg = _small_config()
    trace = block_construct(cfg)
    for n in range(cfg.N + 1):
        for spec in cfg.specs:
            assert stability_check(trace, n, spec)
    with pytest.raises(ValueError):
        stability_check(trace, 0, BaseSpec(7, HALF))


def test_block_config_validation():
    specs = (BaseSpec(3, HALF),)
    with pytest.raises(ValueError):
        BlockConfig(specs, ell=3, L=9, H=20, C_pad=Fraction(2), N=3)  # gcd(ell, 3) > 1
    with pytest.raises(ValueError):
        BlockConfig(specs, ell=2, L=12, H=20, C_pad=Fraction(2), N=3)  # L not a power
    with pytest.raises(ValueError):
        BlockConfig(specs, ell=2, L=16, H=8, C_pad=Fraction(2), N=3)  # H < L
    with pytest.raises(ValueError):
        BlockConfig(specs, ell=2, L=16, H=20, C_pad=Fraction(1, 2), N=3)
    with pytest.raises(ValueError):
        BlockConfig(specs, ell=2, L=16, H=20, C_pad=Fraction(2), N=0)


def test_block_wide_padding_makes_windows_degenerate():
    # C_pad = L/8 on L = 64 pins each window to the single point 8*64^n and
    # empties every audit window; the construction then trivially picks s = 1
    cfg = BlockConfig((BaseSpec(3, HALF), BaseSpec(5, HALF)),
                      ell=2, L=64, H=512, C_pad=Fraction(8), N=4)
    for n in range(cfg.N):
        lo, hi = cfg.constraint_window(n)
        assert lo == hi == 8 * 64**n
        assert cfg.audit_window(n) is None
    trace = block_construct(cfg)
    assert trace.shifts == (1,) * (cfg.N + 1)
    assert trace.b == (64 ** (cfg.N + 1) - 1) // 63
