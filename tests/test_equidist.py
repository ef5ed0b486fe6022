"""Fractional-part and power-sum tests.

Exact oracle for the n = 7 norm with L = 2 over bases (3, 5): the exponent
7*log_3(2) has integer part 4 and 3^{7 log_3 2} = 128, so the fractional
power is 128/81; likewise 128/125 in base 5. The sum 128/81 + 128/125 =
26368/10125 sits 4007/10125 below its nearest integer 3, giving the norm
exactly 4007/10125 = 0.3957530864... — a rational answer to an
irrational-exponent computation, ideal for pinning precision handling.
"""

import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from smalldigits import (
    BudgetExceededError,
    ExponentSystem,
    bad_n_census,
    discrepancy_estimate,
    frac_exponents,
    lattice_min_combination,
    power_sum_norm,
    power_sum_separation_check,
)
from smalldigits.equidist import _primitive_power_base, _theta_mp


def _sys(bases, ell, L, zetas=()):
    return ExponentSystem(tuple(bases), ell, L, zetas)


# --- exponent systems -----------------------------------------------------------


def test_primitive_power_base_is_exact_for_huge_bases():
    assert _primitive_power_base(10**400) == 10
    assert _primitive_power_base(2**4000) == 2
    assert _primitive_power_base(6**50) == 6
    assert _primitive_power_base(10007) == 10007
    assert [_primitive_power_base(g) for g in (2, 4, 8, 9, 12, 36, 1000)] == [2, 2, 2, 3, 12, 6, 10]
    with pytest.raises(ValueError):
        _sys([10, 10**400], 3, 3)


# --- fractional parts ----------------------------------------------------------


def test_frac_exponent_log2_of_3():
    system = _sys([3], 2, 2)
    values, err = frac_exponents(system, 1)
    assert values[0] == pytest.approx(math.log(2) / math.log(3), abs=1e-15)
    assert err < 1e-15


def test_frac_exponents_match_float_oracle():
    system = _sys([3, 5], 2, 2)
    thetas = [math.log(2) / math.log(3), math.log(2) / math.log(5)]
    for n in (1, 2, 17, 999, 12345):
        values, err = frac_exponents(system, n)
        for v, theta in zip(values, thetas):
            oracle = (n * theta) % 1.0
            assert v == pytest.approx(oracle, abs=1e-9)
        assert err < 1e-12


def test_frac_exponents_never_repeat_early():
    # {n*theta} for irrational theta is injective; check the first thousand
    system = _sys([3], 2, 2)
    seen = {frac_exponents(system, n)[0][0] for n in range(1, 1001)}
    assert len(seen) == 1000


def test_exponent_system_validation():
    with pytest.raises(ValueError):
        _sys([2, 4], 3, 3)  # multiplicatively dependent
    with pytest.raises(ValueError):
        _sys([8, 2], 3, 3)
    with pytest.raises(ValueError):
        _sys([3, 5], 3, 3)  # gcd(ell, 3) > 1
    with pytest.raises(ValueError):
        _sys([3], 2, 12)  # L not a power of ell
    with pytest.raises(ValueError):
        ExponentSystem((3, 5), 2, 2, (1,))  # zeta length mismatch


def test_exponent_system_rejects_repeated_base():
    with pytest.raises(ValueError):
        _sys([6, 6], 7, 7)


# --- power sums ----------------------------------------------------------------


def test_power_sum_norm_exact_rational_case():
    system = _sys([3, 5], 2, 2)
    norm = power_sum_norm(system, 7)
    assert abs(norm.value - 4007 / 10125) <= max(norm.err, 1e-14)
    assert norm.err < 1e-40


def test_power_sum_norm_integer_case_is_zero():
    # 3^{frac(log_3 2)} = 2 exactly, so the sum is an integer and the norm 0
    system = _sys([3], 2, 2)
    norm = power_sum_norm(system, 1)
    assert norm.value <= norm.err
    assert norm.indeterminate_against(1e-49)


def test_power_sum_norm_weights():
    # zeta = (2,) doubles the single term: norm of 2*2^frac = ||4|| = 0
    system = ExponentSystem((3,), 2, 2, (2,))
    norm = power_sum_norm(system, 1)
    assert norm.value <= norm.err


def test_power_sum_norm_cached_theta_equals_fresh_mpmath():
    system = _sys([3, 5, 7], 2, 8)
    for dps in (50, 7, 30):
        for g in system.bases:
            with mp.workdps(dps):
                fresh = mp.log(system.L) / mp.log(g)
            assert _theta_mp(system.L, g, dps) == fresh
        for n in (1, 12, 999):
            with mp.workdps(dps):
                total = sum(mp.power(g, mp.frac(n * (mp.log(system.L) / mp.log(g))))
                            for g in system.bases)
                expected = float(abs(total - mp.nint(total)))
            assert power_sum_norm(system, n, dps=dps).value == expected


# --- censuses --------------------------------------------------------------------


def test_census_epsilon_half_counts_everything():
    system = _sys([3, 5], 2, 2)
    report = bad_n_census(system, [0.5, 0.7], 500)
    for entry in report.entries:
        assert entry.count == 500
        assert entry.indeterminate == 0


def test_census_counts_decrease_with_epsilon():
    system = _sys([3, 5], 2, 2)
    report = bad_n_census(system, [0.1, 0.05, 0.01], 2000)
    counts = [e.count for e in report.entries]
    assert counts == sorted(counts, reverse=True)
    assert report.reference_exponent == 0.5
    assert all(e.indeterminate == 0 for e in report.entries)


def test_census_examples_capped():
    system = _sys([3, 5], 2, 2)
    report = bad_n_census(system, [0.5], 300, list_cap=10)
    assert len(report.entries[0].examples) == 10


def test_census_validation():
    system = _sys([3], 2, 2)
    with pytest.raises(ValueError):
        bad_n_census(system, [0.0], 100)
    with pytest.raises(BudgetExceededError):
        bad_n_census(system, [0.1], 10**7, budget=10**3)


# --- discrepancy ------------------------------------------------------------------


def test_discrepancy_tiny_sample_hand_computed():
    system = _sys([3], 2, 2)
    # {n theta} for n = 1..4 is .6309, .2619, .8928, .5237: one point in
    # [0, 1/2), so the corner deviation is 1/4 and the resolution term 1/2
    assert discrepancy_estimate(system, 4, grid=2) == 0.75
    with pytest.raises(ValueError):
        discrepancy_estimate(system, 1)  # default grid needs more points


def test_discrepancy_small_and_shrinking():
    system = _sys([3], 2, 2)
    d5 = discrepancy_estimate(system, 10**5)
    d6 = discrepancy_estimate(system, 10**6)
    assert d6 < 0.01
    assert d6 < d5


def test_discrepancy_grid_constraints():
    system = _sys([3, 5], 2, 2)
    with pytest.raises(ValueError):
        discrepancy_estimate(system, 100, grid=64)  # 64^2 > 100
    est = discrepancy_estimate(system, 10**5)
    assert est < 0.05


def test_weyl_boxes_fill_uniformly():
    # independent float check that ({n log2/log3}, {n log2/log5}) fills a
    # 4x4 grid evenly — tests the numbers themselves, not the library
    N = 10**6
    n = np.arange(1, N + 1, dtype=np.float64)
    x = (n * (math.log(2) / math.log(3))) % 1.0
    y = (n * (math.log(2) / math.log(5))) % 1.0
    counts, _, _ = np.histogram2d(x, y, bins=4, range=[[0, 1], [0, 1]])
    assert np.all(np.abs(counts / N - 1 / 16) <= 3e-3)


# --- separation ratio --------------------------------------------------------------


def test_separation_single_term():
    report = power_sum_separation_check([2.0], [3.0], [0.5])
    assert report.max_abs == pytest.approx(3.0 * 2.0**0.5)
    assert report.delta == 1.0
    assert report.ratio == pytest.approx(report.max_abs / 3.0)


def test_separation_seeded_instances_stay_finite():
    rng = random.Random(20260819)
    for _ in range(1000):
        r = rng.randrange(1, 5)
        xs = []
        while len(xs) < r:
            x = rng.uniform(0.1, 10.0)
            if all(abs(x - y) > 1e-6 for y in xs):
                xs.append(x)
        cs = [rng.uniform(0.1, 5.0) * rng.choice([-1, 1]) for _ in range(r)]
        pts = sorted(rng.uniform(0.01, 0.99) for _ in range(2 ** (r - 1)))
        while any(b - a < 1e-9 for a, b in zip(pts, pts[1:])):
            pts = sorted(rng.uniform(0.01, 0.99) for _ in range(2 ** (r - 1)))
        report = power_sum_separation_check(xs, cs, pts)
        assert report.ratio >= 0
        crude = sum(abs(c) * max(x, 1.0) for c, x in zip(cs, xs))
        assert report.max_abs <= crude + 1e-9


def test_separation_ratio_invariant_under_coefficient_scaling():
    xs, cs, pts = [1.5, 4.0], [2.0, -1.0], [0.2, 0.7]
    base = power_sum_separation_check(xs, cs, pts)
    scaled = power_sum_separation_check(xs, [17.5 * c for c in cs], pts)
    assert scaled.ratio == pytest.approx(base.ratio, rel=1e-12)
    assert scaled.max_abs == pytest.approx(17.5 * base.max_abs, rel=1e-12)


def test_separation_validation():
    with pytest.raises(ValueError):
        power_sum_separation_check([2.0, 2.0], [1.0, 1.0], [0.3, 0.6])
    with pytest.raises(ValueError):
        power_sum_separation_check([2.0, 3.0], [1.0, 1.0], [0.3])  # needs 2 points
    with pytest.raises(ValueError):
        power_sum_separation_check([2.0, 3.0], [1.0, 1.0], [0.6, 0.3])
    with pytest.raises(ValueError):
        power_sum_separation_check([2.0], [0.0], [0.5])
    with pytest.raises(ValueError):
        power_sum_separation_check([-1.0], [1.0], [0.5])


# --- lattice scan ---------------------------------------------------------------------


def test_lattice_frozen_result():
    system = _sys([2, 3], 5, 5)
    result = lattice_min_combination(system, 10)
    assert result.vectors_scanned == 440
    assert result.min_norm > 0
    assert result.argmin == (-7, 7)
    assert result.reference == 0.01
    # float oracle: ||-7 log5/log2 + 7 log5/log3||
    value = -7 * math.log(5) / math.log(2) + 7 * math.log(5) / math.log(3)
    assert result.min_norm == pytest.approx(abs(value - round(value)), abs=1e-12)


def test_lattice_bit_identical_reruns():
    system = _sys([2, 3], 5, 5)
    a = lattice_min_combination(system, 10)
    b = lattice_min_combination(system, 10)
    assert a == b  # not approx: the whole point is bit-for-bit stability


def test_lattice_monotone_in_m():
    system = _sys([2, 3], 5, 5)
    assert (
        lattice_min_combination(system, 20).min_norm
        <= lattice_min_combination(system, 10).min_norm
    )


def test_lattice_budget_and_validation():
    system = _sys([2, 3], 5, 5)
    with pytest.raises(BudgetExceededError):
        lattice_min_combination(system, 10**4, budget=10**5)
    with pytest.raises(ValueError):
        lattice_min_combination(system, 0)
