"""Carry-counting valuation tests.

Oracle: the Legendre factorial formula v_p(m!) = sum_i floor(m/p^i), applied
as v_p(binom(2n,n)) = v_p((2n)!) - 2 v_p(n!). It never looks at digits, so
it is independent of the implementation under test. A second oracle does
trial division of math.comb directly for small n, and a third decides
coprimality digit-wise by Lucas's theorem.
"""

import math

import pytest

from smalldigits import (
    GrahamSplit,
    central_binom_valuation,
    graham_split,
    is_prime,
    to_digits,
)


# --- oracles -------------------------------------------------------------------


def legendre_factorial_valuation(m: int, p: int) -> int:
    total, q = 0, p
    while q <= m:
        total += m // q
        q *= p
    return total


def legendre_central_valuation(n: int, p: int) -> int:
    return legendre_factorial_valuation(2 * n, p) - 2 * legendre_factorial_valuation(n, p)


def trial_division_valuation(value: int, p: int) -> int:
    v = 0
    while value % p == 0:
        value //= p
        v += 1
    return v


def lucas_coprime_oracle(n: int, p: int) -> bool:
    """True iff C(2n, n) is coprime to p, decided digit-wise: the product of
    C(m_i, n_i) over base-p digit pairs of 2n and n is nonzero mod p exactly
    when no digit pair has n_i > m_i. Independent of the valuation path."""
    top = to_digits(2 * n, p)
    bottom = to_digits(n, p)
    acc = 1
    for k in range(len(top)):
        acc = acc * (math.comb(top.digit_at(k), bottom.digit_at(k)) % p) % p
    return acc != 0


# --- valuation equivalences ----------------------------------------------------


def test_valuation_matches_legendre_formula():
    for p in (3, 5, 7, 11, 13):
        for n in range(1, 3000):
            assert central_binom_valuation(n, p) == legendre_central_valuation(n, p)


def test_valuation_matches_trial_division():
    for p in (3, 5, 7):
        for n in range(1, 400):
            expected = trial_division_valuation(math.comb(2 * n, n), p)
            assert central_binom_valuation(n, p) == expected


def test_lucas_oracle_agrees_on_coprimality():
    for p in (3, 5, 7):
        for n in range(1, 2000):
            assert lucas_coprime_oracle(n, p) == (central_binom_valuation(n, p) == 0)


def test_valuation_requires_prime():
    with pytest.raises(ValueError):
        central_binom_valuation(10, 6)
    with pytest.raises(ValueError):
        central_binom_valuation(0, 3)


# --- primality helper ----------------------------------------------------------


def test_is_prime_small_range():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for i in range(2, 45):
        if sieve[i]:
            for j in range(i * i, 2000, i):
                sieve[j] = False
    for n in range(2000):
        assert is_prime(n) == sieve[n]


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(341)
    assert is_prime(10**18 + 9)
    assert not is_prime(10**18 + 7)


# --- splits ----------------------------------------------------------------------


def test_graham_split_worked_example():
    split = graham_split(756, (3, 5, 7))
    assert split.valuations == (0, 0, 0)
    assert split.n2 == 1
    assert split.n2_log_ratio == 0.0


def test_graham_split_composite_part():
    # 6 = (20)_3 = (11)_5 = (6)_7: large digits in bases 3 and 7 only
    split = graham_split(6, (3, 5, 7))
    assert split.valuations == (1, 0, 1)
    assert split.n2 == 21
    assert math.comb(12, 6) % 21 == 0 and math.comb(12, 6) % (21 * 3) != 0

    value = math.comb(12, 6)
    oracle_n2 = 1
    for p in (3, 5, 7):
        oracle_n2 *= p ** trial_division_valuation(value, p)
    assert split.n2 == oracle_n2


def test_graham_split_n2_seeded_sweep():
    for n in range(1, 600):
        split = graham_split(n, (3, 5))
        value = math.comb(2 * n, n)
        assert split.n2 == 3 ** trial_division_valuation(value, 3) * 5 ** trial_division_valuation(value, 5)


def test_graham_split_ratio_edges():
    assert graham_split(1, (3, 5, 7)).n2_log_ratio == 0.0
    # n = 1: binom(2,1) = 2, coprime to everything odd
    split = graham_split(2, (3,))
    assert split.n2 == 3  # binom(4,2) = 6
    assert split.n2_log_ratio == pytest.approx(math.log(3) / math.log(2))


def test_graham_split_csv_row_shape():
    split = graham_split(10, (3, 5, 7))
    row = split.csv_row()
    assert row[0] == 10 and row[-2] == 1
    assert len(row) == 2 + 3 + 1


def test_graham_split_json_dict():
    split = graham_split(10, (3, 5, 7))
    d = split.to_json_dict()
    assert d["n"] == 10
    assert d["valuations"] == {"3": 0, "5": 0, "7": 0}
    assert d["n2"] == 1


def test_graham_split_rejects_composite_member():
    with pytest.raises(ValueError):
        graham_split(10, (3, 4))
