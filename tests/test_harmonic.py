"""Exponential-sum and bump-function tests.

The sum oracle is a from-scratch double loop over all digit tuples using
cmath, sharing no code with the implementation. The bump envelope tests pin
a genuine counterexample: with a single smoothing factor (J = 1) the claimed
envelope min(1, (J^2/(delta k))^(2J)) is FALSE — at delta = 0.1, k = 20 the
true coefficient is 4/pi^2 = 0.405... against an envelope value of 0.25 —
so violation reporting is exercised on real violations, and the certified
tail at J = 1 comes from the exact sinc-square identity instead.
"""

import cmath
import math
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smalldigits import (
    BaseSpec,
    BudgetExceededError,
    BumpParams,
    SmallDigitFamily,
    SpectrumQuery,
    bump_fourier_coeff,
    bump_property_report,
    exp_sum_direct,
    exp_sum_product,
    gamma_vectors,
    large_spectrum_enumerate,
    spectrum_bound,
)
from smalldigits import harmonic


# --- oracle ---------------------------------------------------------------------


def brute_exp_sum(family, k):
    """sum over all n with R small digits of e(k n / g^R), from the raw
    definition with no factorization tricks."""
    N = family.g**family.R
    total = 0j
    for digits in product(range(family.t), repeat=family.R):
        n = sum(d * family.g**i for i, d in enumerate(digits))
        total += cmath.exp(2j * cmath.pi * ((k * n) % N) / N)
    return total


@lru_cache(maxsize=64)
def _all_magnitudes(family, count):
    return tuple(abs(exp_sum_product(family, k)) for k in range(count))


def exhaustive_spectrum(query):
    """The exhaustive scan the pruned walk replaced: every k in the range,
    kept when abs(exp_sum_product) >= eta * t^R."""
    cut = query.threshold_eta * query.family.size
    mags = _all_magnitudes(query.family, query.frequency_count)
    return [(k, mag) for k, mag in enumerate(mags) if mag >= cut]


def centered_digits(value, g, length):
    """Base-g digits of value mod g^length, each recentred into (-g/2, g/2]."""
    r = value % g**length
    out = []
    for _ in range(length):
        d = r % g
        if 2 * d > g:
            d -= g
        r = (r - d) // g
        out.append(d)
    return tuple(out)


# --- product evaluation ------------------------------------------------------------


def test_product_matches_brute_force_grid():
    for g, t, R in [(3, 2, 1), (3, 2, 2), (5, 3, 2), (7, 2, 2), (5, 2, 3)]:
        family = SmallDigitFamily(g, t, R)
        tol = 1e-9 * family.size
        for k in range(g**R):
            assert abs(exp_sum_product(family, k) - brute_exp_sum(family, k)) <= tol


def test_direct_matches_product():
    family = SmallDigitFamily(7, 3, 3)
    for k in (0, 1, 5, 42, 340, 7**3 - 1):
        assert abs(exp_sum_direct(family, k) - exp_sum_product(family, k)) <= 1e-9 * 27


def test_zero_frequency_gives_family_size():
    for g, t, R in [(3, 2, 4), (11, 5, 2)]:
        family = SmallDigitFamily(g, t, R)
        value = exp_sum_product(family, 0)
        assert value == complex(t**R, 0)


def test_periodicity_is_bit_exact():
    family = SmallDigitFamily(5, 3, 3)
    N = 5**3
    for k in (1, 17, 63, 124):
        base = exp_sum_product(family, k)
        assert exp_sum_product(family, k + N) == base
        assert exp_sum_product(family, k - 7 * N) == base


def test_conjugate_symmetry():
    family = SmallDigitFamily(7, 4, 2)
    for k in range(1, 25):
        s = exp_sum_product(family, k)
        assert abs(exp_sum_product(family, -k) - s.conjugate()) <= 1e-12 * family.size


def test_direct_budget_guard():
    family = SmallDigitFamily(11, 10, 7)  # 10^7 tuples is past the cap
    with pytest.raises(BudgetExceededError):
        exp_sum_direct(family, 1)


def test_family_validation_and_adapter():
    with pytest.raises(ValueError):
        SmallDigitFamily(5, 5, 2)  # t must stay below g
    with pytest.raises(ValueError):
        SmallDigitFamily(5, 0, 2)
    from fractions import Fraction

    spec = BaseSpec(5, Fraction(1, 2))
    family = SmallDigitFamily(spec.g, spec.alphabet_size, 3)
    assert family.t == 3 and family.g == 5 and family.R == 3


# --- centered digits ----------------------------------------------------------------


def test_centered_digits_reconstruct_value_mod_modulus():
    import random

    rng = random.Random(7)
    for _ in range(300):
        g = rng.choice([3, 5, 7, 11])
        length = rng.randrange(1, 6)
        value = rng.randrange(0, g**length)
        cd = centered_digits(value, g, length)
        assert len(cd) == length
        assert all(-g / 2 < c <= g / 2 for c in cd)
        assert sum(c * g**i for i, c in enumerate(cd)) % g**length == value % g**length


# --- large spectrum ------------------------------------------------------------------


def test_large_spectrum_complete_and_sound():
    family = SmallDigitFamily(5, 3, 2)
    query = SpectrumQuery(family, K=2, eta=0.5)
    hits = dict(large_spectrum_enumerate(query))
    cutoff = 0.5 * family.size
    for k in range(5**2):
        mag = abs(exp_sum_product(family, k))
        if mag >= cutoff:
            assert k in hits and hits[k] == pytest.approx(mag)
        else:
            assert k not in hits


def test_large_spectrum_eta_one_only_zero_survives():
    family = SmallDigitFamily(5, 3, 3)
    query = SpectrumQuery(family, K=3, eta=1.0)
    hits = large_spectrum_enumerate(query)
    assert [k for k, _ in hits] == [0]
    assert hits[0][1] == pytest.approx(27.0)


@st.composite
def spectrum_queries(draw, cap=2048):
    g = draw(st.integers(2, 13))
    family = SmallDigitFamily(g, draw(st.integers(1, g - 1)), draw(st.integers(1, 7)))
    if draw(st.booleans()):
        k_max = 1
        while k_max < family.R + 2 and g ** (k_max + 1) <= cap:
            k_max += 1
        K = draw(st.integers(1, k_max))
        return SpectrumQuery(family, K=K, eta=draw(st.sampled_from([1.0, 0.5, 0.1, 0.001])))
    M = draw(st.integers(2, cap))
    return SpectrumQuery(family, M=M, delta=draw(st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0])))


@settings(max_examples=150, deadline=None, database=None)
@given(spectrum_queries())
def test_pruned_spectrum_equals_exhaustive(query):
    assert large_spectrum_enumerate(query) == exhaustive_spectrum(query)


def test_pruned_spectrum_equals_exhaustive_on_acceptance_06_grid():
    for g in (3, 5, 7, 11):
        for t in range(2, math.ceil(g / 2) + 1):
            for R in (1, 2, 3):
                family = SmallDigitFamily(g, t, R)
                for eta in (0.1, 0.3, 0.5, 0.9):
                    query = SpectrumQuery(family, K=R, eta=eta)
                    assert large_spectrum_enumerate(query) == exhaustive_spectrum(query)


def test_pruned_spectrum_equals_exhaustive_on_bench_families():
    # (g, t, R, K), eta and delta values of the analysis benchmark's spectrum jobs
    families = (
        (3, 2, 10, 8), (5, 3, 6, 5), (7, 4, 6, 4), (11, 6, 4, 3), (13, 7, 4, 3),
        (5, 2, 8, 5), (7, 3, 6, 4), (3, 2, 12, 7), (7, 4, 8, 5), (3, 2, 16, 8),
    )
    for g, t, R, K in families:
        family = SmallDigitFamily(g, t, R)
        queries = [SpectrumQuery(family, K=K, eta=eta) for eta in (0.1, 0.15, 0.2, 0.3, 0.5)]
        queries += [SpectrumQuery(family, M=g**K, delta=d) for d in (0.2, 0.3, 0.4)]
        for query in queries:
            assert large_spectrum_enumerate(query) == exhaustive_spectrum(query)


def test_pruned_spectrum_evaluates_few_frequencies(monkeypatch):
    calls = []

    def counting(family, k):
        calls.append(k)
        return exp_sum_product(family, k)

    monkeypatch.setattr(harmonic, "exp_sum_product", counting)
    query = SpectrumQuery(SmallDigitFamily(7, 4, 8), K=5, eta=0.1)
    hits = large_spectrum_enumerate(query)
    assert len(hits) == 184
    assert len(calls) < 2 * len(hits) < 7**5 // 40
    # K > R: one evaluation per residue mod g^R decides all 9 of its k
    calls.clear()
    hits = large_spectrum_enumerate(SpectrumQuery(SmallDigitFamily(3, 2, 2), K=4, eta=0.5))
    assert sorted(calls) == [0, 3, 6]
    assert len(hits) == 9 * len({k % 9 for k, _ in hits}) == 18


def test_spectrum_bound_eta_one_t_ten():
    family = SmallDigitFamily(11, 10, 2)
    bound = spectrum_bound(SpectrumQuery(family, K=2, eta=1.0))
    assert bound.value == pytest.approx(11**2)  # (10/t)^K and the exp factor both 1
    assert bound.exponent is None


def test_spectrum_bound_matches_formula():
    family = SmallDigitFamily(5, 3, 3)
    bound = spectrum_bound(SpectrumQuery(family, K=2, eta=0.5))
    expected = (10 / 3) ** 2 * math.exp(2 * math.sqrt(2 * math.log(3) * math.log(2))) * 25
    assert bound.value == pytest.approx(expected, rel=1e-12)


def test_spectrum_count_below_bound_small_grid():
    for g in (3, 5, 7):
        for t in range(2, math.ceil(g / 2) + 1):
            for R in (1, 2):
                family = SmallDigitFamily(g, t, R)
                for eta in (0.1, 0.5, 0.9):
                    query = SpectrumQuery(family, K=R, eta=eta)
                    count = len(large_spectrum_enumerate(query))
                    assert count <= spectrum_bound(query).value


def test_spectrum_m_delta_mode():
    family = SmallDigitFamily(5, 3, 3)
    query = SpectrumQuery(family, M=100, delta=0.5)
    assert query.threshold_eta == pytest.approx(100**-0.5)
    assert query.exponent_bound == 3  # least K with 5^K >= 100
    bound = spectrum_bound(query)
    assert bound.exponent == pytest.approx(math.log(10 * 5 / 3, 5) + 2 * math.sqrt(0.5))
    assert len(large_spectrum_enumerate(query)) <= bound.value


def test_spectrum_query_validation():
    family = SmallDigitFamily(5, 3, 2)
    with pytest.raises(ValueError):
        SpectrumQuery(family, K=2, eta=0.5, M=10, delta=0.5)
    with pytest.raises(ValueError):
        SpectrumQuery(family)
    with pytest.raises(ValueError):
        SpectrumQuery(family, K=2, eta=1.5)
    with pytest.raises(ValueError):
        SpectrumQuery(family, K=2, eta=0.0)
    with pytest.raises(BudgetExceededError):
        large_spectrum_enumerate(SpectrumQuery(SmallDigitFamily(11, 2, 8), K=8, eta=0.5))


def test_spectrum_duality_centered_digits_stay_small():
    # survivors of the eta-spectrum have every balanced digit inside
    # 2*C*g/t with C = exp(sqrt(log t * log(1/eta) / K)) on this desk grid
    for g, t, R, eta in [(11, 9, 3, 0.5), (11, 6, 2, 0.5), (7, 4, 3, 0.5), (5, 3, 3, 0.3)]:
        family = SmallDigitFamily(g, t, R)
        hits = large_spectrum_enumerate(SpectrumQuery(family, K=R, eta=eta))
        assert hits, "grid cell unexpectedly empty"
        C = math.exp(math.sqrt(math.log(t) * math.log(1 / eta) / R))
        cap = 2 * C * g / t
        for k, _ in hits:
            assert all(abs(c) <= cap for c in centered_digits(k, g, R))


# --- frequency boxes -----------------------------------------------------------------


def test_gamma_vectors_single_family_cross_filter():
    family = SmallDigitFamily(5, 3, 2)
    M, h = 6, 3
    got = gamma_vectors([family], M, h, deltas=[0.25])
    expected = []
    bound = min(M - 1, int(1.0 * math.log(4) ** 2 / 0.25))
    for k in range(-bound, bound + 1):
        if k == 0 or 2 * abs(k) < M:
            continue
        mag = abs(exp_sum_product(family, k))
        if mag >= 1.0 * abs(k) ** (-(1 + 1) / h) * family.size:
            expected.append((k,))
    assert sorted(k for k, _ in got) == sorted(expected)


def test_gamma_vectors_magnitudes_and_shell():
    fams = [SmallDigitFamily(3, 2, 2), SmallDigitFamily(5, 3, 2)]
    M = 8
    out = gamma_vectors(fams, M, h=4)
    for vec, mag in out:
        assert max(abs(v) for v in vec) >= (M + 1) // 2
        assert max(abs(v) for v in vec) < M
        direct = abs(exp_sum_product(fams[0], vec[0])) * abs(exp_sum_product(fams[1], vec[1]))
        assert mag == pytest.approx(direct, rel=1e-12)


def test_gamma_vectors_validation_and_budget():
    fams = [SmallDigitFamily(3, 2, 2)]
    with pytest.raises(ValueError):
        gamma_vectors(fams, 1, 3)
    with pytest.raises(ValueError):
        gamma_vectors(fams, 8, 2)  # h must be at least 3
    with pytest.raises(BudgetExceededError):
        gamma_vectors([SmallDigitFamily(3, 2, 2)] * 6, 10**4, 3, deltas=[1e-30] * 6, budget=10**4)


# --- bump function -------------------------------------------------------------------


def test_bump_coeff_at_zero_is_exactly_one():
    for J in range(1, 7):
        assert bump_fourier_coeff(BumpParams(0.1, J), 0) == 1.0


def test_bump_coeff_matches_numpy_sinc():
    for delta, J, k in [(0.1, 1, 7), (0.1, 3, 101), (0.01, 2, 999)]:
        params = BumpParams(delta, J)
        expected = 1.0
        for j in range(1, J + 1):
            expected *= float(np.sinc(delta * k / (4 * j**2)) ** 2)
        assert bump_fourier_coeff(params, k) == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_bump_coeff_collapses_at_sinc_roots():
    # x = delta*k/4 integral: k = 40 at delta = 0.1 lands on a sinc zero,
    # up to the error of float pi in sin()
    assert bump_fourier_coeff(BumpParams(0.1, 1), 40) <= 1e-30


def test_bump_envelope_counterexample_single_factor():
    # delta*k = 2: coefficient sinc(1/2)^2 = 4/pi^2 > (1/(delta k))^2 = 1/4
    params = BumpParams(0.1, 1)
    coeff = bump_fourier_coeff(params, 20)
    assert coeff == pytest.approx(4 / math.pi**2, rel=1e-12)
    envelope = min(1.0, (1 / (0.1 * 20)) ** 2)
    assert coeff > envelope  # the claimed envelope genuinely fails at J = 1


def test_bump_report_counts_j1_violations():
    report = bump_property_report(BumpParams(0.1, 1), 10**5, tail_tol=1e-2)
    assert report.envelope_violations > 0
    assert report.first_violation == 12
    # exact sinc-square identity: sum + certified tail is 4/delta on the nose
    assert report.coeff_sum + report.tail_bound == report.sum_bound == 40.0


def test_bump_report_no_violations_from_two_factors():
    for J in range(2, 7):
        report = bump_property_report(BumpParams(0.1, J), 10**5)
        assert report.envelope_violations == 0
        assert report.first_violation is None
        assert report.coeff_at_zero == 1.0
        assert report.coeff_sum + report.tail_bound <= report.sum_bound + 1e-9


def test_bump_support_leak_is_tiny():
    report = bump_property_report(BumpParams(0.1, 2), 10**5)
    assert report.support_leak < 1e-6


def test_bump_tail_precondition():
    with pytest.raises(ValueError):
        bump_property_report(BumpParams(0.1, 2), 100, tail_tol=1e-12)


def test_bump_params_validation():
    with pytest.raises(ValueError):
        BumpParams(1.5, 2)
    with pytest.raises(ValueError):
        BumpParams(0.1, 0)
    with pytest.raises(ValueError):
        BumpParams(0.1, 2.5)
