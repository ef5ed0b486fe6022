"""Fractional-part and power-sum tests.

Exact oracle for the n = 7 norm with L = 2 over bases (3, 5): the exponent
7*log_3(2) has integer part 4 and 3^{7 log_3 2} = 128, so the fractional
power is 128/81; likewise 128/125 in base 5. The sum 128/81 + 128/125 =
26368/10125 sits 4007/10125 below its nearest integer 3, giving the norm
exactly 4007/10125 = 0.3957530864... — a rational answer to an
irrational-exponent computation, ideal for pinning precision handling.

The census, discrepancy and lattice scans run a fast tier and fall back to
an exact one; the loops they replaced live below as oracles
(census_oracle, discrepancy_oracle, lattice_oracle) and the fast paths must
equal them exactly.
"""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smalldigits import (
    BudgetExceededError,
    ExponentSystem,
    bad_n_census,
    discrepancy_estimate,
    frac_exponents,
    lattice_min_combination,
    power_sum_norm,
)
from smalldigits import equidist
from smalldigits.equidist import (
    CensusEntry,
    CensusReport,
    NormValue,
    _bin,
    _box_counts,
    _float_norms,
    _loglog_fit,
    _norm_err,
    _primitive_power_base,
    _straddles,
    _theta_mp,
)

MASK = (1 << 256) - 1


def _sys(bases, ell, L, zetas=()):
    return ExponentSystem(tuple(bases), ell, L, zetas)


# --- oracles: the loops the fast paths replaced ---------------------------------


def census_oracle(system, epsilons, N, dps=50, list_cap=1000):
    """power_sum_norm at every n."""
    eps = [float(e) for e in epsilons]
    counts = [0] * len(eps)
    indet = [0] * len(eps)
    examples = [[] for _ in eps]
    for n in range(1, N + 1):
        nv = equidist.power_sum_norm(system, n, dps=dps)
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
    return CensusReport(N, dps, entries, exponent, residuals, 1.0 / system.r)


def box_counts_oracle(thetas, N, grid):
    """Step every 256-bit state by theta and bin it with state * grid >> 256."""
    d = len(thetas)
    counts = np.zeros((grid,) * d, dtype=np.int64)
    state = [0] * d
    for _ in range(N):
        idx = []
        for j in range(d):
            state[j] = (state[j] + thetas[j]) & MASK
            idx.append((state[j] * grid) >> 256)
        counts[tuple(idx)] += 1
    return counts


def discrepancy_oracle(system, N, grid=None):
    d = system.r
    if grid is None:
        grid = {1: 1024, 2: 64, 3: 16}[d]
    cum = box_counts_oracle([equidist._theta_fixed(system.L, g) & MASK for g in system.bases], N, grid)
    for axis in range(d):
        cum = np.cumsum(cum, axis=axis)
    axes = [np.arange(1, grid + 1) / grid for _ in range(d)]
    vol = axes[0]
    for a in axes[1:]:
        vol = np.multiply.outer(vol, a)
    return float(np.max(np.abs(cum / N - vol))) + d / grid


def lattice_oracle(system, M):
    """(min_norm, argmin) over the whole box in product order, strict <."""
    modulus = 1 << 256
    thetas = [equidist._theta_fixed(system.L, g) for g in system.bases]
    best = best_vec = None
    for vec in itertools.product(range(-M, M + 1), repeat=system.r):
        if all(m == 0 for m in vec):
            continue
        s = sum(m * t for m, t in zip(vec, thetas)) % modulus
        dist = min(s, modulus - s)
        if best is None or dist < best:
            best, best_vec = dist, vec
    return best / modulus, best_vec


def crafted_thetas(values):
    """Patch the module's fixed-point thetas: base g gets values[g]."""
    return mock.patch.object(equidist, "_theta_fixed", lambda L, g, bits=256: values[g])


BASE_SETS = {
    1: [(2,), (3,), (5,), (7,), (11,)],
    2: [(2, 3), (3, 5), (3, 7), (5, 7)],
    3: [(2, 3, 5), (3, 5, 7), (3, 5, 11)],
}


@st.composite
def systems(draw, d, weights=False):
    bases = draw(st.sampled_from(BASE_SETS[d]))
    ell = draw(st.sampled_from([e for e in (2, 7, 13) if all(math.gcd(e, g) == 1 for g in bases)]))
    zetas = tuple(draw(st.sampled_from([1, 2, 3, -1])) for _ in bases) if weights else ()
    return ExponentSystem(bases, ell, ell ** draw(st.integers(1, 3)), zetas)


# The analysis bench's equidist and lattice systems (bench/jobs.py).
BENCH_BASES = {1: ("3", "5", "7", "11"), 2: ("3,5", "3,7", "5,7"), 3: ("3,5,7", "3,5,11")}
BENCH_L = (2, 4, 8)
BENCH_CENSUS_DPS = {1: (50, 30, 7), 2: (50, 20, 7, 40), 3: (50, 30, 8, 40)}
BENCH_EPSILONS = (0.2, 0.1, 0.08, 0.05, 0.04, 0.02, 0.01)
BENCH_DISCREPANCY_N = {1: (20_000,), 2: (20_000,), 3: (20_000, 12_000, 8_000)}  # capped at 2*10^4
BENCH_LATTICE = (
    ("2,3", (5, 25), 100), ("2,3", (5, 25), 60), ("3,5", (2, 4), 80), ("3,7", (2, 8), 70),
    ("3,5,7", (2, 4), 12), ("2,3,5", (7, 49), 10), ("2,3", (5, 25), 40), ("3,5", (2, 4), 50),
)


def bench_systems(d):
    return [_sys(map(int, b.split(",")), L, L) for b in BENCH_BASES[d] for L in BENCH_L]


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


# --- two-tier census against the all-mpmath oracle -------------------------------------


@st.composite
def census_cases(draw):
    system = draw(systems(draw(st.integers(1, 3)), weights=draw(st.booleans())))
    N = draw(st.integers(1, 400))
    dps = draw(st.sampled_from([7, 8, 15, 30, 50]))
    eps = draw(st.lists(st.floats(1e-4, 0.6), max_size=3))
    if draw(st.booleans()):
        eps.append(0.5)
    # norms themselves and values within 1e-6 of them sit on the tier boundary
    for n in draw(st.lists(st.integers(1, N), min_size=1, max_size=3)):
        norm = power_sum_norm(system, n, dps=dps).value
        offset = draw(st.sampled_from([0.0, 0.0, 1e-6, -1e-6, 1e-9, -1e-12]))
        if norm + offset > 0:
            eps.append(norm + offset)
    eps = eps or [0.1]
    return system, draw(st.permutations(eps)), N, dps


@settings(max_examples=60, deadline=None, database=None)
@given(census_cases(), st.sampled_from([1000, 3]))
def test_census_equals_all_mpmath_oracle(case, list_cap):
    system, eps, N, dps = case
    assert bad_n_census(system, eps, N, dps=dps, list_cap=list_cap) == \
        census_oracle(system, eps, N, dps=dps, list_cap=list_cap)


def test_census_equals_oracle_on_bench_systems():
    for d, dps_values in BENCH_CENSUS_DPS.items():
        for system in bench_systems(d):
            for dps in dps_values:
                expected = census_oracle(system, BENCH_EPSILONS, 150, dps=dps)
                assert bad_n_census(system, BENCH_EPSILONS, 150, dps=dps) == expected


def test_census_all_through_mpmath_tier_equals_oracle():
    def uncertified(system, ns):
        v1, _ = _float_norms(system, ns)
        return v1, np.full(len(ns), np.inf)

    calls = []
    real_norm = power_sum_norm

    def counted(system, n, dps=50):
        calls.append(n)
        return real_norm(system, n, dps)

    for system, dps in ((_sys([3, 5], 2, 2), 30), (_sys([3, 5, 7], 2, 4), 7), (_sys([5], 3, 9), 50)):
        eps = [0.2, 0.05, 0.5, 0.01]
        with mock.patch.object(equidist, "_float_norms", uncertified), \
                mock.patch.object(equidist, "power_sum_norm", counted):
            calls.clear()
            report = bad_n_census(system, eps, 300, dps=dps)
        assert calls == list(range(1, 301))
        assert report == census_oracle(system, eps, 300, dps=dps)


def test_census_equals_oracle_when_mpmath_errs_by_its_whole_bound():
    # any power_sum_norm within its own error bound yields the oracle's
    # answers: shift each value by 0.99 err (up for even n, down for odd n)
    # and put epsilons between 0.5 and 1.9 err from tier 1's value, on the
    # side the shift moves towards
    real_norm = power_sum_norm

    def shifted(system, n, dps=50):
        nv = real_norm(system, n, dps)
        return NormValue(nv.value + (-1) ** n * 0.99 * nv.err, nv.err)

    system, dps, N = _sys([3, 5], 2, 2), 7, 200
    ns = np.arange(1, N + 1, dtype=np.uint64)
    v1, _ = _float_norms(system, ns)
    err = _norm_err(system, ns, dps)
    eps = [v1[n - 1] + f * err[n - 1]
           for n, f in ((10, 1.5), (41, -1.5), (78, 1.9), (121, -1.9), (150, 0.5), (33, -0.5))]
    eps = [e for e in eps if 0 < e < 0.5]
    assert len(eps) >= 4
    with mock.patch.object(equidist, "power_sum_norm", shifted):
        report = bad_n_census(system, eps, N, dps=dps)
        assert report == census_oracle(system, eps, N, dps=dps)
    assert sum(e.indeterminate for e in report.entries) > 0


def test_census_equals_oracle_where_theta_is_large():
    # theta = ln 2^400 / ln 3 is about 252: mpmath's fractional parts lose
    # digits in proportion to theta, and tier 1 must still leave every n it
    # might disagree on to mpmath
    system = _sys([3], 2, 2**400)
    eps = [0.2, 0.1, 0.05, 0.01]
    assert bad_n_census(system, eps, 2000, dps=7) == census_oracle(system, eps, 2000, dps=7)


@pytest.mark.parametrize("L", [2**200, 2**400], ids=["2^200", "2^400"])
def test_norm_err_bounds_low_precision_where_theta_is_large(L):
    # theta = ln L / ln 3 is about 126 and 252; without the theta factor in
    # _norm_err, 11 and 334 of these n stray past the dps-7 bound
    system = _sys([3], 2, L)
    for n in range(1, 2001):
        low, high = power_sum_norm(system, n, dps=7), power_sum_norm(system, n, dps=60)
        assert abs(low.value - high.value) <= low.err, n


def test_scans_equal_oracles_across_chunk_boundaries():
    system = _sys([3, 5], 2, 4)
    eps = [0.3, 0.1, 0.01]
    with mock.patch.object(equidist, "_CHUNK", 7):
        census = bad_n_census(system, eps, 100, dps=8, list_cap=12)
        estimate = discrepancy_estimate(system, 150, grid=10)
    assert census == census_oracle(system, eps, 100, dps=8, list_cap=12)
    assert estimate == discrepancy_oracle(system, 150, 10)


def test_census_tier1_decides_most_n_at_high_precision():
    calls = []
    real_norm = power_sum_norm
    system = _sys([3, 5], 2, 2)
    with mock.patch.object(equidist, "power_sum_norm",
                           lambda s, n, dps=50: calls.append(n) or real_norm(s, n, dps)):
        report = bad_n_census(system, [0.1, 0.05, 0.01], 2000, dps=50)
    assert len(calls) <= 5
    assert report == census_oracle(system, [0.1, 0.05, 0.01], 2000, dps=50)


def test_census_non_integer_weights_go_through_mpmath_tier():
    # a fractional weight makes the power sum jump by a non-integer where
    # {n theta} wraps, so tier 1 certifies nothing
    system = ExponentSystem((3, 5), 2, 2, (Fraction(1, 3), 2))
    _, err1 = _float_norms(system, np.arange(1, 50, dtype=np.uint64))
    assert np.all(np.isinf(err1))
    assert bad_n_census(system, [0.1, 0.3], 120, dps=20) == \
        census_oracle(system, [0.1, 0.3], 120, dps=20)


def test_float_norm_within_err1_of_high_precision_norm():
    rng = random.Random(20261018)
    ns = sorted({*range(1, 40), *(rng.randrange(1, 10**5 + 1) for _ in range(160)), 10**5})
    for system in (_sys([3], 2, 2), _sys([11], 2, 8), _sys([3, 5], 2, 2), _sys([5, 7], 2, 4),
                   _sys([3, 5, 7], 2, 2), ExponentSystem((3, 5, 11), 2, 8, (2, 3, -1))):
        v1, err1 = _float_norms(system, np.array(ns, dtype=np.uint64))
        for n, value, bound in zip(ns, v1, err1):
            nv = power_sum_norm(system, n, dps=60)
            assert abs(value - nv.value) <= bound + nv.err, (system, n)


def test_err1_is_tight_where_the_dropped_carry_is_largest():
    # theta = 2^256 - 1: the state n * theta mod 2^256 is 2^256 - n, so its
    # top 64 bits are 2^64 - 1 while x = 2^64 - n; the float power sum is off
    # by nearly the whole slope term of err1
    theta = (1 << 256) - 1
    for g, z in ((3, 1), (7, 2), (11, -3)):
        system = ExponentSystem((g,), 2, 2, (z,))
        ns = [2**20 + 1, 2**30 + 7, 2**40, 3 * 2**41 + 5]
        with crafted_thetas({g: theta}):
            v1, err1 = _float_norms(system, np.array(ns, dtype=np.uint64))
        with mp.workdps(80):
            for n, value, bound in zip(ns, v1, err1):
                total = z * mp.power(g, mp.mpf(n * theta & MASK) / 2**256)
                exact = float(abs(total - mp.nint(total)))
                assert abs(value - exact) <= bound
                assert abs(value - exact) > 0.75 * bound


# --- discrepancy: uint64 bins, 256-bit fallback ---------------------------------------


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(systems(d), st.integers(1, 20_000),
                                                     st.sampled_from([2, 3, 10, 16, 48, None]))))
def test_discrepancy_equals_256_bit_oracle(case):
    system, N, grid = case
    g = grid or {1: 1024, 2: 64, 3: 16}[system.r]
    if g**system.r > N:
        with pytest.raises(ValueError):
            discrepancy_estimate(system, N, grid=grid)
        return
    assert discrepancy_estimate(system, N, grid=grid) == discrepancy_oracle(system, N, grid)


def test_discrepancy_equals_oracle_on_bench_systems():
    for d, sizes in BENCH_DISCREPANCY_N.items():
        for system in bench_systems(d):
            for N in sizes:
                assert discrepancy_estimate(system, N) == discrepancy_oracle(system, N)


def test_discrepancy_all_through_256_bit_tier_equals_oracle():
    always = lambda x, ns, grid: np.ones(len(x), dtype=bool)  # noqa: E731
    for system, N, grid in ((_sys([3], 2, 2), 3000, 10), (_sys([3, 5], 2, 4), 2500, 48),
                            (_sys([3, 5, 7], 2, 8), 4200, None), (_sys([3], 2, 2), 4, 2)):
        with mock.patch.object(equidist, "_straddles", always):
            estimate = discrepancy_estimate(system, N, grid=grid)
        assert estimate == discrepancy_oracle(system, N, grid)


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(0, 2**64 - 1), st.sampled_from([2, 3, 10, 48, 1024, 2**31 + 11, 2**32 - 1]),
       st.booleans())
def test_bin_is_exact(x, grid, top):
    carry = grid - 1 if top else 0
    got = int(_bin(np.array([x], dtype=np.uint64), grid, carry)[0])
    assert got == (x * grid + carry) >> 64


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(0, 2), st.sampled_from([2, 3, 10, 48]), st.integers(0, 47),
       st.sampled_from([-2, -1, 0, 1]), st.sampled_from(["ones", "zeros", "random"]),
       st.integers(0, 2**192 - 1))
def test_box_counts_exact_next_to_bin_edges(k, grid, edge, shift, low, rand_low):
    # theta is built so that point n0 (odd) has its true top 64 bits
    # x + carry just around a bin edge; low bits all ones make the dropped
    # carry the largest possible, n0 - 1
    n0 = 2 * k + 1
    theta_low = {"ones": 2**192 - 1, "zeros": 0, "random": rand_low}[low]
    carry = n0 * theta_low >> 192
    edge_value = -(-(edge % grid) * 2**64 // grid)  # first top-64 value of bin `edge`
    theta64 = (edge_value + shift - carry) * pow(n0, -1, 2**64) % 2**64
    theta = theta64 << 192 | theta_low
    system = _sys([3], 2, 2)
    with crafted_thetas({3: theta}):
        got = _box_counts(system, 5, grid)
    assert np.array_equal(got, box_counts_oracle([theta], 5, grid))


def test_box_counts_exact_in_three_dimensions_next_to_edges():
    thetas = {3: (2**63 - 2) * pow(3, -1, 2**64) % 2**64 << 192 | (2**192 - 1),
              5: ((1 << 256) - 1), 7: 2**255 + 2**192 - 1}
    system = _sys([3, 5, 7], 2, 2)
    with crafted_thetas(thetas):
        got = _box_counts(system, 40, 2)
    assert np.array_equal(got, box_counts_oracle([thetas[3], thetas[5], thetas[7]], 40, 2))


def test_window_all_the_way_round_straddles():
    # n close to 2^64 wraps the window past x - 1 back into x's own bin
    x = np.array([3 << 62], dtype=np.uint64)
    n = np.array([2**64 - 1], dtype=np.uint64)
    assert _straddles(x, n, 2)[0]
    assert not _straddles(x, np.array([2**62 - 1], dtype=np.uint64), 2)[0]


def test_discrepancy_budget():
    system = _sys([3], 2, 2)
    with pytest.raises(BudgetExceededError):
        discrepancy_estimate(system, 2001, budget=2000)
    assert discrepancy_estimate(system, 2000, budget=2000) == discrepancy_oracle(system, 2000)


# --- lattice: meet in the middle against the box scan -----------------------------------


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 3).flatmap(systems), st.integers(1, 12))
def test_lattice_equals_box_scan(system, M):
    if system.r == 3:
        M = min(M, 8)
    result = lattice_min_combination(system, M)
    assert (result.min_norm, result.argmin) == lattice_oracle(system, M)
    assert result.vectors_scanned == (2 * M + 1) ** system.r - 1


def test_lattice_equals_box_scan_on_bench_systems():
    for bases, Ls, M in BENCH_LATTICE:
        for L in Ls:
            ell = min(e for e in (2, 5, 7) if L % e == 0)
            system = _sys(map(int, bases.split(",")), ell, L)
            result = lattice_min_combination(system, M)
            assert (result.min_norm, result.argmin) == lattice_oracle(system, M)


def test_lattice_ties_and_zero_vector():
    # r = 1: m and -m always tie, the negative one is first
    result = lattice_min_combination(_sys([3], 2, 2), 9)
    assert result.argmin[0] < 0
    assert (result.min_norm, result.argmin) == lattice_oracle(_sys([3], 2, 2), 9)
    # crafted thetas with many equal sums: a quarter turn and a half turn
    for values, r in (({3: 2**254}, 1), ({3: 2**255, 5: 2**255}, 2),
                      ({3: 2**254 - 1, 5: 2**254}, 2), ({3: 2**254 + 1, 5: 2**254}, 2),
                      ({3: 2**255, 5: 2**254, 7: 2**254 + 3}, 3)):
        system = _sys([3, 5, 7][:r], 2, 2)
        with crafted_thetas(values):
            for M in (1, 2, 3, 5, 6):
                result = lattice_min_combination(system, M)
                assert (result.min_norm, result.argmin) == lattice_oracle(system, M)
                assert any(result.argmin)


def test_lattice_two_dimensions_large_box():
    system = _sys([2, 3], 5, 5)
    result = lattice_min_combination(system, 3000, budget=10**8)
    assert result.vectors_scanned == 6001**2 - 1
    value = sum(m * math.log(5) / math.log(g) for m, g in zip(result.argmin, (2, 3)))
    assert result.min_norm == pytest.approx(abs(value - round(value)), abs=1e-9)
    assert result.min_norm <= lattice_min_combination(system, 300, budget=10**8).min_norm
