"""Digit bookkeeping tests.

The oracle for radix conversion is the standard library itself: format()
for bases 2/8/16 and int(text, g) for the inverse. Everything else is
checked against brute-force digit filters.
"""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smalldigits import (
    BaseSpec,
    DigitVector,
    from_digits,
    large_digit_count,
    multi_base_profile,
    render_digit_grid,
    to_digits,
)
from smalldigits.digits import _chunk_tables, render_many, window_positions


# --- oracles -------------------------------------------------------------------


def _stdlib_digits(n: int, g: int) -> list[int]:
    """LSB-first digits via string formatting, independent of the library."""
    if g == 2:
        text = format(n, "b")
    elif g == 8:
        text = format(n, "o")
    elif g == 16:
        text = format(n, "x")
    else:
        raise ValueError(g)
    return [int(c, 16) for c in reversed(text)] if n else []


def test_to_digits_matches_stdlib_formatting():
    rng = random.Random(20260819)
    for _ in range(300):
        n = rng.randrange(0, 10**rng.randrange(1, 30))
        for g in (2, 8, 16):
            assert list(to_digits(n, g).digits) == _stdlib_digits(n, g)


def test_from_digits_matches_int_parsing():
    rng = random.Random(42)
    for _ in range(200):
        g = rng.choice([2, 3, 5, 7, 10, 16])
        length = rng.randrange(1, 40)
        digits = [rng.randrange(g) for _ in range(length)]
        while digits and digits[-1] == 0:
            digits.pop()
        dv = DigitVector(g, tuple(digits))
        if g <= 10:
            text = "".join(str(d) for d in reversed(digits)) or "0"
            assert from_digits(dv) == int(text, g)
        assert to_digits(from_digits(dv), g).digits == dv.digits


def test_round_trip_small_and_large():
    for n in range(0, 2000):
        for g in (2, 3, 5, 7, 10):
            assert from_digits(to_digits(n, g)) == n
    big = 3**200 + 5**120 + 17
    for g in (3, 5, 64):
        assert from_digits(to_digits(big, g)) == big


# --- zero and rendering --------------------------------------------------------


def test_zero_has_empty_digit_tuple():
    dv = to_digits(0, 7)
    assert dv.digits == ()
    assert len(dv) == 0
    assert dv.render() == "(0)_7"
    assert dv.digit_at(0) == 0 and dv.digit_at(25) == 0


def test_render_worked_example():
    assert to_digits(756, 3).render() == "(1001000)_3"
    assert to_digits(756, 5).render() == "(11011)_5"
    assert to_digits(756, 7).render() == "(2130)_7"


def test_render_wide_base_uses_commas():
    assert to_digits(255, 16).render() == "(15,15)_16"
    assert to_digits(64, 64).render() == "(1,0)_64"


def per_digit_render(n: int, g: int) -> str:
    """The renderer's oracle: divmod out every digit and join them one by one."""
    digits = []
    while n:
        n, d = divmod(n, g)
        digits.append(str(d))
    body = ("" if g <= 10 else ",").join(reversed(digits)) or "0"
    return f"({body})_{g}"


@st.composite
def render_inputs(draw):
    """A base on either side of 512 and values up to 10^60 at its digit and
    chunk edges: 0, g^j - 1, g^j and (g^k)^j for the renderer's chunk size
    g^k, plus random values, unsorted and with repeats."""
    g = draw(st.one_of(st.integers(2, 30), st.integers(500, 525), st.integers(2, 600)))
    size = g
    while size * g <= 512:
        size *= g
    limit = 10**60

    def powers(base):
        e = 0
        while base ** (e + 1) <= limit:
            e += 1
        return st.integers(0, e).map(lambda e: base**e)

    edge = st.one_of(powers(g), powers(g).map(lambda p: p - 1), powers(size),
                     powers(size).map(lambda p: p - 1))
    ns = draw(st.lists(st.one_of(edge, st.integers(0, limit)), max_size=12))
    ns += draw(st.lists(st.sampled_from(ns), max_size=4)) if ns else []
    return draw(st.permutations(ns)), g


@settings(max_examples=400, deadline=None, database=None)
@given(render_inputs())
def test_render_many_equals_per_digit_join(case):
    ns, g = case
    assert render_many(ns, g) == [per_digit_render(n, g) for n in ns]


def test_render_many_and_digit_vector_agree_at_chunk_boundaries():
    for g in (2, 3, 7, 8, 10, 11, 22, 23, 511, 512, 513, 600):
        size = len(_chunk_tables(g)[0]) if g <= 512 else g
        ns = [0, 10**60]
        for j in range(1, 5):
            ns += [size**j - 1, size**j, size**j + 1, g**j - 1, g**j]
        assert render_many(ns, g) == [per_digit_render(n, g) for n in ns]
        assert [to_digits(n, g).render() for n in ns] == render_many(ns, g)


def test_render_tables_stay_within_512_entries():
    for g in range(2, 513):
        padded, top = _chunk_tables(g)
        assert len(padded) == len(top) <= 512 < len(padded) * g
    _chunk_tables.cache_clear()
    assert render_many([513**3 + 5, 0], 513) == ["(1,0,0,5)_513", "(0)_513"]
    assert render_many([600 * 599], 600) == ["(599,0)_600"]
    assert _chunk_tables.cache_info().currsize == 0  # no table above base 512


def test_render_many_rejects_bad_input():
    with pytest.raises(ValueError):
        render_many([3, -1], 10)
    with pytest.raises(ValueError):
        render_many([3], 1)
    assert render_many([], 5) == []


def test_to_digits_rejects_bad_base():
    with pytest.raises(ValueError):
        to_digits(5, 1)
    with pytest.raises(ValueError):
        to_digits(-1, 3)


# --- smallness thresholds ------------------------------------------------------


def test_base_spec_alphabet_boundaries():
    # strict inequality: kappa*g an integer means that digit is already large
    s4 = BaseSpec(4, Fraction(1, 2))
    assert s4.alphabet_size == 2 and s4.max_small_digit == 1
    assert not s4.is_large(1) and s4.is_large(2)
    s5 = BaseSpec(5, Fraction(1, 2))
    assert s5.alphabet_size == 3 and s5.max_small_digit == 2
    assert not s5.is_large(2) and s5.is_large(3)
    s3 = BaseSpec(3, Fraction(2, 3))
    assert s3.alphabet_size == 2  # digits {0,1}: 2 < 2 fails


def test_max_small_digit_is_ceil_kappa_g_minus_one():
    for g in range(2, 65):
        for kappa in {Fraction(j, g) for j in range(1, g + 1)} | {Fraction(j, 64) for j in range(1, 65)}:
            spec = BaseSpec(g, kappa)
            assert spec.max_small_digit == math.ceil(kappa * g) - 1
            assert spec.alphabet_size == spec.max_small_digit + 1


def test_cached_max_small_digit_leaves_eq_hash_repr_alone():
    a, b = BaseSpec(7, Fraction(3, 7)), BaseSpec(7, "3/7")
    before = (repr(a), hash(a))
    assert "max_small_digit" not in vars(a)
    assert a.max_small_digit == 2
    assert vars(a)["max_small_digit"] == 2  # computed once, then read back
    assert (repr(a), hash(a)) == before == (repr(b), hash(b))
    assert a == b and b == a and {a: 1}[b] == 1
    assert a != BaseSpec(7, Fraction(4, 7))
    assert [f.name for f in dataclasses.fields(a)] == ["g", "kappa"]
    assert a.to_json_dict() == b.to_json_dict() == {"g": 7, "kappa": "3/7"}
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.g = 5


def test_base_spec_rejects_float_kappa():
    with pytest.raises(TypeError):
        BaseSpec(5, 0.5)


def test_base_spec_kappa_range():
    with pytest.raises(ValueError):
        BaseSpec(5, Fraction(0))
    with pytest.raises(ValueError):
        BaseSpec(5, Fraction(3, 2))
    BaseSpec(5, Fraction(1))  # kappa = 1 allowed: every digit small


def test_large_digit_count_brute_force():
    spec = BaseSpec(7, Fraction(1, 2))
    for n in range(1500):
        expected = sum(1 for d in to_digits(n, 7).digits if d >= 3.5)
        assert large_digit_count(n, spec) == expected


def test_large_digit_count_strictness_at_half():
    # base 6, kappa 1/2: threshold exactly 3; digit 3 must count as large
    spec = BaseSpec(6, Fraction(1, 2))
    assert large_digit_count(3, spec) == 1
    assert large_digit_count(2, spec) == 0


# --- windows, profiles, grids --------------------------------------------------


def test_window_positions_brute_force():
    for g in (2, 3, 7, 10):
        for lo in range(1, 130):
            for hi in range(lo - 1, 400, 7):
                expected = [k for k in range(12) if lo <= g**k <= hi]
                assert list(window_positions(g, lo, hi)) == expected


def test_multi_base_profile_worked_example():
    specs = (BaseSpec(3, Fraction(1, 2)), BaseSpec(5, Fraction(1, 2)), BaseSpec(7, Fraction(1, 2)))
    assert multi_base_profile(756, specs) == ((7, 0), (5, 0), (4, 0))


def test_render_digit_grid_marks_large():
    specs = (BaseSpec(3, Fraction(1, 2)), BaseSpec(5, Fraction(1, 2)))
    grid = render_digit_grid(11, specs)
    assert "[2]" in grid  # 11 = (102)_3, the 2 is large
    assert grid.splitlines()[1] == "base 5 (kappa 1/2):  2 1"
