"""Search tests.

The master oracle is the brute-force filter: walk every integer below the
limit and keep those whose digits are all small in every base. The odometer
enumerator must agree with it exactly, at every tested limit. The pruned
digit-tree search is also checked against the odometer scan it replaced,
and its checkpointed slices against the odometer slice loop, both kept here
as references where they can run. The Graham census runs on the same walk;
its oracles are the numpy Kummer sieve it used to be and the scalar
first-carry test.
"""

import hashlib
import json
import math
import os
import random
import tempfile
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smalldigits import (
    BaseSpec,
    BudgetExceededError,
    SearchSpec,
    central_binom_valuation,
    density_vs_heuristic,
    enumerate_small,
    graham_census,
    graham_split,
    large_digit_count,
    multi_base_search,
    resumable_search,
    to_digits,
)
from smalldigits import digits, kummer, searcher

HALF = Fraction(1, 2)


# --- oracle ---------------------------------------------------------------------


def brute_force_hits(specs, limit):
    out = []
    for n in range(limit):
        if all(
            all(d <= s.max_small_digit for d in to_digits(n, s.g).digits) for s in specs
        ):
            out.append(n)
    return out


def odometer_hits(search):
    """The driver odometer filter: remap every driver-small candidate below
    the limit and keep those small in every other base."""
    driver = search.specs[search.resolved_driver()]
    others = [s for s in search.specs if s.g != driver.g]
    return [
        n for n in enumerate_small(driver, search.limit)
        if all(large_digit_count(n, s) == 0 for s in others)
    ]


def odometer_decisions(search):
    """(candidate, is it a hit) for every driver candidate, in odometer order."""
    driver = search.specs[search.resolved_driver()]
    others = [s for s in search.specs if s.g != driver.g]
    return [
        (n, all(large_digit_count(n, s) == 0 for s in others))
        for n in enumerate_small(driver, search.limit)
    ]


def odometer_slices(decisions, sizes):
    """The slice loop of the checkpointed search before it walked the digit
    tree: each call decides the candidates from the cursor on, one at a
    time, at most `size` of them (None: no cap), and finishes when it finds
    the candidate list exhausted with budget to spare. Yields the cursor and
    the finished flag after each call."""
    cursor, finished = 0, False
    for size in sizes:
        examined = 0
        while not finished and (size is None or examined < size):
            if cursor == len(decisions):
                finished = True
                break
            cursor += 1
            examined += 1
        yield cursor, finished


def odometer_state(search, decisions, cursor, finished):
    """The checkpoint the odometer loop writes at a cursor, and its hits."""
    hits = [n for n, hit in decisions[:cursor] if hit]
    data = "".join(f"{n}\n" for n in hits).encode()
    state = {
        "format": 2,
        "search": search.to_json_dict(),
        "cursor": cursor,
        "finished": finished,
        "hits_bytes": len(data),
        "hits_digest": hashlib.sha256(data).hexdigest(),
    }
    return state, hits


# --- single-base enumeration ----------------------------------------------------


def test_enumerate_small_frozen_prefix():
    spec = BaseSpec(5, HALF)
    assert list(enumerate_small(spec, 25)) == [0, 1, 2, 5, 6, 7, 10, 11, 12]


def test_enumerate_small_equals_brute_force():
    for g, kappa in [(3, HALF), (5, HALF), (7, Fraction(2, 7)), (10, Fraction(3, 10))]:
        spec = BaseSpec(g, kappa)
        limit = g**4 + g**2 + 3
        assert list(enumerate_small(spec, limit)) == brute_force_hits([spec], limit)


def test_enumerate_small_is_sorted_and_within_limit():
    spec = BaseSpec(7, HALF)
    hits = list(enumerate_small(spec, 7**5))
    assert hits == sorted(hits)
    assert hits[-1] < 7**5


def test_enumerate_small_alphabet_one():
    # kappa <= 1/g leaves only the digit 0; the sole small integer is 0
    spec = BaseSpec(3, Fraction(1, 3))
    assert list(enumerate_small(spec, 10**6)) == [0]


def test_pomerance_exact_count_small_grid():
    for g in (3, 5, 8, 11):
        for R in (1, 2, 3):
            spec = BaseSpec(g, HALF)
            count = sum(1 for _ in enumerate_small(spec, g**R))
            assert count == math.ceil(g / 2) ** R


# --- multi-base search ------------------------------------------------------------


def test_multi_base_search_equals_brute_force():
    cases = [
        [(3, HALF), (5, HALF)],
        [(3, Fraction(2, 3)), (5, Fraction(2, 5))],
        [(3, HALF), (5, HALF), (7, HALF)],
        [(4, Fraction(1, 4)), (9, Fraction(1, 3))],
    ]
    for pairs in cases:
        specs = tuple(BaseSpec(g, k) for g, k in pairs)
        search = SearchSpec(specs, 20_000)
        assert multi_base_search(search) == brute_force_hits(specs, 20_000)


def test_search_limit_one_contains_zero():
    search = SearchSpec((BaseSpec(3, HALF), BaseSpec(5, HALF)), 1)
    assert multi_base_search(search) == [0]


def test_search_kappa_one_keeps_everything():
    specs = (BaseSpec(3, Fraction(1)), BaseSpec(5, Fraction(1)))
    assert multi_base_search(SearchSpec(specs, 500)) == list(range(500))


def test_driver_defaults_to_smallest_alphabet():
    specs = (BaseSpec(9, HALF), BaseSpec(3, HALF))  # alphabets 5 and 2
    assert SearchSpec(specs, 100).resolved_driver() == 1
    assert SearchSpec(specs, 100, driver=0).resolved_driver() == 0


def test_driver_override_same_hits():
    specs = (BaseSpec(3, HALF), BaseSpec(5, HALF))
    expected = multi_base_search(SearchSpec(specs, 30_000))
    assert multi_base_search(SearchSpec(specs, 30_000, driver=1)) == expected


@st.composite
def search_specs(draw, max_limit=30_000):
    bases = draw(st.lists(st.integers(2, 16), min_size=1, max_size=4, unique=True))
    specs = tuple(BaseSpec(g, Fraction(draw(st.integers(1, g)), g)) for g in bases)
    driver = draw(st.one_of(st.none(), st.integers(0, len(specs) - 1)))
    return SearchSpec(specs, draw(st.integers(1, max_limit)), driver)


@settings(max_examples=150, deadline=None, database=None)
@given(search_specs())
def test_pruned_search_equals_odometer(search):
    assert multi_base_search(search) == odometer_hits(search)


def test_pruned_search_matches_odometer_on_anchor_specs():
    cases = [
        ([(3, HALF), (5, HALF), (7, HALF)], 3 * 10**5),
        ([(3, HALF), (5, Fraction(2, 5)), (7, Fraction(3, 7))], 3 * 10**5),
        ([(3, Fraction(1)), (7, Fraction(4, 7))], 5 * 10**4),
        ([(5, Fraction(2, 5)), (7, Fraction(3, 7))], 10**6),
    ]
    for pairs, limit in cases:
        specs = tuple(BaseSpec(g, k) for g, k in pairs)
        for driver in range(len(specs)):
            search = SearchSpec(specs, limit, driver)
            assert multi_base_search(search) == odometer_hits(search)


def test_pruned_search_reaches_far_beyond_the_odometer():
    # about 4*10^12 driver candidates lie below 10^20; the digit tree
    # visits a few thousand nodes
    specs = tuple(BaseSpec(p, HALF) for p in (3, 5, 7))
    hits = multi_base_search(SearchSpec(specs, 10**20), budget=10**4)
    assert len(hits) == 62
    assert hits == sorted(set(hits))
    assert hits[:5] == [0, 1, 10, 756, 757]
    assert all(graham_split(n, (3, 5, 7)).n2 == 1 for n in hits if n)
    assert all(large_digit_count(n, s) == 0 for n in hits for s in specs)


def test_search_budget_exhausts():
    search = SearchSpec((BaseSpec(3, HALF), BaseSpec(5, HALF)), 10**12)
    with pytest.raises(BudgetExceededError):
        multi_base_search(search, budget=50)


def test_search_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec((), 100)
    with pytest.raises(ValueError):
        SearchSpec((BaseSpec(3, HALF),), 0)
    with pytest.raises(ValueError):
        SearchSpec((BaseSpec(3, HALF),), 10, driver=2)


# --- resumable search -------------------------------------------------------------


def test_resumable_search_round_trip(tmp_path):
    specs = (BaseSpec(3, HALF), BaseSpec(5, HALF))
    search = SearchSpec(specs, 40_000)
    expected = multi_base_search(search)
    ckpt, hits_file = tmp_path / "state.json", tmp_path / "hits.txt"

    hits, finished = resumable_search(search, ckpt, hits_file, max_candidates=40)
    assert not finished
    state = json.loads(ckpt.read_text())
    assert state["format"] == 2 and not state["finished"]
    assert state["hits_bytes"] == hits_file.stat().st_size

    rounds = 0
    while not finished:
        hits, finished = resumable_search(search, ckpt, hits_file, max_candidates=500)
        rounds += 1
        assert rounds < 200
    assert hits == expected
    assert [int(line) for line in hits_file.read_text().split()] == expected

    # a finished checkpoint resumes to a no-op with the same answer
    hits_again, finished_again = resumable_search(search, ckpt, hits_file)
    assert finished_again and hits_again == expected


def test_resumable_search_one_shot_matches(tmp_path):
    specs = (BaseSpec(3, Fraction(2, 3)), BaseSpec(5, Fraction(2, 5)))
    search = SearchSpec(specs, 60_000)
    hits, finished = resumable_search(search, tmp_path / "c.json", tmp_path / "h.txt")
    assert finished
    assert hits == multi_base_search(search)


def test_resumable_search_never_checks_a_kappa_one_base(tmp_path, monkeypatch):
    search = SearchSpec((BaseSpec(3, Fraction(1)), BaseSpec(7, Fraction(4, 7))), 20_000, driver=1)
    checked = []

    def recording(n, spec):
        checked.append(spec.g)
        return large_digit_count(n, spec)

    monkeypatch.setattr(searcher, "large_digit_count", recording)
    hits, finished = resumable_search(search, tmp_path / "c.json", tmp_path / "h.txt")
    assert finished
    assert hits == multi_base_search(search) == odometer_hits(search)
    assert checked == []  # the walk tests digits inline, and no base here can prune


def test_walk_makes_no_large_digit_count_call(tmp_path, monkeypatch):
    def forbidden(n, spec):
        raise AssertionError("the walk called large_digit_count")

    monkeypatch.setattr(searcher, "large_digit_count", forbidden)
    monkeypatch.setattr(digits, "large_digit_count", forbidden)
    specs = (BaseSpec(3, HALF), BaseSpec(5, Fraction(2, 5)), BaseSpec(7, HALF))
    search = SearchSpec(specs, 10**12)
    hits = multi_base_search(search)
    assert resumable_search(search, tmp_path / "c.json", tmp_path / "h.txt",
                            checkpoint_every=1000) == (hits, True)
    monkeypatch.undo()
    assert all(large_digit_count(n, s) == 0 for n in hits for s in specs)


def test_walk_prunes_when_only_the_top_shared_digit_is_large():
    # Driver base 2 with kappa = 1, so the odometer index of n is n. The
    # node [600, 607] shares the decimal digits 60: the 0 is small and only
    # the most significant one, 6, is large (kappa = 1/2 in base 10), so the
    # walk must skip the node in one step instead of visiting its leaves.
    search = SearchSpec((BaseSpec(2, Fraction(1)), BaseSpec(10, HALF)), 608, driver=0)
    steps = list(searcher._walk(search))
    ends = [end for end, _ in steps]
    assert steps[ends.index(600) + 1:] == [(608, None)]
    # above 512 the walk visits the aligned spans [512, 575], [576, 591],
    # [592, 599] and [600, 607], whose shared decimal parts 5, 5, 59 and 60
    # each hold a large digit: no leaf is reached
    assert [end for end, n in steps if end > 512] == [576, 592, 600, 608]
    assert multi_base_search(search) == brute_force_hits(search.specs, 608)


def test_resumable_search_drops_lines_written_after_the_checkpoint(tmp_path):
    # a writer killed between checkpoints leaves flushed lines past the
    # cursor, the last one possibly cut short; resuming must discard them
    search = SearchSpec((BaseSpec(3, HALF), BaseSpec(5, HALF)), 40_000)
    clean_ckpt, clean_hits = tmp_path / "clean.json", tmp_path / "clean.txt"
    expected, finished = resumable_search(search, clean_ckpt, clean_hits)
    assert finished

    ckpt, hits_file = tmp_path / "c.json", tmp_path / "h.txt"
    hits, finished = resumable_search(search, ckpt, hits_file, max_candidates=60)
    assert not finished
    later = [n for n in expected if n > hits[-1]]
    with open(hits_file, "a") as fh:
        fh.write("".join(f"{n}\n" for n in later[:5]) + str(later[5])[:2])
    while not finished:
        hits, finished = resumable_search(search, ckpt, hits_file, max_candidates=500)
    assert hits == expected
    assert hits_file.read_bytes() == clean_hits.read_bytes()


def test_resumable_search_rejects_mismatched_checkpoint(tmp_path):
    ckpt, hits_file = tmp_path / "c.json", tmp_path / "h.txt"
    resumable_search(SearchSpec((BaseSpec(3, HALF),), 100), ckpt, hits_file)
    with pytest.raises(ValueError):
        resumable_search(SearchSpec((BaseSpec(5, HALF),), 100), ckpt, hits_file)


def run_slices(search, sizes, every, tmp):
    """Call resumable_search once per slice size. Yields, per call, the
    returned (hits, finished), the final checkpoint and every checkpoint
    state written during the call."""
    ckpt, hits_file = os.path.join(tmp, "c.json"), os.path.join(tmp, "h.txt")
    written = []
    real_replace = os.replace

    def recording(src, dst):
        with open(src) as fh:
            written.append(json.load(fh))
        real_replace(src, dst)

    with mock.patch.object(searcher.os, "replace", recording):
        for size in sizes:
            written.clear()
            returned = resumable_search(search, ckpt, hits_file, size, every)
            with open(ckpt) as fh:
                yield returned, json.load(fh), list(written)


SLICE_SIZES = st.lists(
    st.one_of(st.none(), st.sampled_from([0, 1, 7, 48, 500]), st.integers(0, 3000)),
    min_size=1, max_size=6,
)


@settings(max_examples=120, deadline=None, database=None)
@given(search_specs(), SLICE_SIZES)
def test_tree_slices_equal_odometer_slices(search, sizes):
    decisions = odometer_decisions(search)
    with tempfile.TemporaryDirectory() as tmp:
        for (cursor, finished), (returned, final, _) in zip(
            odometer_slices(decisions, sizes), run_slices(search, sizes, 10_000, tmp)
        ):
            state, hits = odometer_state(search, decisions, cursor, finished)
            assert (returned, final) == ((hits, finished), state)


@settings(max_examples=80, deadline=None, database=None)
@given(search_specs(max_limit=3000), SLICE_SIZES, st.integers(1, 60))
def test_checkpoints_written_on_the_way_are_odometer_checkpoints(search, sizes, every):
    # A checkpoint written before the end of a call sits at a multiple of
    # `every` counted from the call's start, as in the odometer loop, and
    # matches the hits below its cursor, so a run killed there resumes
    # correctly. A pruned subtree that passes several multiples writes one.
    decisions = odometer_decisions(search)
    with tempfile.TemporaryDirectory() as tmp:
        start = 0
        for (cursor, finished), (_, final, written) in zip(
            odometer_slices(decisions, sizes), run_slices(search, sizes, every, tmp)
        ):
            if written:  # a finished checkpoint is not written again
                assert written[-1] == final
            marks = [w["cursor"] for w in written[:-1]]
            assert marks == sorted(set(marks))
            last_multiple = start + (cursor - start) // every * every
            assert marks[-1:] == ([last_multiple] if last_multiple > start else [])
            for w in written[:-1]:
                assert w["cursor"] > start and (w["cursor"] - start) % every == 0
                assert w == odometer_state(search, decisions, w["cursor"], False)[0]
            start = cursor


def test_tree_slices_equal_odometer_slices_on_the_campaign_specs():
    # every driver candidate is a hit, as in the bench campaigns: the slices
    # end on leaves, never inside a pruned subtree
    search = SearchSpec((BaseSpec(3, Fraction(1)), BaseSpec(7, Fraction(4, 7))), 4000, driver=1)
    decisions = odometer_decisions(search)
    assert all(hit for _, hit in decisions)
    sizes = [48] * (len(decisions) // 48 + 2)
    with tempfile.TemporaryDirectory() as tmp:
        for (cursor, finished), (returned, final, _) in zip(
            odometer_slices(decisions, sizes), run_slices(search, sizes, 10_000, tmp)
        ):
            state, hits = odometer_state(search, decisions, cursor, finished)
            assert (returned, final) == ((hits, finished), state)


def test_one_symbol_driver_follows_the_slice_rule(tmp_path):
    # kappa = 1/3: only the digit 0 is small in base 3, so 0 is the one
    # driver candidate
    search = SearchSpec((BaseSpec(3, Fraction(1, 3)), BaseSpec(5, HALF)), 1000)
    ckpt, hits_file = tmp_path / "c.json", tmp_path / "h.txt"
    assert resumable_search(search, ckpt, hits_file, max_candidates=0) == ([], False)
    assert json.loads(ckpt.read_text())["cursor"] == 0
    assert resumable_search(search, ckpt, hits_file, max_candidates=1) == ([0], False)
    assert json.loads(ckpt.read_text())["cursor"] == 1
    assert resumable_search(search, ckpt, hits_file, max_candidates=1) == ([0], True)
    assert hits_file.read_text() == "0\n"
    one_shot = resumable_search(search, tmp_path / "c2.json", tmp_path / "h2.txt")
    assert one_shot == ([0], True) == (multi_base_search(search), True)


def test_walk_ends_at_the_candidate_count():
    # a pruned subtree reaching past the limit advances the cursor only to
    # the number of driver candidates below the limit
    rng = random.Random(5)
    for _ in range(300):
        bases = rng.sample(range(2, 14), rng.randint(1, 3))
        search = SearchSpec(tuple(BaseSpec(g, Fraction(rng.randint(1, g), g)) for g in bases),
                            rng.choice([1, 2, bases[0], bases[0] ** 2, rng.randint(1, 5000)]), 0)
        count = sum(1 for _ in enumerate_small(search.specs[0], search.limit))
        assert [end for end, _ in searcher._walk(search)][-1:] == [count]


def test_sliced_campaign_to_10_12_equals_one_shot(tmp_path):
    # 3,5,7 below 10^12: 50,331,648 driver candidates, 17 hits
    search = SearchSpec(tuple(BaseSpec(p, HALF) for p in (3, 5, 7)), 10**12)
    total = 50_331_648
    ckpt, hits_file = tmp_path / "c.json", tmp_path / "h.txt"
    started = time.perf_counter()
    for i in range(32):
        hits, finished = resumable_search(
            search, ckpt, hits_file, max_candidates=total // 32 + 1, checkpoint_every=1000
        )
        assert finished == (i == 31)
    elapsed = time.perf_counter() - started
    assert hits == multi_base_search(search)
    assert len(hits) == 17
    assert json.loads(ckpt.read_text())["cursor"] == total
    assert elapsed < 1  # the odometer loop would take minutes


def test_resumable_search_rejects_bad_slice_inputs(tmp_path):
    search = SearchSpec((BaseSpec(3, HALF),), 100)
    with pytest.raises(ValueError):
        resumable_search(search, tmp_path / "c.json", tmp_path / "h.txt", checkpoint_every=0)
    with pytest.raises(ValueError):
        resumable_search(search, tmp_path / "c.json", tmp_path / "h.txt", max_candidates=-1)
    assert not (tmp_path / "c.json").exists()


# --- census and duality -----------------------------------------------------------


def no_carry(n, p):
    """The scalar first-carry test: True iff adding n to itself in base p
    carries nowhere, i.e. p does not divide C(2n, n) (Kummer). The first
    carry comes at the lowest digit d with 2d >= p."""
    while n:
        n, d = divmod(n, p)
        if 2 * d >= p:
            return False
    return True


def scalar_census(lo, hi, primes):
    return [n for n in range(lo, hi) if all(no_carry(n, p) for p in primes)]


def sieve_census(lo, hi, primes, block=1 << 13):
    """The n in [lo, hi) that no prime's first-carry test drops, ascending:
    the numpy Kummer sieve that graham_census ran on before it moved onto
    the walk. It takes int64 blocks of `block` n; each prime peels the
    digits of the survivors of the previous ones only, one divmod per digit
    position, and drops an n at its first digit d with 2d >= p. hi - 1 must
    fit in int64."""
    survivors = []
    for start in range(lo, hi, block):
        end = min(start + block, hi)
        n = np.arange(start, end, dtype=np.int64)
        for p in primes:
            half = (p - 1) // 2  # the largest digit d with 2d < p
            if p >= end:  # each n is one base-p digit (p may not fit in int64)
                n = n[n <= min(half, end - 1)]
                continue
            q, top = n, end - 1  # the high parts still to peel, and the largest
            while top:
                q, d = np.divmod(q, p)
                small = d <= half
                n, q = n[small], q[small]
                top //= p
        survivors += n.tolist()
    return survivors


CENSUS_PRIMES = (2, 3, 5, 7, 11, 13, 17)


@st.composite
def census_cases(draw):
    primes = tuple(draw(st.lists(st.sampled_from(CENSUS_PRIMES), min_size=1, max_size=4, unique=True)))
    block = draw(st.sampled_from([1, 2, 7, 64, 1 << 13]))
    edge = st.builds(lambda k, e: max(1, k * block + e), st.integers(1, 4), st.integers(-1, 1))
    limit = draw(st.one_of(edge, st.integers(1, min(3 * 10**5, 500 * block))))
    return primes, block, limit


@settings(max_examples=60, deadline=None, database=None)
@given(census_cases())
def test_census_sieve_equals_scalar_oracle(case):
    primes, block, limit = case
    hits = [s.n for s in graham_census(limit, primes, budget=limit)]
    assert hits == sieve_census(1, limit + 1, primes, block) == scalar_census(1, limit + 1, primes)


def test_census_sieve_at_every_block_edge():
    for primes in ((3, 5, 7), (5,), (2, 3), (11, 13), (17, 3)):
        for block in (1, 2, 7):
            for limit in range(1, 6 * block + 2):
                assert sieve_census(1, limit + 1, primes, block) == scalar_census(1, limit + 1, primes)


def test_census_runs_beyond_int64():
    limit = 2**63 + 1000
    hits = [s.n for s in graham_census(limit, budget=2**64)]
    assert hits and hits[-1] <= limit
    assert all(no_carry(n, p) for n in hits for p in (3, 5, 7))
    assert [n for n in hits if n <= 3 * 10**5] == sieve_census(1, 3 * 10**5 + 1, (3, 5, 7))
    with pytest.raises(BudgetExceededError):
        graham_census(limit)  # the default budget stops it
    # the oracle is exact at the top of the int64 range, with a prime inside
    # int64 (two base-p digits) and one beyond it (one digit, never divided)
    top = 2**63 - 1
    primes = (2**61 - 1, 2**89 - 1)
    survivors = sieve_census(top - 200, top + 1, primes)
    assert survivors == scalar_census(top - 200, top + 1, primes) and survivors
    small_p = sieve_census(1, 100, (101,))
    assert small_p == scalar_census(1, 100, (101,)) == list(range(1, 51))


def test_graham_census_frozen_thousand():
    # Frozen against a direct math.comb scan: every 1 <= n <= 1000 with
    # C(2n,n) coprime to 105. 757 rides along with 756 because the +1 only
    # bumps trailing digits ((1001001)_3, (11012)_5, (2131)_7, all small).
    hits = graham_census(1000)
    assert [s.n for s in hits] == [1, 10, 756, 757]
    assert all(s.n2 == 1 for s in hits)


def test_graham_census_limit_one():
    assert [s.n for s in graham_census(1)] == [1]


def test_census_duality_with_search():
    # coprimality of C(2n,n) to 3*5*7 is exactly the half-threshold digit
    # condition in bases 3, 5, 7 (carry counting). The census runs on the
    # search's walk, so the independent route is the sieve oracle.
    limit = 10**6
    assert [s.n for s in graham_census(limit)] == sieve_census(1, limit + 1, (3, 5, 7))


def test_census_budget():
    with pytest.raises(BudgetExceededError):
        graham_census(10**7, budget=100)


def test_census_equals_full_valuation_scan():
    # the loop the early-exit census replaced: every valuation, every n
    for primes in ((3, 5, 7), (2,), (5,), (11, 13), (3, 17), (7, 3), ()):
        expected = [graham_split(n, primes) for n in range(1, 3001)
                    if all(central_binom_valuation(n, p) == 0 for p in primes)]
        assert graham_census(3000, primes) == expected


def test_census_tests_each_prime_once_up_front():
    real = kummer.is_prime
    with mock.patch.object(kummer, "is_prime", side_effect=real) as spy:
        hits = graham_census(2000, (3, 5, 7))
    # three up-front checks, then graham_split's own check per hit and prime
    assert spy.call_count == 3 + 3 * len(hits)
    with pytest.raises(ValueError, match="4 is not prime"):
        graham_census(1000, (2, 4))  # no n gets past 2, so the scan never meets 4
    with pytest.raises(ValueError, match="primes must be distinct"):
        graham_census(1000, (2, 2))  # no n gets past 2 either


def test_census_rows_match_graham_split():
    for s in graham_census(1000):
        direct = graham_split(s.n, (3, 5, 7))
        assert direct.valuations == s.valuations and direct.n2 == s.n2


# --- density experiment -----------------------------------------------------------


def test_density_heuristic_exponent_frozen():
    specs = (BaseSpec(3, HALF), BaseSpec(5, HALF))
    report = density_vs_heuristic(specs, [10**2, 10**3, 10**4, 10**5])
    assert report.heuristic_exponent == pytest.approx(0.3135359480574427, abs=1e-12)
    assert report.counts == tuple(
        len(brute_force_hits(specs, t)) for t in (10**2, 10**3, 10**4, 10**5)
    )
    assert report.counts == tuple(sorted(report.counts))
    assert report.empirical_exponent > 0


def test_density_thresholds_validated():
    specs = (BaseSpec(3, HALF),)
    with pytest.raises(ValueError):
        density_vs_heuristic(specs, [])
    with pytest.raises(BudgetExceededError):
        density_vs_heuristic(specs, [10**9], budget=10**3)
