"""Enumeration of integers whose digits are simultaneously small in several
bases, with checkpoint/resume support, density reporting and the Graham
census.

The single-base stream never filters: the m-th integer with all base-g
digits below the threshold is m written in base a = ceil(kappa*g) and
re-read in base g, which is an order-preserving bijection. Multi-base
search walks a tree over the small digits of one driver base (by default
the one with the smallest alphabet), most significant digit first, and
prunes a subtree as soon as a digit that all of its integers share in
another base is large; its cost follows the number of hits rather than the
number of driver candidates. The one-shot and the checkpointed search are
the same walk; a pruned subtree advances the checkpoint's cursor past it.
It tests the shared digits inline against each base's largest small
digit (computed once per BaseSpec) and stops at the first large one.

The Graham census (every n <= limit with C(2n, n) coprime to some primes)
is the same walk: by Kummer's theorem p does not divide C(2n, n) exactly
when every base-p digit of n is below p/2, which is the spec p:1/2.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .digits import BaseSpec, to_digits
from .digits import large_digit_count  # unused here; bench/tracer.py wraps it
from .errors import BudgetExceededError
from .kummer import GrahamSplit, _require_prime, graham_split
from .kummer import central_binom_valuation  # unused here; bench/tracer.py wraps it

_CHECKPOINT_FORMAT = 2


@dataclass(frozen=True)
class SearchSpec:
    """A simultaneous small-digit search: which bases, up to which bound.

    limit is exclusive; 0 always qualifies (its expansion is empty). driver
    picks which base's restricted odometer generates candidates; None means
    the base with the smallest alphabet (ties to the first).
    """

    specs: tuple[BaseSpec, ...]
    limit: int
    driver: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        if not self.specs:
            raise ValueError("need at least one base")
        if len({s.g for s in self.specs}) != len(self.specs):
            raise ValueError("bases must be distinct")
        if self.limit < 1:
            raise ValueError("limit must be >= 1")
        if self.driver is not None and not (0 <= self.driver < len(self.specs)):
            raise ValueError("driver index out of range")

    def resolved_driver(self) -> int:
        if self.driver is not None:
            return self.driver
        sizes = [s.alphabet_size for s in self.specs]
        return sizes.index(min(sizes))

    def to_json_dict(self) -> dict:
        return {
            "specs": [s.to_json_dict() for s in self.specs],
            "limit": self.limit,
            "driver": self.resolved_driver(),
        }


def _remap(m: int, a: int, g: int) -> int:
    """Reinterpret the base-a digits of m as base-g digits."""
    n, place = 0, 1
    while m:
        m, d = divmod(m, a)
        n += d * place
        place *= g
    return n


def enumerate_small(spec: BaseSpec, limit: int, budget: Optional[int] = None) -> Iterator[int]:
    """Yield every n in [0, limit) whose base-g digits are all small, in
    increasing order, without materializing anything.

    budget caps the number of yielded values; exceeding it raises.
    """
    if limit < 1:
        return
    a = spec.alphabet_size
    yielded = 0
    if a == 1:
        # only the empty expansion qualifies
        if budget is not None and budget < 1:
            raise BudgetExceededError("enumeration budget exhausted")
        yield 0
        return
    m = 0
    while True:
        n = _remap(m, a, spec.g)
        if n >= limit:
            return
        if budget is not None and yielded >= budget:
            raise BudgetExceededError(f"enumeration budget {budget} exhausted below limit {limit}")
        yield n
        yielded += 1
        m += 1


def _walk(search: SearchSpec, start: int = 0, stop: Optional[int] = None,
          budget: Optional[int] = None) -> Iterator[tuple[int, Optional[int]]]:
    """The one search engine: a depth-first walk over the driver base's
    small digits, most significant first. A node with prefix lo and k free
    low digits covers [lo, lo + a_max*(g^k - 1)/(g - 1)], clipped to the
    limit. The digits that both ends share in another base (divide both by
    it until they agree) are those of every n in between, so one large one
    prunes the subtree; a leaf has every digit checked.

    The node's leaves are a^k consecutive driver-odometer indices (a: the
    driver alphabet size). Nodes ending before index start are skipped
    untested; the walk stops at index stop. It yields (index after the
    node, n) for a hit leaf, else (that index, None), clipped to stop and
    the candidate count. budget caps the nodes tested; exceeding it raises.
    """
    driver = search.specs[search.resolved_driver()]
    # (base, largest small digit); a base with kappa = 1 has no large digit
    # and can never prune
    others = [(s.g, s.max_small_digit) for s in search.specs
              if s.g != driver.g and s.alphabet_size < s.g]
    g, top, a = driver.g, driver.max_small_digit, driver.alphabet_size
    last = search.limit - 1
    digits = to_digits(last, g).digits
    total, tight = 0, True  # driver candidates below the prefix of last read so far
    for d in reversed(digits):
        total = total * a + (min(d, top + 1) if tight else 0)
        tight = tight and d <= top
    stop = total + tight if stop is None else min(stop, total + tight)
    powers = [g**k for k in range(len(digits) + 1)]
    sizes = [a**k for k in range(len(digits) + 1)]
    # spans[k]: the largest value k free driver digits can add
    spans = [top * (p - 1) // (g - 1) for p in powers]
    cursor, visited = start, 0
    stack = [(0, len(digits), 0)]  # (prefix value, free digits, index of first leaf)
    while stack and cursor < stop:
        lo, k, index = stack.pop()
        end = index + sizes[k]
        if end <= cursor:
            continue
        if budget is not None and visited >= budget:
            raise BudgetExceededError(f"search budget {budget} exhausted")
        visited += 1
        hi = min(lo + spans[k], last)
        for h, small in others:
            x, y = lo, hi
            while x != y:
                x //= h
                y //= h
            # peel the shared digits up to the first large one; x stays
            # nonzero exactly when one was found, the most significant too
            while x and x % h <= small:
                x //= h
            if x:
                cursor = min(end, stop)
                yield cursor, None
                break
        else:
            if k == 0:
                cursor = end
                yield cursor, lo
                continue
            # push children in descending digit order so they pop ascending
            step = powers[k - 1]
            for d in range(min(top, (last - lo) // step), -1, -1):
                stack.append((lo + d * step, k - 1, index + d * sizes[k - 1]))


def multi_base_search(search: SearchSpec, budget: Optional[int] = None) -> list[int]:
    """All n in [0, limit) small in every base, ascending (see _walk)."""
    return [n for _, n in _walk(search, budget=budget) if n is not None]


# --- checkpointed search ---------------------------------------------------


def resumable_search(
    search: SearchSpec,
    checkpoint_path: str,
    hits_path: str,
    max_candidates: Optional[int] = None,
    checkpoint_every: int = 10_000,
) -> tuple[list[int], bool]:
    """Run (or continue) the walk of multi_base_search, persisting progress.

    The cursor is a driver-odometer index: a leaf advances it by one, a
    pruned subtree by the candidates under it, a call by at most
    max_candidates; a call finishes when the candidates run out with budget
    to spare. The checkpoint JSON (search, cursor, hits file length and
    digest) is written at the end and, once per advance, at the last
    multiple of checkpoint_every the cursor passed since the call began.
    A resume verifies the search, cuts the hits file back to that length
    (dropping lines a killed run wrote later), checks the digest and goes
    on. Returns (all hits so far, finished).
    """
    if checkpoint_every < 1 or (max_candidates or 0) < 0:
        raise ValueError("need checkpoint_every >= 1 and max_candidates >= 0")
    spec_dict = search.to_json_dict()
    state, data, digest = {}, b"", hashlib.sha256()
    if os.path.exists(checkpoint_path):
        with open(checkpoint_path) as fh:
            state = json.load(fh)
        if state.get("format") != _CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported checkpoint format in {checkpoint_path}")
        if state["search"] != spec_dict:
            raise ValueError("checkpoint was written for a different search")
        if os.path.getsize(hits_path) > state["hits_bytes"]:
            os.truncate(hits_path, state["hits_bytes"])
        with open(hits_path, "rb") as fh:
            data = fh.read()
        digest.update(data)
        if state["hits_digest"] != digest.hexdigest():
            raise ValueError("hits file does not match checkpoint digest")
    else:
        open(hits_path, "w").close()
    hits, hits_bytes = [int(line) for line in data.split()], len(data)
    if state.get("finished"):
        return hits, True

    def write_state(cur: int, finished: bool) -> None:
        state = {
            "format": _CHECKPOINT_FORMAT,
            "search": spec_dict,
            "cursor": cur,
            "finished": finished,
            "hits_bytes": hits_bytes,
            "hits_digest": digest.hexdigest(),
        }
        tmp = os.fspath(checkpoint_path) + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(state, fh, sort_keys=True, indent=2)
            fh.write("\n")
        os.replace(tmp, checkpoint_path)

    cursor = start = state.get("cursor", 0)
    stop = None if max_candidates is None else start + max_candidates
    with open(hits_path, "ab") as hits_fh:
        for end, n in _walk(search, start, stop):
            if n is not None:
                line = b"%d\n" % n
                hits_fh.write(line)
                digest.update(line)
                hits_bytes += len(line)
                hits.append(n)
            mark = end - (end - start) % checkpoint_every
            if mark > cursor:
                hits_fh.flush()
                write_state(mark, False)
            cursor = end
    finished = stop is None or cursor < stop
    write_state(cursor, finished)
    return hits, finished


# --- density reporting ------------------------------------------------------


@dataclass(frozen=True)
class DensityReport:
    """Observed hit counts against the product-of-densities heuristic.

    The heuristic exponent is 1 - sum_j log_{g_j}(g_j/ceil(kappa_j*g_j));
    counts are N^exponent under independence of the digit conditions. The
    empirical exponent is a least-squares slope, reported, never asserted.
    """

    specs: tuple[BaseSpec, ...]
    thresholds: tuple[int, ...]
    counts: tuple[int, ...]
    empirical_exponent: Optional[float]
    heuristic_exponent: float


def density_vs_heuristic(
    specs: Sequence[BaseSpec], thresholds: Sequence[int], budget: Optional[int] = 10**7
) -> DensityReport:
    """Count hits below each threshold with one streaming pass and fit the
    growth exponent."""
    thresholds = tuple(sorted(set(int(t) for t in thresholds)))
    if not thresholds or thresholds[0] < 1:
        raise ValueError("thresholds must be positive integers")
    search = SearchSpec(tuple(specs), thresholds[-1])
    hits = multi_base_search(search, budget=budget)
    counts = []
    idx = 0
    for bound in thresholds:
        while idx < len(hits) and hits[idx] < bound:
            idx += 1
        counts.append(idx)

    pairs = [(math.log(t), math.log(c)) for t, c in zip(thresholds, counts) if c > 0]
    slope = None
    if len(pairs) >= 2:
        mx = sum(x for x, _ in pairs) / len(pairs)
        my = sum(y for _, y in pairs) / len(pairs)
        sxx = sum((x - mx) ** 2 for x, _ in pairs)
        if sxx > 0:
            slope = sum((x - mx) * (y - my) for x, y in pairs) / sxx

    heuristic = 1.0 - sum(
        math.log(s.g / math.ceil(s.kappa * s.g), s.g) for s in specs
    )
    return DensityReport(tuple(specs), thresholds, tuple(counts), slope, heuristic)


def graham_census(limit: int, primes: Sequence[int] = (3, 5, 7), budget: int = 10**6) -> list[GrahamSplit]:
    """Every n in [1, limit] whose central binomial coefficient is coprime to
    all the given primes, ascending: by Kummer's theorem, the walk of
    multi_base_search on p:1/2 for each prime, each hit split with
    graham_split. The budget caps the limit. The primes are checked once, up
    front: a composite or a repeat raises ValueError even when no n would
    reach it."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > budget:
        raise BudgetExceededError(f"census limit {limit} exceeds budget {budget}")
    primes = tuple(primes)
    for p in primes:
        _require_prime(p)
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    # with no prime every n qualifies: a base with kappa = 1 never prunes
    specs = tuple(BaseSpec(p) for p in primes) or (BaseSpec(2, 1),)
    return [graham_split(n, primes) for n in multi_base_search(SearchSpec(specs, limit + 1))[1:]]
