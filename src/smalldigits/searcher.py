"""Enumeration of integers whose digits are simultaneously small in several
bases, with checkpoint/resume support and density reporting.

The single-base stream never filters: the m-th integer with all base-g
digits below the threshold is m written in base a = ceil(kappa*g) and
re-read in base g, which is an order-preserving bijection. Multi-base
search walks a tree over the small digits of one driver base (by default
the one with the smallest alphabet), most significant digit first, and
prunes a subtree as soon as a digit that all of its integers share in
another base is large; its cost follows the number of hits rather than the
number of driver candidates. The checkpointed campaign still streams the
driver odometer and filters each candidate.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .digits import BaseSpec, large_digit_count, to_digits
from .errors import BudgetExceededError
from .kummer import GrahamSplit, central_binom_valuation, graham_split

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


def multi_base_search(search: SearchSpec, budget: Optional[int] = None) -> list[int]:
    """All n in [0, limit) small in every base, ascending.

    Depth-first walk over the driver base's small digits, most significant
    first. A node with prefix value lo and k free low digits covers
    [lo, lo + a_max*(g^k - 1)/(g - 1)], clipped to the limit. In every
    other base h, the digits that both ends of that interval share (found
    by dividing both by h until they agree) are the same for every n in it,
    so one large digit among them prunes the subtree. At a leaf the interval
    is a single integer and every digit is checked. budget caps the number
    of nodes visited; exceeding it raises.
    """
    driver = search.specs[search.resolved_driver()]
    # a base with kappa = 1 has no large digit and can never prune
    others = [s for s in search.specs if s.g != driver.g and s.alphabet_size < s.g]
    g, top = driver.g, driver.max_small_digit
    last = search.limit - 1
    depth = len(to_digits(last, g))
    powers = [g**k for k in range(depth + 1)]
    # spans[k]: the largest value k free driver digits can add
    spans = [top * (p - 1) // (g - 1) for p in powers]
    hits = []
    visited = 0
    stack = [(0, depth)]
    while stack:
        lo, k = stack.pop()
        if budget is not None and visited >= budget:
            raise BudgetExceededError(f"search budget {budget} exhausted")
        visited += 1
        hi = min(lo + spans[k], last)
        for s in others:
            h = s.g
            x, y = lo, hi
            while x != y:
                x //= h
                y //= h
            if x and large_digit_count(x, s):
                break
        else:
            if k == 0:
                hits.append(lo)
                continue
            # push children in descending digit order so they pop ascending
            step = powers[k - 1]
            for d in range(min(top, (last - lo) // step), -1, -1):
                stack.append((lo + d * step, k - 1))
    return hits


# --- checkpointed search ---------------------------------------------------


def _digest_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def resumable_search(
    search: SearchSpec,
    checkpoint_path: str,
    hits_path: str,
    max_candidates: Optional[int] = None,
    checkpoint_every: int = 10_000,
) -> tuple[list[int], bool]:
    """Run (or continue) a search, persisting progress.

    The checkpoint JSON stores the search description, the next driver
    odometer index, and the byte length and digest of the hits file written
    so far. A resumed call verifies the search, cuts the hits file back to
    that length (dropping lines a killed run wrote after its last
    checkpoint), verifies the digest and continues. Returns (all hits so
    far, finished flag). Interleave calls with max_candidates to bound the
    work per invocation.
    """
    d = search.resolved_driver()
    driver = search.specs[d]
    # a base with kappa = 1 has no large digit and can never reject
    others = [s for i, s in enumerate(search.specs) if i != d and s.alphabet_size < s.g]
    a = driver.alphabet_size
    spec_dict = search.to_json_dict()

    cursor = 0
    if os.path.exists(checkpoint_path):
        with open(checkpoint_path) as fh:
            state = json.load(fh)
        if state.get("format") != _CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported checkpoint format in {checkpoint_path}")
        if state["search"] != spec_dict:
            raise ValueError("checkpoint was written for a different search")
        if os.path.getsize(hits_path) > state["hits_bytes"]:
            os.truncate(hits_path, state["hits_bytes"])
        if state["hits_digest"] != _digest_file(hits_path):
            raise ValueError("hits file does not match checkpoint digest")
        cursor = state["cursor"]
        if state.get("finished"):
            hits = _read_hits(hits_path)
            return hits, True
    else:
        open(hits_path, "w").close()

    def write_state(cur: int, finished: bool) -> None:
        state = {
            "format": _CHECKPOINT_FORMAT,
            "search": spec_dict,
            "cursor": cur,
            "finished": finished,
            "hits_bytes": os.path.getsize(hits_path),
            "hits_digest": _digest_file(hits_path),
        }
        tmp = os.fspath(checkpoint_path) + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(state, fh, sort_keys=True, indent=2)
            fh.write("\n")
        os.replace(tmp, checkpoint_path)

    finished = False
    examined = 0
    hits_fh = open(hits_path, "a")
    try:
        m = cursor
        if a == 1 and cursor == 0:
            hits_fh.write("0\n")
            finished = True
            m = 1
        while not finished and a > 1:
            if max_candidates is not None and examined >= max_candidates:
                break
            n = _remap(m, a, driver.g)
            if n >= search.limit:
                finished = True
                break
            if all(large_digit_count(n, s) == 0 for s in others):
                hits_fh.write(f"{n}\n")
            m += 1
            examined += 1
            if examined % checkpoint_every == 0:
                hits_fh.flush()
                write_state(m, False)
        hits_fh.flush()
    finally:
        hits_fh.close()
    write_state(m, finished)
    return _read_hits(hits_path), finished


def _read_hits(path: str) -> list[int]:
    with open(path) as fh:
        return [int(line) for line in fh if line.strip()]


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

    def to_json_dict(self) -> dict:
        return {
            "specs": [s.to_json_dict() for s in self.specs],
            "thresholds": list(self.thresholds),
            "counts": list(self.counts),
            "empirical_exponent": self.empirical_exponent,
            "heuristic_exponent": self.heuristic_exponent,
        }


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
    all the given primes, found by the valuation route (not the digit
    search, so the two can cross-check each other)."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > budget:
        raise BudgetExceededError(f"census limit {limit} exceeds budget {budget}")
    out = []
    for n in range(1, limit + 1):
        if all(central_binom_valuation(n, p) == 0 for p in primes):
            out.append(graham_split(n, primes))
    return out
