"""Seeded job lists for the three benchmark workloads.

A job is one call of ``smalldigits.cli.main(argv)`` or, for
``gamma_vectors`` (which has no subcommand), one library call. The program
only ever sees the generated argv lists; the ``meta`` dict is for the
output checks.

Each workload is built from fixed cost classes ("slots"). The seed picks
the inputs inside a slot (limits jittered inside a log-uniform stratum,
bases, L, eta, epsilons, job order), not the amount of work, so that two
seeds give the same total work to within a few per cent and the spread of
a metric across seeds measures the program, not the draw.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

WORK_ROOT = ".bench_runs"

# The seed for validating a later claim. Never use it while tuning a change.
HELD_OUT_SEED = 918273

# --- hunt ------------------------------------------------------------------

# kappa = 1/2 prime sets: (primes, lowest decade, highest decade, jobs).
# Limits start at 10^3.5: below that a job is all CLI overhead, not search.
HUNT_PRIME_SETS = (
    ((3, 5, 7), 3.5, 7.0, 20),
    ((3, 5), 3.5, 7.0, 12),
    ((5, 7, 11), 3.5, 6.0, 10),
    ((3, 5, 7, 11), 3.5, 6.5, 10),
)
# The ROADMAP anchor: 3,5,7 to 10^9, run once per pass at exactly that limit.
HUNT_ANCHOR = ((3, 5, 7), 10**9)
# Other kappa: (spec list, lowest decade, highest decade, jobs)
HUNT_MIXED_SETS = (
    ("3:1/2,5:2/5,7:3/7", 3.5, 7.0, 8),
    ("5:2/5,7:3/7", 3.5, 6.5, 8),
    ("3:1/2,7:2/7,11:5/11", 3.5, 7.0, 8),
)
# A census costs time linear in its limit, so only searches up to this limit
# get a paired census.
CENSUS_CAP = 3 * 10**4
# Relative jitter of a limit inside its log stratum (fraction of the stratum).
STRATUM_JITTER = 0.1

HUNT_EGRS = (  # (g1, g2, start exponent, policy)
    (3, 5, 12, "lowest"), (3, 5, 40, "highest"), (5, 3, 60, "lowest"),
    (3, 7, 20, "lowest"), (5, 7, 60, "lowest"), (5, 7, 150, "lowest"),
    (7, 11, 60, "lowest"), (7, 5, 150, "lowest"), (3, 11, 300, "lowest"),
    (7, 11, 300, "lowest"),
)
HUNT_BLOCKS = (  # (bases, ell, L, H, C_pad, N)
    ("3,5", 2, 16, 32, "2", 20), ("3,5", 2, 64, 128, "2", 30),
    ("3,5,7", 2, 64, 128, "2", 40), ("3,7", 2, 128, 256, "2", 30),
    ("5,7", 2, 16, 64, "4", 24), ("3,5", 2, 64, 512, "8", 12),
)

# --- campaign ----------------------------------------------------------------

# Dense spec sets: the non-driver base has kappa 1, so every candidate of the
# driver odometer is a hit. (spec list, driver base, driver alphabet size)
CAMPAIGN_SPECS = (
    ("3:1,7:4/7", 7, 4),
    ("5:1,7:4/7", 7, 4),
    ("2:1,7:4/7", 7, 4),
    ("4:1,7:4/7", 7, 4),
)
SLICES = 32
SLICE_CANDIDATES = 48

# --- analysis ----------------------------------------------------------------

SPECTRUM_FAMILIES = (  # (g, t, R, K); t^R <= 10^4 except the last two
    (3, 2, 10, 8), (5, 3, 6, 5), (7, 4, 6, 4), (11, 6, 4, 3), (13, 7, 4, 3),
    (5, 2, 8, 5), (7, 3, 6, 4), (3, 2, 12, 7), (7, 4, 8, 5), (3, 2, 16, 8),
)
SPECTRUM_ETAS = ("0.1", "0.15", "0.2", "0.3", "0.5")
SPECTRUM_DELTAS = ("0.2", "0.3", "0.4")
BUMP_SLOTS = (  # (J, tail_cap, deltas)
    (1, 1_000_000, ("0.1", "0.2")),
    (1, 1_000_000, ("0.15", "0.25")),
    (2, 300_000, ("0.1", "0.05", "0.2")),
    (2, 100_000, ("0.1", "0.2")),
    (3, 300_000, ("0.1", "0.05")),
    (3, 1_000_000, ("0.1", "0.2")),
    (4, 300_000, ("0.1", "0.05")),
    (4, 1_000_000, ("0.1", "0.2")),
    (5, 300_000, ("0.1", "0.2")),
    (6, 300_000, ("0.1", "0.05")),
)
EQUIDIST_BASES = {1: ("3", "5", "7", "11"), 2: ("3,5", "3,7", "5,7"), 3: ("3,5,7", "3,5,11")}
EQUIDIST_L = ("2", "4", "8")
EPSILON_GRIDS = ("0.1,0.05,0.01", "0.2,0.1,0.02", "0.08,0.04,0.02,0.01")
CENSUS_SLOTS = (  # (d, N, dps); low dps gives indeterminate cells on purpose
    (1, 2000, 50), (1, 1500, 30), (2, 1200, 50), (2, 1000, 20), (3, 800, 50),
    (3, 600, 30), (1, 1000, 7), (2, 800, 7), (3, 500, 8), (2, 1000, 40),
    (1, 1500, 50), (3, 700, 40),
)
DISCREPANCY_SLOTS = (  # (d, N)
    (1, 100_000), (1, 60_000), (1, 40_000), (2, 50_000), (2, 30_000),
    (2, 20_000), (3, 20_000), (3, 12_000), (3, 8_000), (1, 80_000),
)
FRAC_JOBS = 14
FRAC_NS = (7, 12345, 271828, 999999)
LATTICE_SLOTS = (  # (bases, L choices, M)
    ("2,3", ("5", "25"), 100), ("2,3", ("5", "25"), 60), ("3,5", ("2", "4"), 80),
    ("3,7", ("2", "8"), 70), ("3,5,7", ("2", "4"), 12), ("2,3,5", ("7", "49"), 10),
    ("2,3", ("5", "25"), 40), ("3,5", ("2", "4"), 50),
)
SUM_CONDITION_SPECS = (
    "3:1/2,5:1/2,7:1/2", "3:1/2,5:1/2", "3:2/3,5:2/5", "5:1/2,7:1/2,11:1/2",
    "3:1/2,7:3/7", "5:2/5,7:3/7,11:5/11", "10:1/2,11:1/2,13:1/2", "3:1/2",
)
EXACT_THRESHOLD_SPECS = ("2:1/2", "3:1/3", "5:1/5", "7:1/7", "4:1/2,16:1/4")
EGRS_CONDITION_JOBS = 4
EXACT_THRESHOLD_JOBS = 4
THRESHOLD_SLOTS = (  # (r, kappa choices, form)
    (3, ("1/2", "1/3"), "theorem"), (2, ("1/3", "1/4"), "prop"),
    (2, ("1/2", "1/3"), "conjecture"), (3, ("1/2", "2/3"), "conjecture"),
)
GAMMA_SLOTS = (  # (families as (g, t, R), M, h choices)
    (((3, 2, 3), (5, 3, 2)), 40, (3, 4, 5)),
    (((3, 2, 3), (5, 3, 2)), 30, (3, 4, 5)),
    (((5, 3, 3), (7, 4, 2)), 40, (3, 4)),
    (((3, 2, 4), (7, 4, 2)), 35, (3, 5)),
    (((3, 2, 3), (5, 3, 2), (7, 4, 2)), 10, (4, 5)),
    (((3, 2, 3), (5, 3, 2), (7, 4, 2)), 12, (4, 6)),
    (((11, 6, 2), (13, 7, 2)), 40, (3, 4)),
    (((3, 2, 5), (5, 3, 3)), 45, (3, 4)),
)


@dataclass
class Job:
    """One unit of work: CLI argv (kind != 'gamma') or gamma_vectors kwargs."""

    kind: str
    argv: tuple[str, ...] = ()
    meta: dict = field(default_factory=dict)


def work_dir(workload: str, seed: int) -> str:
    return os.path.join(WORK_ROOT, f"{workload}-s{seed}")


def _stratified_limits(rng: random.Random, lo: float, hi: float, n: int) -> list[int]:
    """n limits log-uniform on [10^lo, 10^hi], one per stratum."""
    out = []
    for i in range(n):
        u = 0.5 + rng.uniform(-STRATUM_JITTER, STRATUM_JITTER)
        out.append(int(round(10 ** (lo + (hi - lo) * (i + u) / n))))
    return out


def odometer(m: int, a: int, g: int) -> int:
    """The m-th integer whose base-g digits are all below a (the benchmark's
    own conversion, independent of smalldigits)."""
    n, place = 0, 1
    while m:
        m, d = divmod(m, a)
        n += d * place
        place *= g
    return n


def hunt_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"hunt:{seed}")
    out_dir = os.path.join(work_dir("hunt", seed), "out")
    jobs: list[Job] = []

    def search(spec_text: str, flag: str, limit: int, primes=None) -> None:
        jobs.append(Job("search", ("search", flag, spec_text, "--limit", str(limit), "--out", out_dir),
                        {"specs": spec_text if flag == "--specs" else _half_specs(spec_text),
                         "limit": limit, "primes": primes}))
        if primes is not None and limit <= CENSUS_CAP:
            jobs.append(Job("census", ("census", "--limit", str(limit), "--primes", spec_text,
                                       "--out", out_dir),
                            {"limit": limit, "primes": primes}))

    for primes, lo, hi, n in HUNT_PRIME_SETS:
        text = ",".join(map(str, primes))
        for limit in _stratified_limits(rng, lo, hi, n):
            search(text, "--bases", limit, primes)
    primes, limit = HUNT_ANCHOR
    search(",".join(map(str, primes)), "--bases", limit, primes)
    for spec_text, lo, hi, n in HUNT_MIXED_SETS:
        for limit in _stratified_limits(rng, lo, hi, n):
            search(spec_text, "--specs", limit)
    jobs += constructor_jobs(out_dir)
    rng.shuffle(jobs)
    return jobs


def constructor_jobs(out_dir: str) -> list[Job]:
    """The egrs and blocks jobs of hunt; the same for every seed."""
    jobs = [Job("egrs", ("egrs", "--g1", str(g1), "--g2", str(g2), "--start", str(start),
                         "--policy", policy, "--out", out_dir))
            for g1, g2, start, policy in HUNT_EGRS]
    jobs += [Job("blocks", ("blocks", "--bases", bases, "--ell", str(ell), "--L", str(L),
                            "--H", str(H), "--c-pad", c_pad, "--N", str(N), "--out", out_dir))
             for bases, ell, L, H, c_pad, N in HUNT_BLOCKS]
    return jobs


def _half_specs(bases_text: str) -> str:
    return ",".join(f"{g}:1/2" for g in bases_text.split(","))


def campaign_jobs(seed: int) -> list[Job]:
    """One resumable campaign per spec set: SLICES equal slices, the slice
    that sees the end of the range, then a one-shot search of the same
    spec. Every seed runs every spec set, because their per-hit costs
    differ; the seed sets the order in which the campaigns' slices
    interleave (within a campaign they stay in order)."""
    rng = random.Random(f"campaign:{seed}")
    root = work_dir("campaign", seed)
    out_dir = os.path.join(root, "out")
    queues = []
    for c, (spec_text, driver, alphabet) in enumerate(CAMPAIGN_SPECS):
        limit = odometer(SLICES * SLICE_CANDIDATES, alphabet, driver)
        ckpt = os.path.join(root, "campaign", f"c{c}.json")
        hits = os.path.join(root, "campaign", f"c{c}.hits")
        common = ("--specs", spec_text, "--driver-base", str(driver), "--limit", str(limit))
        meta = {"campaign": c, "specs": spec_text, "driver": driver, "limit": limit,
                "hits_path": hits, "slice_candidates": SLICE_CANDIDATES,
                "candidates": SLICES * SLICE_CANDIDATES}
        queue = [
            Job("slice", ("search", *common, "--checkpoint", ckpt, "--hits", hits,
                          "--max-candidates", str(SLICE_CANDIDATES), "--out", out_dir),
                {**meta, "slice": i, "last": i == SLICES})
            for i in range(SLICES + 1)
        ]
        queue.append(Job("oneshot", ("search", *common, "--out", out_dir), meta))
        queues.append(queue)
    jobs: list[Job] = []
    while any(queues):
        queue = rng.choice([q for q in queues if q])
        jobs.append(queue.pop(0))
    return jobs


def analysis_slots(out_dir: str) -> list[list[Job]]:
    """One list of equal-cost variants per analysis slot."""
    slots: list[list[Job]] = []

    def cli(kind: str, *argv: str, **meta) -> Job:
        return Job(kind, (*argv, "--out", out_dir), meta)

    def systems(d: int):
        return [(bases, L) for bases in EQUIDIST_BASES[d] for L in EQUIDIST_L]

    for g, t, R, K in SPECTRUM_FAMILIES:
        fam = ("spectrum", "--g", str(g), "--t", str(t), "--R", str(R))
        slots.append([cli("spectrum", *fam, "--K", str(K), "--eta", eta) for eta in SPECTRUM_ETAS])
        slots.append([cli("spectrum", *fam, "--M", str(g**K), "--delta", delta)
                      for delta in SPECTRUM_DELTAS])
    for J, cap, deltas in BUMP_SLOTS:
        tol = ("--tail-tol", "1e-3") if J == 1 else ()
        slots.append([cli("bump", "bump", "--delta", delta, "--J", str(J), "--tail-cap", str(cap), *tol)
                      for delta in deltas])
    for d, N, dps in CENSUS_SLOTS:
        slots.append([cli("equidist", "equidist", "census", "--bases", bases, "--L", L, "--N", str(N),
                          "--dps", str(dps), "--epsilons", EPSILON_GRIDS[i % len(EPSILON_GRIDS)])
                      for i, (bases, L) in enumerate(systems(d))])
    for d, N in DISCREPANCY_SLOTS:
        slots.append([cli("equidist", "equidist", "discrepancy", "--bases", bases, "--L", L,
                          "--N", str(N)) for bases, L in systems(d)])
    for i in range(FRAC_JOBS):
        d = 1 + i % 3
        slots.append([cli("equidist", "equidist", "frac", "--bases", bases, "--L", L, "--n", str(n))
                      for bases, L in systems(d) for n in FRAC_NS])
    for bases, Ls, M in LATTICE_SLOTS:
        slots.append([cli("lattice", "lattice", "--bases", bases, "--ell", str(_root_of(int(L))),
                          "--L", L, "--M", str(M)) for L in Ls])
    for spec_text in SUM_CONDITION_SPECS:
        r = str(len(spec_text.split(",")))
        slots.append([cli("conditions", "conditions", mode, "--specs", spec_text, "--r", r)
                      for mode in ("conjecture", "theorem", "prop")])
    for _ in range(EGRS_CONDITION_JOBS):
        slots.append([cli("conditions", "conditions", "egrs", "--specs", f"{g1}:{k1},{g2}:{k2}")
                      for g1 in (3, 5, 7) for k1 in ("1/2", "2/3")
                      for g2 in (11, 13) for k2 in ("1/2", "5/11")])
    for _ in range(EXACT_THRESHOLD_JOBS):
        slots.append([cli("conditions", "conditions", "conjecture", "--specs", spec_text)
                      for spec_text in EXACT_THRESHOLD_SPECS])
    for r, kappas, form in THRESHOLD_SLOTS:
        slots.append([cli("conditions", "conditions", "threshold", "--r", str(r), "--kappa", kappa,
                          "--form", form) for kappa in kappas])
    for families, M, hs in GAMMA_SLOTS:
        slots.append([Job("gamma", (), {"families": families, "M": M, "h": h}) for h in hs])
    return slots


def analysis_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"analysis:{seed}")
    jobs = [rng.choice(slot) for slot in analysis_slots(os.path.join(work_dir("analysis", seed), "out"))]
    rng.shuffle(jobs)
    return jobs


def _root_of(L: int) -> int:
    """Smallest ell with L a power of ell."""
    for ell in range(2, L + 1):
        p = ell
        while p < L:
            p *= ell
        if p == L:
            return ell
    raise ValueError(L)


GENERATORS = {"hunt": hunt_jobs, "campaign": campaign_jobs, "analysis": analysis_jobs}


def generate(workload: str, seed: int) -> list[Job]:
    return GENERATORS[workload](seed)
