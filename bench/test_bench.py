"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 -m pytest bench/test_bench.py
"""

import json
import math
import os
import statistics
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import jobs  # noqa: E402
import pytest  # noqa: E402
from tracer import Tracer, loglog_slope, percentile  # noqa: E402


@pytest.mark.parametrize("workload", sorted(jobs.GENERATORS))
def test_same_seed_same_argv_lists(workload):
    first = [job.argv for job in jobs.generate(workload, 7)]
    again = [job.argv for job in jobs.generate(workload, 7)]
    other = [job.argv for job in jobs.generate(workload, 8)]
    assert first == again
    assert first != other
    assert len(first) >= 100


def test_held_out_seed_generates():
    for workload in jobs.GENERATORS:
        assert len(jobs.generate(workload, jobs.HELD_OUT_SEED)) >= 100


def test_campaign_slices_stay_in_order():
    seen = {}
    for job in jobs.generate("campaign", 3):
        if job.kind == "slice":
            c = job.meta["campaign"]
            assert job.meta["slice"] == seen.get(c, -1) + 1
            seen[c] = job.meta["slice"]
        elif job.kind == "oneshot":
            assert seen[job.meta["campaign"]] == jobs.SLICES


def test_percentile_matches_inclusive_quantiles():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    assert percentile(values, 50) == statistics.median(values)
    assert math.isclose(percentile(values, 90), deciles[8])
    assert percentile([2.5], 90) == 2.5
    assert percentile(range(1, 11), 90) == pytest.approx(9.1)


def test_loglog_slope_recovers_power_law():
    points = [(10.0**k, 3.0 * 10.0 ** (0.63 * k)) for k in range(2, 10)]
    assert loglog_slope(points) == pytest.approx(0.63)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _in_module(fn, module):
    fn.__module__ = module
    return fn


def test_self_times_on_synthetic_spans():
    clock = FakeClock()
    tr = Tracer(clock)

    def leaf():
        clock.now += 2.0

    def mid():
        clock.now += 1.0
        leaf_w()
        leaf_w()
        clock.now += 3.0

    def job():
        clock.now += 0.5
        mid_w()
        clock.now += 0.25

    leaf_w = tr.wrap(_in_module(leaf, "smalldigits.digits"), "searcher.leaf", span=False)
    mid_w = tr.wrap(_in_module(mid, "smalldigits.searcher"), "cli.mid", span=True)
    tr.run_job(0, "cli.main", _in_module(job, "smalldigits.cli"))

    self_s = tr.self_times()
    assert self_s["cli"] == pytest.approx(0.75)
    assert self_s["searcher"] == pytest.approx(4.0)
    assert self_s["digits"] == pytest.approx(4.0)
    assert sum(self_s.values()) == pytest.approx(8.75)  # the job's own duration
    assert tr.count("searcher.leaf") == 2
    assert tr.layer_calls("digits") == 2
    assert tr.span_durations("cli.mid") == [pytest.approx(8.0)]
    # only the job and the module-entry call keep spans, in start order
    assert [s[0] for s in tr.spans] == ["cli.main", "cli.mid"]
    assert tr.spans[0][3] is None
    assert tr.spans[1][3] == 0 and tr.spans[1][4] == 0


def test_install_and_restore_put_originals_back():
    import smalldigits.cli as cli
    import smalldigits.searcher as searcher

    before = (searcher.large_digit_count, cli.multi_base_search, cli.to_digits)
    tr = Tracer()
    tr.install()
    try:
        assert searcher.large_digit_count is not before[0]
        assert cli.multi_base_search is not before[1]
        assert cli.main(["search", "--bases", "3,5,7", "--limit", "1000"]) == 0
    finally:
        tr.restore()
    assert (searcher.large_digit_count, cli.multi_base_search, cli.to_digits) == before
    assert tr.count("searcher.large_digit_count") > 0
    assert tr.count("cli.to_digits") > 0


def test_independent_digit_arithmetic():
    assert checks.all_small(756, 3, Fraction(1, 2))
    assert checks.all_small(756, 7, Fraction(1, 2))
    assert not checks.all_small(5, 3, Fraction(1, 2))
    assert [jobs.odometer(m, 2, 3) for m in range(5)] == [0, 1, 3, 4, 9]


def test_direct_magnitudes_match_library_oracle():
    from smalldigits.harmonic import SmallDigitFamily, exp_sum_direct

    family = SmallDigitFamily(5, 3, 3)
    mags = checks.direct_magnitudes(5, 3, 3, 5**3)
    for k in range(5**3):
        assert mags[k] == pytest.approx(abs(exp_sum_direct(family, k)), abs=1e-9)


def test_reference_comparison_uses_certified_error():
    result = {"manifest_hash": "abc", "values": [0.25], "err": 1e-12, "norm": 0.5,
              "norm_err": 1e-3, "n": 3}
    reference = {"equidist/abc": checks.fingerprint(result)}
    within = dict(result, norm=0.5 + 1.5e-3)
    outside = dict(result, norm=0.5 + 3e-3)
    changed = dict(result, n=4)
    assert checks.compare_with_reference("equidist", "equidist/abc", within, reference) == []
    assert checks.compare_with_reference("equidist", "equidist/abc", outside, reference)
    assert checks.compare_with_reference("equidist", "equidist/abc", changed, reference)
    assert checks.compare_with_reference("equidist", "equidist/zzz", result, reference)


def test_reference_covers_every_referenced_job(capsys):
    """Every job any seed can draw has a reference (keys from --dry-run)."""
    from smalldigits.cli import main

    reference = checks.load_reference()
    pool = jobs.constructor_jobs("out") + [j for s in jobs.analysis_slots("out") for j in s]
    for job in pool:
        if job.kind not in checks.REFERENCED:
            continue
        if job.kind == "gamma":
            assert checks.gamma_key(job.meta) in reference
            continue
        capsys.readouterr()
        assert main([*job.argv, "--dry-run"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert f"{job.kind}/{manifest['hash']}" in reference, job.argv
