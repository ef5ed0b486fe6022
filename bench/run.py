"""Benchmark of the smalldigits CLI on three seeded workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload hunt --seed 1 --seconds 30 --trace 0

``--workload all`` runs hunt, campaign and analysis in turn.

One process, one client, closed loop, no threads: each job is one call of
``smalldigits.cli.main(argv)`` with stdout captured (``gamma_vectors`` jobs
call the library). Passes over the seeded job list repeat until the next
one would overrun ``--seconds``. Every job's output is checked right after
it ran, outside the timed region. Times are scaled to a reference machine
speed measured while the jobs run (see speed.py).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs one plain
and one traced pass and prints the per-layer metrics. The last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs as joblib  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import LAYERS, Tracer, loglog_slope, percentile  # noqa: E402

SETUP_SAMPLES = 9
SETUP_CALIBRATIONS = 8


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*joblib.GENERATORS, "all"],
                   help="'all' runs every workload in turn, each in its own process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program() -> None:
    """Put the checkout's src/ first on the path; fail if it is missing."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "smalldigits", "cli.py")):
        raise SystemExit(f"error: no src/smalldigits under {os.getcwd()}; run from a checkout")
    sys.path.insert(0, src)
    import smalldigits.cli  # noqa: F401


# --- set-up ------------------------------------------------------------------------


def setup_probe(args) -> int:
    """Child side of the set-up measurement: import, generate, report ready."""
    import_program()
    joblib.generate(args.workload, args.seed)
    print("ready", flush=True)
    return 0


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Seconds from process launch to jobs ready, in fresh interpreters:
    (raw samples, samples scaled to reference speed by calibrations taken
    just before and just after each launch)."""
    raw, scaled = [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_SAMPLES):
        probe = SpeedProbe()
        probe.sample_now(SETUP_CALIBRATIONS)
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            if child.wait() != 0 or line.strip() != "ready":
                raise SystemExit("error: set-up probe failed")
        probe.sample_now(SETUP_CALIBRATIONS)
        raw.append(elapsed)
        scaled.append(elapsed * probe.factor())
    return raw, scaled


# --- passes --------------------------------------------------------------------------


class Pass:
    """Latency, check outcome and output facts of each job in one pass.
    Latencies exclude the speed probe; ``factors`` scale each job's latency
    to reference speed."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.factors: list[float] = []
        self.failed: list[bool] = []
        self.errors: list[str] = []
        self.facts: list[dict] = []
        self.samples = 0
        self.tracer = None

    @property
    def scaled(self) -> list[float]:
        return [t * f for t, f in zip(self.latencies, self.factors)]

    @property
    def raw_wall(self) -> float:
        return sum(self.latencies)

    @property
    def wall(self) -> float:
        return sum(self.scaled)

    @property
    def factor(self) -> float:
        return self.wall / self.raw_wall


def run_pass(job_list, checker, workload: str, seed: int, trace: bool = False) -> Pass:
    root = joblib.work_dir(workload, seed)
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    for job in job_list:
        if "hits_path" in job.meta:
            os.makedirs(os.path.dirname(job.meta["hits_path"]), exist_ok=True)
    checker.new_pass()
    result = Pass()
    probe = SpeedProbe()
    tracer = Tracer(probe.clock) if trace else None
    with probe:
        if tracer is not None:
            tracer.install()
        try:
            for index, job in enumerate(job_list):
                run_job(index, job, checker, probe, tracer, result)
        finally:
            if tracer is not None:
                tracer.restore()
    result.samples = len(probe.speeds)
    result.tracer = tracer
    index_of = {id(job): i for i, job in enumerate(job_list)}
    for job, error in checker.end_of_pass():
        result.errors.append(f"job {index_of[id(job)]}: {error}")
        result.failed[index_of[id(job)]] = True
    return result


def execute(index: int, job, tracer) -> tuple[int, object]:
    """Run one job: (exit code, return value), as a top-level span when
    tracing."""
    from smalldigits import cli
    from smalldigits.harmonic import SmallDigitFamily, gamma_vectors

    def call(name, fn, *args):
        return fn(*args) if tracer is None else tracer.run_job(index, name, fn, *args)

    if job.kind == "gamma":
        fams = [SmallDigitFamily(*f) for f in job.meta["families"]]
        return 0, call("harmonic.gamma_vectors", gamma_vectors, fams, job.meta["M"], job.meta["h"])
    return call("cli.main", cli.main, list(job.argv)), None


def run_job(index: int, job, checker, probe: SpeedProbe, tracer, result: Pass) -> None:
    """Time one job between two speed samples, then check its output."""
    out, err = io.StringIO(), io.StringIO()
    value, code, crash = None, 0, None
    probe.sample_now()
    first_sample = len(probe.speeds) - 1
    probe.active = True
    t0 = probe.clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code, value = execute(index, job, tracer)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crashing job is a failed job, not a crashed benchmark
        crash = f"{type(exc).__name__}: {exc}"
    result.latencies.append(probe.clock() - t0)
    probe.active = False
    probe.sample_now()
    result.factors.append(probe.factor(first_sample))
    if crash is not None:
        errors, facts = [crash], {}
    else:
        try:
            errors, facts = checker.check(job, code, out.getvalue(), value)
        except Exception as exc:  # unreadable or malformed output fails the job
            errors, facts = [f"check raised {type(exc).__name__}: {exc}"], {}
    if errors:
        errors = [f"job {index} ({' '.join(job.argv) or job.kind}): {e}" for e in errors]
        if err.getvalue().strip():
            errors.append(f"job {index} stderr: {err.getvalue().strip()[-300:]}")
    result.failed.append(bool(errors))
    result.errors += errors
    result.facts.append(facts)


def run_passes(job_list, checker, args) -> list[Pass]:
    passes: list[Pass] = []
    measured = 0.0
    while True:
        p = run_pass(job_list, checker, args.workload, args.seed)
        passes.append(p)
        measured += p.raw_wall
        if measured + p.raw_wall > args.seconds:
            return passes


# --- metrics -------------------------------------------------------------------------


def machine() -> dict:
    import mpmath
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "loadavg": list(os.getloadavg()),
    }


def fact_sum(p: Pass, key: str) -> float:
    return sum(f.get(key, 0) for f in p.facts)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(passes: list[Pass], setup: list[float]) -> dict:
    """Times are scaled to reference speed (see speed.py)."""
    # Each job's median over the passes: a burst of contention on the
    # machine spoils one sample of a job, not the estimate.
    per_job = [statistics.median(ts) for ts in zip(*(p.scaled for p in passes))]
    return {
        "wall_s": (sum(per_job), "s"),
        "job_p50_s": (percentile(per_job, 50), "s"),
        "job_p90_s": (percentile(per_job, 90), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def time_exponent(job_list, plain: Pass) -> float:
    """Log-log slope of 3,5,7 search time against the limit (limits >= 10^4,
    where fixed per-job costs no longer dominate)."""
    points = [(job.meta["limit"], t) for job, t in zip(job_list, plain.scaled)
              if job.kind == "search" and job.meta.get("primes") == (3, 5, 7)
              and job.meta["limit"] >= 10**4]
    return loglog_slope(points)


def slice_growth(job_list, plain: Pass) -> float:
    """Median time of the last tenth of campaign slices over the first tenth.
    Only the equal-sized slices count, not the one that sees the end."""
    tenth = max(1, joblib.SLICES // 10)
    first, last = [], []
    for job, t in zip(job_list, plain.scaled):
        if job.kind == "slice" and not job.meta["last"]:
            if job.meta["slice"] < tenth:
                first.append(t)
            elif job.meta["slice"] >= joblib.SLICES - tenth:
                last.append(t)
    if not first or not last:
        return 0.0
    return statistics.median(last) / statistics.median(first)


def per_layer(job_list, plain: Pass, traced: Pass) -> dict:
    """Per-layer metrics of the traced pass; times are scaled to reference
    speed by the traced pass's factor."""
    tr, f = traced.tracer, traced.factor
    self_s = {layer: t * f for layer, t in tr.self_times().items()}
    busy = sum(self_s.values())
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
        m[f"{layer}.share"] = (ratio(self_s.get(layer, 0.0), busy), "ratio")

    m["cli.to_digits_calls"] = (tr.count("cli.to_digits"), "count")
    m["cli.bytes_written"] = (fact_sum(traced, "bytes"), "bytes")
    m["cli.slice_growth"] = (slice_growth(job_list, plain), "ratio")

    filter_calls = tr.count("searcher.large_digit_count")
    hits = fact_sum(traced, "hits")
    resumes = [t * f for t in tr.span_durations("cli.resumable_search")]
    m["searcher.filter_calls"] = (filter_calls, "count")
    m["searcher.hits"] = (hits, "count")
    m["searcher.hits_per_filter_call"] = (ratio(hits, filter_calls), "ratio")
    m["searcher.resume_s_p50"] = (statistics.median(resumes) if resumes else 0.0, "s")
    m["searcher.time_exponent"] = (time_exponent(job_list, plain), "slope")

    digit_calls = tr.layer_calls("digits")
    m["digits.calls"] = (digit_calls, "count")
    m["digits.calls_per_s"] = (ratio(digit_calls, self_s["digits"]), "1/s")

    valuation_names = ("searcher.central_binom_valuation", "kummer.central_binom_valuation")
    valuations = tr.count(*valuation_names)
    m["kummer.valuations"] = (valuations, "count")
    m["kummer.prime_tests"] = (tr.count("kummer.is_prime"), "count")
    m["kummer.valuations_per_s"] = (ratio(valuations, f * tr.total(*valuation_names)), "1/s")

    attempts = fact_sum(traced, "egrs_attempts")
    shifts = fact_sum(traced, "shift_searches")
    m["constructors.egrs_attempts"] = (attempts, "count")
    m["constructors.egrs_success_ratio"] = (ratio(fact_sum(traced, "egrs_steps"), attempts), "ratio")
    m["constructors.shift_searches"] = (shifts, "count")
    m["constructors.good_block_ratio"] = (ratio(fact_sum(traced, "good_blocks"), shifts), "ratio")

    exp_sums = tr.count("harmonic.exp_sum_product")
    m["harmonic.exp_sums"] = (exp_sums, "count")
    m["harmonic.exp_sums_per_s"] = (
        ratio(exp_sums, f * tr.total("harmonic.exp_sum_product")), "1/s")
    m["harmonic.hits_per_exp_sum"] = (ratio(fact_sum(traced, "spectrum_hits"), exp_sums), "ratio")
    m["harmonic.bump_coeffs_per_s"] = (
        ratio(fact_sum(traced, "bump_coeffs"), f * tr.total("cli.bump_property_report")), "1/s")

    norm_names = ("equidist.power_sum_norm", "cli.power_sum_norm")
    norms = tr.count(*norm_names)
    m["equidist.norm_evals"] = (norms, "count")
    m["equidist.norms_per_s"] = (ratio(norms, f * tr.total(*norm_names)), "1/s")
    m["equidist.points_per_s"] = (
        ratio(fact_sum(traced, "points"), f * tr.total("cli.discrepancy_estimate")), "1/s")
    m["equidist.lattice_vectors_per_s"] = (
        ratio(fact_sum(traced, "vectors"), f * tr.total("cli.lattice_min_combination")), "1/s")

    m["criteria.calls"] = (tr.layer_calls("criteria"), "count")
    m["trace_overhead"] = (ratio(traced.wall, plain.wall), "ratio")
    return m


def write_trace(args, tr, info: dict) -> str:
    path = os.path.join(joblib.WORK_ROOT, f"trace-{args.workload}-s{args.seed}.json")
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": info,
        "calls": {name: {"count": c, "total_s": t, "child_s": ch, "layer": tr.layers[name]}
                  for name, (c, t, ch) in sorted(tr.stats.items())},
        "spans": [{"name": n, "start": s, "end": e, "parent": p, "job": j}
                  for n, s, e, p, j in tr.spans],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


# --- main ----------------------------------------------------------------------------


def run_all(args) -> int:
    """Run every workload in turn, each in a process of its own, and combine
    their result lines; metric names get the workload as a prefix."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in joblib.GENERATORS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stdout)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(f"{workload}: {line}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    import_program()
    from checks import Checker, load_reference

    info = machine()
    job_list = joblib.generate(args.workload, args.seed)
    checker = Checker(load_reference())

    if args.trace:
        plain = run_pass(job_list, checker, args.workload, args.seed)
        traced = run_pass(job_list, checker, args.workload, args.seed, trace=True)
        passes = [plain, traced]
        metrics = per_layer(job_list, plain, traced)
        print(f"trace file: {write_trace(args, traced.tracer, info)}")
    else:
        raw_setup, setup = measure_setup(args)
        passes = run_passes(job_list, checker, args)
        metrics = end_to_end(passes, setup)
        print(f"raw_setup_s {statistics.median(raw_setup)!r} s")
    for i, p in enumerate(passes):
        print(f"pass {i}: raw_wall_s {p.raw_wall:.4f} speed_factor {p.factor:.4f} "
              f"wall_s {p.wall:.4f} speed_samples {p.samples}")

    shutil.rmtree(joblib.work_dir(args.workload, args.seed), ignore_errors=True)
    attempted = sum(len(p.failed) for p in passes)
    failed = sum(sum(p.failed) for p in passes)
    for p in passes:
        for e in p.errors[:20]:
            print(f"FAIL {e}")
    first = passes[0]
    print(f"workload {args.workload} seed {args.seed}: {len(job_list)} jobs per pass, "
          f"{len(passes)} passes")
    print(f"jobs {len(job_list)} count")
    print(f"fail_ratio {ratio(failed, attempted):.6f} ratio")
    print(f"indeterminate {fact_sum(first, 'indeterminate'):.0f} count")
    print(f"j1_envelope_violations {fact_sum(first, 'j1_envelope_violations'):.0f} count")
    print(f"stability_violations {fact_sum(first, 'stability_violations'):.0f} count")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"machine {json.dumps(info, sort_keys=True)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
