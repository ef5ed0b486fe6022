"""Command-line front end: every module as a subcommand.

Reproducibility first: each run is described by a manifest (subcommand plus
all semantic parameters); the manifest hash names the output directory, and
rerunning with the same manifest produces byte-identical result files. Wall
time and tool version live only in manifest.json, never in results.

Exit codes: 0 success, 2 usage error, 3 budget exceeded, 4 indeterminate
comparison.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import sys
import time
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import __version__
from .constructors import BlockConfig, block_construct, egrs_construct, stability_check
from .criteria import (
    conjecture_sum,
    egrs_condition,
    equal_base_threshold,
    prop_sum,
    theorem_sum,
)
from .digits import BaseSpec, multi_base_profile, render_digit_grid, render_many, to_digits
from .equidist import (
    ExponentSystem,
    bad_n_census,
    discrepancy_estimate,
    frac_exponents,
    lattice_min_combination,
    power_sum_norm,
)
from .errors import BudgetExceededError
from .harmonic import (
    BumpParams,
    SmallDigitFamily,
    SpectrumQuery,
    bump_property_report,
    large_spectrum_enumerate,
    spectrum_bound,
)
from .kummer import graham_split
from .searcher import SearchSpec, graham_census, multi_base_search, resumable_search

EXIT_OK = 0
EXIT_BUDGET = 3
EXIT_INDETERMINATE = 4

_JSON_HITS_CAP = 100_000
_SEARCH_BUDGET = 10**7  # search --budget: digit-tree nodes of a one-shot search
_CHECKPOINT_EVERY = 10_000  # search --checkpoint-every: driver candidates


# --- argument parsing helpers -------------------------------------------------


def _rational(text: str) -> Fraction:
    """Exact rational flag: 'p/q' or a bare integer. Decimals are rejected
    so ceiling boundaries are never blurred by rounding."""
    text = text.strip()
    if any(c in text for c in ".eE"):
        raise argparse.ArgumentTypeError(
            f"{text!r}: write rationals as p/q (decimals are rejected)"
        )
    try:
        if "/" in text:
            p, q = text.split("/")
            return Fraction(int(p), int(q))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not a valid rational") from exc


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated integer list") from exc


def _spec_list(text: str) -> tuple[BaseSpec, ...]:
    """Parse '3:1/2,5:2/5' into base specs."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise argparse.ArgumentTypeError(f"{chunk!r}: expected g:kappa")
        g_text, kappa_text = chunk.split(":", 1)
        try:
            g = int(g_text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{g_text!r} is not an integer base") from exc
        try:
            out.append(BaseSpec(g, _rational(kappa_text)))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    if not out:
        raise argparse.ArgumentTypeError("empty spec list")
    return tuple(out)


def _resolve_specs(args, default: str = "3:1/2,5:1/2,7:1/2") -> tuple[BaseSpec, ...]:
    if getattr(args, "specs", None) and getattr(args, "bases", None):
        raise argparse.ArgumentTypeError("--specs and --bases are mutually exclusive")
    if getattr(args, "specs", None):
        return args.specs
    if getattr(args, "bases", None):
        return tuple(BaseSpec(g, Fraction(1, 2)) for g in args.bases)
    return _spec_list(default)


# --- manifest and output plumbing ---------------------------------------------


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _manifest_hash(subcommand: str, params: dict) -> str:
    payload = _canonical({"subcommand": subcommand, "params": params})
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write_outputs(out_dir, subcommand, params, result, csv_header, csv_rows, wall) -> None:
    run_hash = _manifest_hash(subcommand, params)
    run_dir = os.path.join(out_dir, subcommand, run_hash)
    os.makedirs(run_dir, exist_ok=True)
    manifest = {
        "subcommand": subcommand,
        "params": params,
        "hash": run_hash,
        "version": __version__,
        "wall_time_s": wall,
    }
    with open(os.path.join(run_dir, "manifest.json"), "w") as fh:
        fh.write(_canonical(manifest))
    payload = {"manifest_hash": run_hash}
    payload.update(result)
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        fh.write(_canonical(payload))
    with open(os.path.join(run_dir, "result.csv"), "w") as fh:
        fh.write(_csv_text(csv_header, csv_rows))
    print(f"wrote {run_dir}/{{manifest.json,result.json,result.csv}}")


def _run(args, params: dict, body: Callable[[], tuple]) -> int:
    """The one run path of every subcommand. With --dry-run, print the
    manifest and compute nothing. Otherwise time body(), which prints its
    report and returns (result, csv_header, csv_rows, exit_code), write the
    output files when --out is given, and return the exit code."""
    subcommand = args.subcommand
    if args.dry_run:
        manifest = {
            "subcommand": subcommand,
            "params": params,
            "hash": _manifest_hash(subcommand, params),
        }
        sys.stdout.write(_canonical(manifest))
        return EXIT_OK
    started = time.perf_counter()
    result, csv_header, csv_rows, exit_code = body()
    if args.out:
        _write_outputs(args.out, subcommand, params, result, csv_header, csv_rows,
                       time.perf_counter() - started)
    return exit_code


# --- subcommand handlers -------------------------------------------------------


def _cmd_digits(args) -> int:
    specs = _resolve_specs(args)
    params = {"n": str(args.n), "specs": [s.to_json_dict() for s in specs]}

    def body():
        renders = [to_digits(args.n, s.g).render() for s in specs]
        profile = multi_base_profile(args.n, specs)
        print(f"{args.n} = " + " = ".join(renders))
        print(render_digit_grid(args.n, specs))
        for s, (total, large) in zip(specs, profile):
            print(f"base {s.g} (kappa={s.kappa}): {total} digits, {large} large")
        result = {
            "n": str(args.n),
            "bases": [
                {**s.to_json_dict(), "rendered": r, "digit_count": total, "large_count": large}
                for s, r, (total, large) in zip(specs, renders, profile)
            ],
        }
        rows = [
            [s.g, str(s.kappa), r, total, large]
            for s, r, (total, large) in zip(specs, renders, profile)
        ]
        return result, ["g", "kappa", "rendered", "digit_count", "large_count"], rows, EXIT_OK

    return _run(args, params, body)


def _cmd_kummer(args) -> int:
    params = {"n": str(args.n), "primes": list(args.primes)}

    def body():
        split = graham_split(args.n, args.primes)
        for p, v in zip(split.primes, split.valuations):
            print(f"v_{p}(C({2 * args.n},{args.n})) = {v}")
        print(f"n2 = {split.n2}")
        print(f"log(n2)/log(n) = {split.n2_log_ratio}")
        header = ["n", *[f"v_{p}" for p in split.primes], "n2", "log_ratio"]
        return split.to_json_dict(), header, [split.csv_row()], EXIT_OK

    return _run(args, params, body)


def _cmd_egrs(args) -> int:
    params = {
        "g1": args.g1,
        "g2": args.g2,
        "kappa1": str(args.kappa1),
        "kappa2": str(args.kappa2),
        "start_exponent": args.start,
        "step_budget": args.step_budget,
        "policy": args.policy,
    }

    def body():
        trace = egrs_construct(
            args.g1, args.g2, args.kappa1, args.kappa2, args.start,
            step_budget=args.step_budget, policy=args.policy,
        )
        start_value = args.g1**args.start
        print(f"start: {args.g1}^{args.start} = {start_value} = "
              f"{to_digits(start_value, args.g2).render()}")
        for step in trace.steps:
            times = f" x{step.times}" if step.times > 1 else ""
            print(
                f"  + {args.g1}^{step.exponent}{times} clears position {step.offender_position}"
                f" -> {step.value} = {to_digits(step.value, args.g2).render()}"
            )
        if trace.final is None:
            print(
                f"no full repair within budget; best partial {trace.best_partial} "
                f"({trace.best_partial_large} large digits), {trace.attempts} attempts"
            )
        else:
            print(
                f"final: {trace.final} = {to_digits(trace.final, args.g1).render()}"
                f" = {to_digits(trace.final, args.g2).render()}"
            )
        rows = [[s.exponent, s.times, s.offender_position, str(s.value)] for s in trace.steps]
        header = ["exponent", "times", "offender_position", "value"]
        return trace.to_json_dict(), header, rows, EXIT_OK

    return _run(args, params, body)


def _cmd_blocks(args) -> int:
    specs = _resolve_specs(args, default="3:1/2,5:1/2")
    cfg = BlockConfig(specs, args.ell, args.L, args.H, args.c_pad, args.N)
    params = cfg.to_json_dict()

    def body():
        trace = block_construct(cfg)
        print(f"shifts (block N..0): {list(reversed(trace.shifts))}")
        print(f"good blocks: {len(trace.good_blocks)}, "
              f"bad blocks: {list(trace.bad_blocks) or 'none'}")
        print(f"b = {trace.b}")
        for audit in trace.audits:
            print(
                f"base {audit.g}: {audit.large_total}/{audit.total_digits} large digits "
                f"(windows: good {audit.good_window_large}/{audit.good_window_positions}, "
                f"bad {audit.bad_window_large}/{audit.bad_window_positions}, "
                f"fringe {audit.fringe_large}/{audit.fringe_positions})"
            )
        stable = all(
            stability_check(trace, n, spec) for n in range(cfg.N + 1) for spec in cfg.specs
        )
        print(f"stability: {'ok' if stable else 'VIOLATED'}")
        header = [
            "g", "total_digits", "large_total", "good_window_positions", "good_window_large",
            "bad_window_positions", "bad_window_large", "fringe_positions", "fringe_large",
        ]
        rows = [
            [a.g, a.total_digits, a.large_total, a.good_window_positions, a.good_window_large,
             a.bad_window_positions, a.bad_window_large, a.fringe_positions, a.fringe_large]
            for a in trace.audits
        ]
        result = trace.to_json_dict()
        result["stability_ok"] = stable
        return result, header, rows, EXIT_OK

    return _run(args, params, body)


def _cmd_spectrum(args) -> int:
    family = SmallDigitFamily(args.g, args.t, args.R)
    query = SpectrumQuery(
        family, K=args.K, eta=args.eta, M=args.M, delta=args.delta, budget=args.budget
    )
    params = {
        "family": family.to_json_dict(),
        "K": args.K,
        "eta": args.eta,
        "M": args.M,
        "delta": args.delta,
        "budget": args.budget,
    }

    def body():
        hits = large_spectrum_enumerate(query)
        bound = spectrum_bound(query)
        ratio = len(hits) / bound.value if bound.value else float("inf")
        print(f"large-spectrum count = {len(hits)} of {query.frequency_count} frequencies")
        print(f"analytic bound = {bound.value}")
        if bound.exponent is not None:
            print(f"per-M exponent = {bound.exponent}")
        print(f"count/bound = {ratio}")
        print(f"count <= bound: {len(hits) <= bound.value}")
        size = family.size
        rows = [[k, mag, mag / size] for k, mag in hits]
        result = {
            "query": query.to_json_dict(),
            "count": len(hits),
            "bound": bound.value,
            "exponent": bound.exponent,
            "ratio": ratio,
        }
        return result, ["k", "magnitude", "normalized"], rows, EXIT_OK

    return _run(args, params, body)


def _cmd_bump(args) -> int:
    bump = BumpParams(args.delta, args.J)
    params = {
        "delta": args.delta,
        "J": args.J,
        "tail_cap": args.tail_cap,
        "tail_tol": args.tail_tol,
    }

    def body():
        report = bump_property_report(bump, args.tail_cap, tail_tol=args.tail_tol)
        print(f"coefficient at 0 = {report.coeff_at_zero}")
        print(f"coefficient sum over |k| <= {args.tail_cap} = {report.coeff_sum}")
        print(f"certified tail = {report.tail_bound}")
        print(f"sum + tail = {report.coeff_sum + report.tail_bound} "
              f"(bound 4/delta = {report.sum_bound})")
        print(f"envelope violations = {report.envelope_violations}"
              + (f" (first at k = {report.first_violation})" if report.first_violation else ""))
        print(f"support leak = {report.support_leak}")
        rows = [
            ["coeff_at_zero", report.coeff_at_zero],
            ["coeff_sum", report.coeff_sum],
            ["tail_bound", report.tail_bound],
            ["sum_bound", report.sum_bound],
            ["envelope_violations", report.envelope_violations],
            ["support_leak", report.support_leak],
        ]
        return report.to_json_dict(), ["quantity", "value"], rows, EXIT_OK

    return _run(args, params, body)


def _make_system(args) -> ExponentSystem:
    ell = args.ell if args.ell is not None else args.L
    zetas = tuple(args.zetas) if args.zetas else ()
    return ExponentSystem(tuple(args.bases), ell, args.L, zetas)


def _cmd_equidist(args) -> int:
    system = _make_system(args)
    if args.mode == "frac":
        params = {"system": system.to_json_dict(), "mode": "frac", "n": args.n}

        def body():
            values, err = frac_exponents(system, args.n)
            for g, v in zip(system.bases, values):
                print(f"{{{args.n} * ln{args.L}/ln{g}}} = {v!r}")
            print(f"certified error <= {err}")
            norm = power_sum_norm(system, args.n)
            print(f"power-sum norm = {norm.value} (err {norm.err})")
            result = {
                "system": system.to_json_dict(),
                "n": args.n,
                "values": list(values),
                "err": err,
                "norm": norm.value,
                "norm_err": norm.err,
            }
            rows = [[g, v] for g, v in zip(system.bases, values)]
            return result, ["g", "frac"], rows, EXIT_OK

    elif args.mode == "census":
        eps = [float(e) for e in args.epsilons]
        params = {
            "system": system.to_json_dict(),
            "mode": "census",
            "N": args.N,
            "epsilons": eps,
            "dps": args.dps,
        }

        def body():
            report = bad_n_census(system, eps, args.N, dps=args.dps, budget=args.budget)
            for entry in report.entries:
                flag = f" ({entry.indeterminate} indeterminate)" if entry.indeterminate else ""
                print(f"eps = {entry.epsilon}: {entry.count}/{args.N}{flag}")
            print(f"empirical exponent = {report.empirical_exponent} "
                  f"(reference 1/r = {report.reference_exponent})")
            rows = [[e.epsilon, e.count, e.indeterminate] for e in report.entries]
            indeterminate = any(e.indeterminate for e in report.entries)
            return (report.to_json_dict(), ["epsilon", "count", "indeterminate"], rows,
                    EXIT_INDETERMINATE if indeterminate else EXIT_OK)

    else:  # discrepancy
        params = {
            "system": system.to_json_dict(),
            "mode": "discrepancy",
            "N": args.N,
            "grid": args.grid,
        }

        def body():
            est = discrepancy_estimate(system, args.N, grid=args.grid, budget=args.budget)
            print(f"discrepancy estimate at N={args.N}: {est}")
            result = {"system": system.to_json_dict(), "N": args.N, "grid": args.grid,
                      "estimate": est}
            return result, ["N", "estimate"], [[args.N, est]], EXIT_OK

    return _run(args, params, body)


def _cmd_lattice(args) -> int:
    system = _make_system(args)
    params = {"system": system.to_json_dict(), "M": args.M, "budget": args.budget}

    def body():
        result = lattice_min_combination(system, args.M, budget=args.budget)
        print(f"scanned {result.vectors_scanned} vectors, ||m||_inf <= {args.M}")
        print(f"min norm = {result.min_norm!r} at m = {list(result.argmin)}")
        print(f"reference M^-r = {result.reference}")
        print(f"fixed-point error <= {result.err}")
        row = [args.M, result.min_norm, " ".join(map(str, result.argmin)), result.reference]
        return result.to_json_dict(), ["M", "min_norm", "argmin", "reference"], [row], EXIT_OK

    return _run(args, params, body)


def _cmd_conditions(args) -> int:
    mode = args.condition
    if mode == "threshold":
        if args.kappa is None or args.r is None or args.form is None:
            raise argparse.ArgumentTypeError(
                "threshold mode needs --r, --kappa and --form"
            )
        params = {
            "condition": "threshold",
            "form": args.form,
            "r": args.r,
            "kappa": str(args.kappa),
            "max_exponent": args.max_exponent,
        }

        def body():
            result = equal_base_threshold(args.r, args.kappa, args.form,
                                          max_exponent=args.max_exponent)
            print(f"minimal base g = {result.min_g}")
            print(f"minimal power of ten: 10^{result.min_pow10_exponent}")
            header = ["form", "r", "kappa", "min_g", "min_pow10_exponent"]
            row = [args.form, args.r, str(args.kappa), str(result.min_g),
                   result.min_pow10_exponent]
            return result.to_json_dict(), header, [row], EXIT_OK

        return _run(args, params, body)

    specs = _resolve_specs(args)
    if mode == "egrs" and len(specs) != 2:
        raise argparse.ArgumentTypeError("egrs condition needs exactly two specs")
    r = args.r if args.r is not None else len(specs)
    params = {"condition": mode, "specs": [s.to_json_dict() for s in specs], "r": r}

    def body():
        if mode == "conjecture":
            report = conjecture_sum(specs)
        elif mode == "theorem":
            report = theorem_sum(specs, r)
        elif mode == "prop":
            report = prop_sum(specs, r)
        else:  # egrs
            report = egrs_condition(specs[0], specs[1])
        print(f"value = {report.value_str}")
        print(f"threshold: {report.comparison} {report.threshold}")
        if report.indeterminate:
            print("INDETERMINATE")
        else:
            print("SATISFIED" if report.satisfied else "NOT SATISFIED")
        rows = [[t.g, t.kappa, t.value] for t in report.terms]
        return (report.to_json_dict(), ["g", "kappa", "term"], rows,
                EXIT_INDETERMINATE if report.indeterminate else EXIT_OK)

    return _run(args, params, body)


def _cmd_search(args) -> int:
    # --budget and --checkpoint-every default to None so that a flag given
    # to the wrong mode is an error, not silently ignored
    every = _CHECKPOINT_EVERY if args.checkpoint_every is None else args.checkpoint_every
    budget = _SEARCH_BUDGET if args.budget is None else args.budget
    if every < 1 or (args.max_candidates or 0) < 0:
        raise argparse.ArgumentTypeError("need --checkpoint-every >= 1 and --max-candidates >= 0")
    if not args.checkpoint and (args.hits or args.max_candidates is not None
                                or args.checkpoint_every is not None):
        raise argparse.ArgumentTypeError(
            "--hits, --max-candidates and --checkpoint-every need --checkpoint")
    if args.checkpoint and not args.hits:
        raise argparse.ArgumentTypeError("--checkpoint needs --hits")
    if args.checkpoint and args.budget is not None:
        raise argparse.ArgumentTypeError("--budget is one-shot only; use --max-candidates with --checkpoint")
    specs = _resolve_specs(args)
    driver = None
    if args.driver_base is not None:
        gs = [s.g for s in specs]
        if args.driver_base not in gs:
            raise argparse.ArgumentTypeError(f"--driver-base {args.driver_base} not among bases")
        driver = gs.index(args.driver_base)
    search = SearchSpec(specs, args.limit, driver)
    params = {
        "search": search.to_json_dict(),
        "drop_zero": args.drop_zero,
        "budget": budget,
        "resumable": bool(args.checkpoint),
    }

    def body():
        finished = True
        if args.checkpoint:
            hits, finished = resumable_search(
                search, args.checkpoint, args.hits,
                max_candidates=args.max_candidates, checkpoint_every=every,
            )
        else:
            hits = multi_base_search(search, budget=budget)
        if args.drop_zero:
            hits = [n for n in hits if n != 0]
        names = [str(n) for n in hits]
        zeros = [0] * len(hits)  # a hit has no large digit
        profile_header, columns = ["n"], [names]
        for s in specs:
            profile_header += [f"digits_{s.g}", f"large_{s.g}"]
            columns += [render_many(hits, s.g), zeros]
        rows = list(zip(*columns))
        shown = rows if args.all else rows[:20]
        print(f"{len(hits)} hits below {args.limit}"
              + ("" if finished else " so far (not finished)"))
        for row in shown:
            print(f"  {row[0]} = " + " = ".join(row[1::2]))
        if len(shown) < len(hits):
            print(f"  ... ({len(hits) - len(shown)} more)")
        result = {
            "search": search.to_json_dict(),
            "count": len(hits),
            "finished": finished,
            "hits": names[:_JSON_HITS_CAP],
            "hits_truncated": len(hits) > _JSON_HITS_CAP,
        }
        return result, profile_header, rows, EXIT_OK

    return _run(args, params, body)


def _cmd_census(args) -> int:
    params = {"limit": args.limit, "primes": list(args.primes), "budget": args.budget}

    def body():
        splits = graham_census(args.limit, args.primes, budget=args.budget)
        print(f"{len(splits)} values of n <= {args.limit} with C(2n,n) coprime to "
              + "*".join(map(str, args.primes)))
        shown = splits if args.all else splits[:20]
        for split in shown:
            print(f"  n = {split.n}")
        if len(shown) < len(splits):
            print(f"  ... ({len(splits) - len(shown)} more)")
        header = ["n", *[f"v_{p}" for p in args.primes], "n2", "log_ratio"]
        result = {
            "limit": args.limit,
            "primes": list(args.primes),
            "count": len(splits),
            "hits": [s.to_json_dict() for s in splits],
        }
        return result, header, [s.csv_row() for s in splits], EXIT_OK

    return _run(args, params, body)


# --- parser construction -------------------------------------------------------


@functools.cache  # one parser per process: parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smalldigits",
        description="Integers with small digits in several bases: constructions, "
        "searches, exponential sums, and equidistribution experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="DIR", help="write manifest/result files under DIR")
    common.add_argument("--dry-run", action="store_true",
                        help="validate parameters and print the manifest, compute nothing")

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("digits", parents=[common], help="render digit expansions")
    p.add_argument("n", type=int)
    p.add_argument("--bases", type=_int_list, help="comma list, kappa = 1/2 each")
    p.add_argument("--specs", type=_spec_list, help="g:kappa comma list")
    p.set_defaults(handler=_cmd_digits)

    p = sub.add_parser("kummer", parents=[common], help="central binomial valuations")
    p.add_argument("n", type=int)
    p.add_argument("--primes", type=_int_list, default=(3, 5, 7))
    p.set_defaults(handler=_cmd_kummer)

    p = sub.add_parser("egrs", parents=[common], help="greedy two-base digit repair")
    p.add_argument("--g1", type=int, required=True)
    p.add_argument("--g2", type=int, required=True)
    p.add_argument("--kappa1", type=_rational, default=Fraction(1, 2))
    p.add_argument("--kappa2", type=_rational, default=Fraction(1, 2))
    p.add_argument("--start", type=int, required=True, help="starting exponent of g1")
    p.add_argument("--policy", choices=("lowest", "highest"), default="lowest")
    p.add_argument("--step-budget", type=int, default=10_000)
    p.set_defaults(handler=_cmd_egrs)

    p = sub.add_parser("blocks", parents=[common], help="top-down block construction")
    p.add_argument("--bases", type=_int_list)
    p.add_argument("--specs", type=_spec_list)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--H", type=int, required=True)
    p.add_argument("--c-pad", type=_rational, default=Fraction(8))
    p.add_argument("--N", type=int, default=8, help="number of blocks below the leader")
    p.set_defaults(handler=_cmd_blocks)

    p = sub.add_parser("spectrum", parents=[common], help="large-spectrum enumeration vs bound")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--K", type=int)
    p.add_argument("--eta", type=float)
    p.add_argument("--M", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--budget", type=int, default=10**7)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("bump", parents=[common], help="bump-function Fourier properties")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--J", type=int, required=True)
    p.add_argument("--tail-cap", type=int, required=True)
    p.add_argument("--tail-tol", type=float, default=1e-6)
    p.set_defaults(handler=_cmd_bump)

    p = sub.add_parser("equidist", parents=[common], help="fractional-part experiments")
    p.add_argument("mode", choices=("frac", "census", "discrepancy"))
    p.add_argument("--bases", type=_int_list, required=True)
    p.add_argument("--ell", type=int, help="defaults to L")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--zetas", type=_int_list, help="weights, default all ones")
    p.add_argument("--n", type=int, default=1, help="frac mode: which multiple")
    p.add_argument("--N", type=int, default=10**5)
    p.add_argument("--grid", type=int)
    p.add_argument("--epsilons", type=lambda t: tuple(float(x) for x in t.split(",")),
                   default=(0.1, 0.05, 0.01))
    p.add_argument("--dps", type=int, default=50)
    p.add_argument("--budget", type=int, default=10**6,
                   help="census and discrepancy modes: largest N")
    p.set_defaults(handler=_cmd_equidist)

    p = sub.add_parser("lattice", parents=[common], help="exhaustive lattice minimum")
    p.add_argument("--bases", type=_int_list, required=True)
    p.add_argument("--ell", type=int)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--zetas", type=_int_list)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--budget", type=int, default=10**7)
    p.set_defaults(handler=_cmd_lattice)

    p = sub.add_parser("conditions", parents=[common], help="threshold conditions")
    p.add_argument("condition", choices=("conjecture", "theorem", "prop", "egrs", "threshold"))
    p.add_argument("--bases", type=_int_list)
    p.add_argument("--specs", type=_spec_list)
    p.add_argument("--r", type=int)
    p.add_argument("--kappa", type=_rational, help="threshold mode: shared kappa")
    p.add_argument("--form", choices=("conjecture", "theorem", "prop"),
                   help="threshold mode: which condition to solve")
    p.add_argument("--max-exponent", type=int, default=5000)
    p.set_defaults(handler=_cmd_conditions)

    p = sub.add_parser("search", parents=[common], help="simultaneous small-digit search")
    p.add_argument("--bases", type=_int_list)
    p.add_argument("--specs", type=_spec_list)
    p.add_argument("--limit", type=int, required=True, help="exclusive upper bound")
    p.add_argument("--driver-base", type=int, help="which base's small digits drive the search")
    p.add_argument("--drop-zero", action="store_true", help="omit the trivial hit 0")
    p.add_argument("--all", action="store_true", help="print every hit")
    p.add_argument("--budget", type=int,
                   help=f"one-shot only: maximum number of digit-tree nodes visited "
                        f"(default {_SEARCH_BUDGET})")
    p.add_argument("--checkpoint", metavar="PATH", help="resumable: checkpoint file")
    p.add_argument("--hits", metavar="PATH", help="resumable: hits file")
    p.add_argument("--max-candidates", type=int, help="resumable: driver candidates per call")
    p.add_argument("--checkpoint-every", type=int,
                   help=f"resumable: checkpoint after each this many driver candidates "
                        f"(default {_CHECKPOINT_EVERY})")
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("census", parents=[common], help="central binomial coprimality census")
    p.add_argument("--limit", type=int, required=True, help="inclusive upper bound")
    p.add_argument("--primes", type=_int_list, default=(3, 5, 7))
    p.add_argument("--all", action="store_true", help="print every hit")
    p.add_argument("--budget", type=int, default=10**6)
    p.set_defaults(handler=_cmd_census)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))  # exits with code 2
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
