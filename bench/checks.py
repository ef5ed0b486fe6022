"""Output checks for benchmark jobs. They run outside the timed region.

Every check re-derives what it can without ``smalldigits``: hits are
re-derived with the benchmark's own base conversion, census sets are
compared with search hits, campaign hits with a one-shot search and with
the driver odometer, spectrum hit sets with a direct sum over the family.
Every other result is compared with ``reference.json``, recorded by
``record_reference.py``: exact fields must match exactly, floats within
their certified error.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from fractions import Fraction

import numpy as np

from jobs import odometer

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
EXIT_OK, EXIT_INDETERMINATE = 0, 4
# t^R up to which spectrum hit sets are checked against a direct sum.
DIRECT_SUM_CAP = 10**4
# Subcommands whose result.json is compared with the reference.
REFERENCED = frozenset({"egrs", "blocks", "bump", "equidist", "lattice", "conditions", "gamma"})


# --- independent arithmetic ------------------------------------------------------


def parse_specs(text: str) -> list[tuple[int, Fraction]]:
    out = []
    for chunk in text.split(","):
        g, kappa = chunk.split(":")
        out.append((int(g), Fraction(kappa)))
    return out


def all_small(n: int, g: int, kappa: Fraction) -> bool:
    """Every base-g digit d of n satisfies d < kappa*g."""
    while n:
        n, d = divmod(n, g)
        if d >= kappa * g:
            return False
    return True


def direct_magnitudes(g: int, t: int, R: int, count: int) -> np.ndarray:
    """|sum_{n in A} e(nk/g^R)| for k < min(count, g^R), summed member by member."""
    N = g**R
    members = np.zeros(1, dtype=np.int64)
    for i in range(R):
        members = (members[None, :] + (np.arange(t, dtype=np.int64) * g**i)[:, None]).ravel()
    ks = np.arange(min(count, N), dtype=np.int64)
    out = np.empty(len(ks))
    step = max(1, (1 << 16) // len(members))
    for lo in range(0, len(ks), step):
        phase = (np.outer(ks[lo:lo + step], members) % N) * (2.0 * math.pi / N)
        out[lo:lo + step] = np.abs(np.exp(1j * phase).sum(axis=1))
    return out


# --- reference results -------------------------------------------------------------


def _flatten(obj, path: str = ""):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _flatten(obj[key], f"{path}.{key}" if path else str(key))
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from _flatten(value, f"{path}[{i}]")
    else:
        yield path, obj


def fingerprint(result: dict) -> dict:
    """Digest of the exact (non-float) leaves plus every float leaf."""
    exact, floats = [], {}
    for path, value in _flatten(result):
        if isinstance(value, float):
            floats[path] = value
        else:
            exact.append([path, value])
    digest = hashlib.sha256(json.dumps(exact, sort_keys=True).encode()).hexdigest()
    return {"exact": digest, "floats": floats}


def float_tolerance(kind: str, result: dict, path: str, ref: float) -> float:
    """Certified error where the result carries one (both sides may be off
    by it), otherwise a relative 1e-9 for floats computed deterministically."""
    if kind == "equidist" and path.startswith("values["):
        return 2 * result["err"]
    if kind == "equidist" and path == "norm":
        return 2 * result["norm_err"]
    if kind == "lattice" and path == "min_norm":
        return 2 * result["err"]
    return 1e-9 * max(1.0, abs(ref))


def compare_with_reference(kind: str, key: str, result: dict, reference: dict) -> list[str]:
    if key not in reference:
        return [f"no reference for {key}"]
    ref = reference[key]
    got = fingerprint(result)
    errors = []
    if got["exact"] != ref["exact"]:
        errors.append(f"{key}: exact fields differ from the reference")
    if set(got["floats"]) != set(ref["floats"]):
        errors.append(f"{key}: float fields differ from the reference")
        return errors
    for path, value in got["floats"].items():
        want = ref["floats"][path]
        if value == want or (math.isnan(value) and math.isnan(want)):
            continue
        if not abs(value - want) <= float_tolerance(kind, result, path, want):
            errors.append(f"{key}: {path} = {value!r}, reference {want!r}")
    return errors


def gamma_result(vectors) -> dict:
    return {"vectors": [list(v) for v, _ in vectors], "mags": [m for _, m in vectors]}


def gamma_key(meta: dict) -> str:
    params = {"families": [list(f) for f in meta["families"]], "M": meta["M"], "h": meta["h"]}
    return "gamma/" + hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()[:12]


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# --- per-job checks -----------------------------------------------------------------


def run_dir_of(stdout: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith("wrote ") and line.endswith("/{manifest.json,result.json,result.csv}"):
            return line[len("wrote "):-len("/{manifest.json,result.json,result.csv}")]
    return None


def _read_json(run_dir: str) -> dict:
    with open(os.path.join(run_dir, "result.json")) as fh:
        return json.load(fh)


def _csv_column(run_dir: str, column: int) -> list[str]:
    with open(os.path.join(run_dir, "result.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    return [row[column] for row in rows[1:]]


def bytes_written(run_dir: str, stdout: str) -> int:
    total = len(stdout.encode())
    for name in ("manifest.json", "result.json", "result.csv"):
        total += os.path.getsize(os.path.join(run_dir, name))
    return total


class Checker:
    """Checks one pass of jobs. ``check`` returns (errors, facts); facts are
    counts read off the outputs that feed the per-layer metrics."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self._direct_cache: dict[tuple, np.ndarray] = {}
        self.new_pass()

    def new_pass(self) -> None:
        self._search_hits: dict[tuple, list[int]] = {}
        self._census_hits: dict[tuple, tuple] = {}
        self._slice_hits: dict[int, list[int]] = {}

    def check(self, job, code, stdout: str, value) -> tuple[list[str], dict]:
        if job.kind == "gamma":
            key = gamma_key(job.meta)
            return compare_with_reference("gamma", key, gamma_result(value), self.reference), {}
        run_dir = run_dir_of(stdout)
        if run_dir is None:
            return [f"exit {code}, no output files"], {}
        result = _read_json(run_dir)
        facts = {"bytes": bytes_written(run_dir, stdout)}
        indeterminate = _indeterminate(job.kind, result)
        facts["indeterminate"] = indeterminate
        allowed = (EXIT_OK, EXIT_INDETERMINATE) if indeterminate else (EXIT_OK,)
        if code not in allowed:
            return [f"exit {code}"], facts
        if indeterminate and code != EXIT_INDETERMINATE:
            return ["indeterminate verdict without exit 4"], facts
        errors = getattr(self, f"_check_{job.kind}")(job, run_dir, result, facts)
        if job.kind in REFERENCED:
            key = f"{job.kind}/{result['manifest_hash']}"
            errors += compare_with_reference(job.kind, key, result, self.reference)
        return errors, facts

    # -- hunt -------------------------------------------------------------------

    def _search_result_hits(self, run_dir: str, result: dict) -> list[int]:
        if result["hits_truncated"]:
            return [int(n) for n in _csv_column(run_dir, 0)]
        return [int(n) for n in result["hits"]]

    def _check_search(self, job, run_dir, result, facts) -> list[str]:
        meta = job.meta
        hits = self._search_result_hits(run_dir, result)
        facts["hits"] = len(hits)
        errors = _sound_hits(hits, parse_specs(meta["specs"]), meta["limit"])
        if result["count"] != len(hits) or not result["finished"]:
            errors.append("count or finished flag wrong")
        if meta["primes"] is not None:
            self._search_hits[(tuple(meta["primes"]), meta["limit"])] = hits
        return errors

    def _check_census(self, job, run_dir, result, facts) -> list[str]:
        meta = job.meta
        ns = [h["n"] for h in result["hits"]]
        errors = []
        if result["count"] != len(ns):
            errors.append("census count wrong")
        for h in result["hits"]:
            if h["n2"] != 1 or any(v != 0 for v in h["valuations"].values()):
                errors.append(f"census hit {h['n']} has a nonzero valuation")
        half = [(p, Fraction(1, 2)) for p in meta["primes"]]
        errors += _sound_hits(ns, half, meta["limit"] + 1)
        self._census_hits[(tuple(meta["primes"]), meta["limit"])] = (job, ns)
        return errors

    def end_of_pass(self) -> list[tuple]:
        """Census sets must equal search hits minus 0, below the shared
        limit. Returns (census job, error) pairs."""
        errors = []
        for key, (job, ns) in self._census_hits.items():
            hits = self._search_hits.get(key)
            if hits is None:
                errors.append((job, f"census {key} has no paired search"))
            elif [n for n in ns if n < key[1]] != [n for n in hits if n != 0]:
                errors.append((job, f"census {key} differs from the search hits"))
        return errors

    def _check_egrs(self, job, run_dir, result, facts) -> list[str]:
        facts["egrs_attempts"] = result["attempts"]
        facts["egrs_steps"] = len(result["steps"])
        values = [int(s["value"]) for s in result["steps"]]
        errors = []
        if any(b <= a for a, b in zip(values, values[1:])):
            errors.append("egrs step values do not increase")
        if result["final"] is not None:
            final = int(result["final"])
            for g, kappa in ((result["g1"], result["kappa1"]), (result["g2"], result["kappa2"])):
                if not all_small(final, g, Fraction(kappa)):
                    errors.append(f"egrs final {final} has a large base-{g} digit")
        return errors

    def _check_blocks(self, job, run_dir, result, facts) -> list[str]:
        cfg = result["config"]
        facts["shift_searches"] = cfg["N"]
        facts["good_blocks"] = len(result["good_blocks"])
        b = sum(s * cfg["L"] ** i for i, s in enumerate(result["shifts"]))
        errors = []
        if str(b) != result["b"]:
            errors.append("blocks b is not sum s_n L^n")
        # stability_check can be wrong when a carry chain crosses its
        # threshold, so a violation is recorded (and pinned by the
        # reference), not failed.
        facts["stability_violations"] = int(not result["stability_ok"])
        return errors

    # -- campaign -----------------------------------------------------------------

    def _check_slice(self, job, run_dir, result, facts) -> list[str]:
        meta = job.meta
        with open(meta["hits_path"]) as fh:
            on_disk = [int(line) for line in fh if line.strip()]
        hits = self._search_result_hits(run_dir, result)
        facts["hits"] = len(hits) - len(self._slice_hits.get(meta["campaign"], ()))
        errors = []
        want = min((meta["slice"] + 1) * meta["slice_candidates"], meta["candidates"])
        if hits != on_disk or len(hits) != want:
            errors.append(f"slice {meta['slice']}: {len(hits)} hits, {want} expected")
        if result["finished"] != meta["last"]:
            errors.append(f"slice {meta['slice']}: finished flag is {result['finished']}")
        self._slice_hits[meta["campaign"]] = hits
        return errors

    def _check_oneshot(self, job, run_dir, result, facts) -> list[str]:
        meta = job.meta
        hits = self._search_result_hits(run_dir, result)
        facts["hits"] = len(hits)
        errors = []
        if hits != campaign_expected(meta):
            errors.append("one-shot hits differ from the driver odometer")
        if hits != self._slice_hits.get(meta["campaign"]):
            errors.append("one-shot hits differ from the accumulated campaign hits")
        return errors

    # -- analysis -----------------------------------------------------------------

    def _check_spectrum(self, job, run_dir, result, facts) -> list[str]:
        query = result["query"]
        fam = query["family"]
        g, t, R = fam["g"], fam["t"], fam["R"]
        count = g ** query["K"] if query["K"] is not None else query["M"]
        eta = query["eta"] if query["eta"] is not None else float(query["M"]) ** (-query["delta"])
        ks = [int(k) for k in _csv_column(run_dir, 0)]
        facts["spectrum_hits"] = len(ks)
        errors = []
        if result["count"] != len(ks) or not result["count"] <= result["bound"]:
            errors.append("spectrum count above bound or inconsistent")
        if t**R <= DIRECT_SUM_CAP:
            key = (g, t, R, min(count, g**R))
            if key not in self._direct_cache:
                self._direct_cache[key] = direct_magnitudes(g, t, R, count)
            mags = self._direct_cache[key]
            cut, tol = eta * t**R, 1e-9 * t**R
            hit_set = set(ks)
            N = len(mags)
            for k in range(count):
                mag = mags[k % N]
                if (k in hit_set) != (mag >= cut) and abs(mag - cut) > tol:
                    errors.append(f"spectrum k={k}: direct sum {mag} disagrees at cut {cut}")
                    break
        return errors

    def _check_bump(self, job, run_dir, result, facts) -> list[str]:
        facts["bump_coeffs"] = result["tail_cap"]
        if result["params"]["J"] == 1:
            # The J = 1 envelope is false by design: record, never assert zero.
            facts["j1_envelope_violations"] = result["envelope_violations"]
        return []

    def _check_equidist(self, job, run_dir, result, facts) -> list[str]:
        if "grid" in result:
            facts["points"] = result["N"]
        return []

    def _check_lattice(self, job, run_dir, result, facts) -> list[str]:
        facts["vectors"] = result["vectors_scanned"]
        return []

    def _check_conditions(self, job, run_dir, result, facts) -> list[str]:
        return []


def campaign_expected(meta: dict) -> list[int]:
    """Every driver-odometer candidate below the limit that is small in all
    bases; with kappa 1 on the other base that is every candidate."""
    specs = parse_specs(meta["specs"])
    driver = dict(specs)[meta["driver"]]
    a = math.ceil(driver * meta["driver"])
    out = []
    m = 0
    while True:
        n = odometer(m, a, meta["driver"])
        if n >= meta["limit"]:
            return out
        if all(all_small(n, g, kappa) for g, kappa in specs):
            out.append(n)
        m += 1


def _sound_hits(hits: list[int], specs, limit: int) -> list[str]:
    if any(b <= a for a, b in zip(hits, hits[1:])):
        return ["hits not strictly ascending"]
    for n in hits:
        if not 0 <= n < limit:
            return [f"hit {n} outside [0, {limit})"]
        for g, kappa in specs:
            if not all_small(n, g, kappa):
                return [f"hit {n} has a large base-{g} digit"]
    return []


def _indeterminate(kind: str, result: dict) -> int:
    if kind == "conditions":
        return int(bool(result.get("indeterminate")))
    if kind == "equidist" and "entries" in result:
        return sum(e["indeterminate"] for e in result["entries"])
    return 0
