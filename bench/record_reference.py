"""Record reference.json: the result of every job that any seed can draw
and whose output is checked against a reference (see checks.REFERENCED).

Run from the root of a checkout, at the commit whose outputs are trusted:

    python3 bench/record_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import jobs  # noqa: E402


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from smalldigits import cli
    from smalldigits.harmonic import SmallDigitFamily, gamma_vectors

    out_dir = os.path.join(jobs.WORK_ROOT, "reference")
    pool = jobs.constructor_jobs(out_dir)
    pool += [job for slot in jobs.analysis_slots(out_dir) for job in slot]
    reference = {}
    seen = set()
    for job in pool:
        if job.kind not in checks.REFERENCED:
            continue
        if job.kind == "gamma":
            key = checks.gamma_key(job.meta)
            if key in seen:
                continue
            seen.add(key)
            fams = [SmallDigitFamily(*f) for f in job.meta["families"]]
            result = checks.gamma_result(gamma_vectors(fams, job.meta["M"], job.meta["h"]))
        else:
            if job.argv in seen:
                continue
            seen.add(job.argv)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(list(job.argv))
            if code not in (checks.EXIT_OK, checks.EXIT_INDETERMINATE):
                raise SystemExit(f"{' '.join(job.argv)} exited {code}")
            run_dir = checks.run_dir_of(out.getvalue())
            with open(os.path.join(run_dir, "result.json")) as fh:
                result = json.load(fh)
            key = f"{job.kind}/{result['manifest_hash']}"
        reference[key] = checks.fingerprint(result)
    shutil.rmtree(out_dir, ignore_errors=True)
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(reference)} results in {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
