"""End-to-end command-line tests: exit codes, manifest plumbing, and
byte-for-byte determinism of the result files."""

import json
import os
import subprocess
import sys

import pytest

import smalldigits
from smalldigits.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- basic runs and exit code 0 -------------------------------------------------


def test_digits_worked_example(capsys):
    code, out, _ = run_cli(["digits", "756", "--bases", "3,5,7"], capsys)
    assert code == 0
    assert "756 = (1001000)_3 = (11011)_5 = (2130)_7" in out


def test_conditions_conjecture_satisfied(capsys):
    code, out, _ = run_cli(
        ["conditions", "conjecture", "--specs", "3:1/2,5:1/2,7:1/2"], capsys
    )
    assert code == 0
    assert "0.9740" in out and "SATISFIED" in out
    assert "NOT SATISFIED" not in out


def test_egrs_prints_walk(capsys):
    code, out, _ = run_cli(["egrs", "--g1", "3", "--g2", "5", "--start", "12"], capsys)
    assert code == 0
    assert "551124" in out and "final: 551406" in out


def test_kummer_run(capsys):
    code, out, _ = run_cli(["kummer", "756"], capsys)
    assert code == 0
    assert "n2 = 1" in out


def test_spectrum_run(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--g", "5", "--t", "3", "--R", "2", "--K", "2", "--eta", "0.5"],
        capsys,
    )
    assert code == 0
    assert "count <= bound: True" in out


# --- exit code contract ----------------------------------------------------------


def test_usage_error_is_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["digits"])  # missing positional
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["mystery-subcommand"])
    assert exc.value.code == 2


def test_decimal_kappa_rejected_as_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["egrs", "--g1", "3", "--g2", "5", "--kappa1", "0.5", "--start", "4"])
    assert exc.value.code == 2
    assert "p/q" in capsys.readouterr().err


def test_budget_exhaustion_is_exit_three(capsys):
    code, _, err = run_cli(
        ["search", "--specs", "3:1/2,5:1/2", "--limit", str(10**12), "--budget", "100"],
        capsys,
    )
    assert code == 3
    assert "budget" in err.lower()


def test_indeterminate_condition_is_exit_four(capsys):
    # base 2 at kappa 1/2: the conjecture sum hits its threshold exactly
    code, out, _ = run_cli(["conditions", "conjecture", "--specs", "2:1/2"], capsys)
    assert code == 4
    assert "INDETERMINATE" in out


def test_generic_error_is_exit_one(capsys):
    code, _, err = run_cli(["egrs", "--g1", "4", "--g2", "6", "--start", "3"], capsys)
    assert code == 1
    assert "coprime" in err


# --- manifest plumbing ------------------------------------------------------------


def test_dry_run_prints_manifest_and_writes_nothing(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        ["digits", "756", "--bases", "3,5", "--dry-run", "--out", str(out_dir)], capsys
    )
    assert code == 0
    manifest = json.loads(out)
    assert manifest["subcommand"] == "digits"
    assert manifest["params"]["n"] == "756"
    assert len(manifest["hash"]) == 12
    assert not out_dir.exists()


def test_out_directory_layout(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(["digits", "756", "--bases", "3,5", "--out", str(out_dir)], capsys)
    assert code == 0
    rundirs = list((out_dir / "digits").iterdir())
    assert len(rundirs) == 1
    rundir = rundirs[0]
    names = sorted(p.name for p in rundir.iterdir())
    assert names == ["manifest.json", "result.csv", "result.json"]
    manifest = json.loads((rundir / "manifest.json").read_text())
    assert manifest["hash"] == rundir.name
    result = json.loads((rundir / "result.json").read_text())
    assert result["manifest_hash"] == rundir.name
    assert "wall_time_s" in manifest and "wall_time_s" not in result


def test_reruns_are_byte_identical(tmp_path, capsys):
    out_dir = tmp_path / "out"
    argv = ["lattice", "--bases", "2,3", "--L", "5", "--M", "6", "--out", str(out_dir)]
    run_cli(argv, capsys)
    rundir = next((out_dir / "lattice").iterdir())
    first_json = (rundir / "result.json").read_bytes()
    first_csv = (rundir / "result.csv").read_bytes()
    run_cli(argv, capsys)
    assert (rundir / "result.json").read_bytes() == first_json
    assert (rundir / "result.csv").read_bytes() == first_csv


def test_search_csv_columns(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(
        ["search", "--specs", "3:1/2,5:1/2", "--limit", "100", "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    rundir = next((out_dir / "search").iterdir())
    lines = (rundir / "result.csv").read_text().splitlines()
    assert lines[0] == "n,digits_3,large_3,digits_5,large_5"
    assert lines[1].startswith("0,(0)_3,0,(0)_5,0")


def test_search_drop_zero(capsys):
    code, out, _ = run_cli(
        ["search", "--specs", "3:1/2,5:1/2", "--limit", "100", "--drop-zero"], capsys
    )
    assert code == 0
    assert "\n  0 =" not in out and "1 =" in out


def test_search_resumable_via_cli(tmp_path, capsys):
    ckpt, hits = tmp_path / "c.json", tmp_path / "h.txt"
    argv = [
        "search", "--specs", "3:1/2,5:1/2", "--limit", "40000",
        "--checkpoint", str(ckpt), "--hits", str(hits), "--max-candidates", "50",
    ]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and "not finished" in out
    for _ in range(400):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        if "not finished" not in out:
            break
    else:
        pytest.fail("resumable search never finished")
    assert json.loads(ckpt.read_text())["finished"]


def test_census_rejects_composite_prime_even_when_never_reached(capsys):
    code, out, err = run_cli(["census", "--primes", "2,4", "--limit", "1000"], capsys)
    assert code == 1
    assert "error: 4 is not prime" in err
    assert out == ""


def test_census_rejects_duplicate_primes(capsys):
    # 2,2 has no hit and 3,3 has some: both fail up front, with one message
    for primes in ("2,2", "3,3"):
        code, out, err = run_cli(["census", "--primes", primes, "--limit", "1000"], capsys)
        assert code == 1
        assert "error: primes must be distinct" in err
        assert out == ""


def test_equidist_discrepancy_honours_budget(capsys):
    argv = ["equidist", "discrepancy", "--bases", "3", "--L", "2", "--N", "2000000"]
    code, _, err = run_cli([*argv, "--budget", "10"], capsys)
    assert code == 3
    assert "budget exceeded" in err
    code, out, _ = run_cli([*argv[:-1], "5000", "--budget", "5000"], capsys)
    assert code == 0 and "discrepancy estimate at N=5000" in out


def test_census_all_flag(capsys):
    code, out, _ = run_cli(["census", "--limit", "1000", "--all"], capsys)
    assert code == 0
    assert "n = 756" in out


def test_bump_insufficient_tail_cap_fails(capsys):
    code, _, err = run_cli(
        ["bump", "--delta", "0.1", "--J", "2", "--tail-cap", "100", "--tail-tol", "1e-12"],
        capsys,
    )
    assert code == 1
    assert err


def test_blocks_run_with_audit_csv(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        [
            "blocks", "--bases", "3,5", "--ell", "2", "--L", "16", "--H", "32",
            "--c-pad", "2", "--N", "8", "--out", str(out_dir),
        ],
        capsys,
    )
    assert code == 0
    assert "b = 7117828434" in out
    rundir = next((out_dir / "blocks").iterdir())
    lines = (rundir / "result.csv").read_text().splitlines()
    assert len(lines) == 3  # header + one audit row per base


def test_equidist_frac_cli(capsys):
    code, out, _ = run_cli(
        ["equidist", "frac", "--bases", "3", "--L", "2", "--n", "1"], capsys
    )
    assert code == 0
    assert "0.6309297535714574" in out


def test_conditions_threshold_cli(capsys):
    code, out, _ = run_cli(
        ["conditions", "threshold", "--form", "theorem", "--r", "3", "--kappa", "1/2"],
        capsys,
    )
    assert code == 0
    assert "10^94" in out
    assert str(155520**18 + 1) in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "smalldigits" in capsys.readouterr().out


def test_back_to_back_calls_match_fresh_processes(capsys):
    # main() builds its parser once per process; flags and defaults of one
    # call must not leak into the next
    calls = [
        ["search", "--specs", "3:1/2,5:1/2", "--limit", "3000", "--all"],
        ["search", "--bases", "3,5", "--limit", "3000", "--dry-run"],
        ["search", "--bases", "3,5", "--limit", "3000"],
        ["kummer", "756"],
        ["kummer", "756", "--primes", "3,5"],
        ["kummer", "756", "--dry-run"],
        ["conditions", "conjecture", "--specs", "3:1/2,5:1/2,7:1/2"],
    ]
    in_process = [run_cli(argv, capsys)[:2] for argv in calls]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(smalldigits.__file__)))
    fresh = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "smalldigits.cli", *argv],
                              capture_output=True, text=True, env=env, check=False)
        fresh.append((proc.returncode, proc.stdout))
    assert in_process == fresh


def test_search_records_the_default_budget(capsys):
    # --budget defaults to None so that it can be refused with --checkpoint;
    # the manifest still records the node budget the search runs under
    argv = ["search", "--bases", "3,5", "--limit", "3000", "--dry-run"]
    implicit = run_cli(argv, capsys)
    explicit = run_cli([*argv, "--budget", str(10**7)], capsys)
    assert implicit == explicit and implicit[0] == 0
    assert json.loads(implicit[1])["params"]["budget"] == 10**7


def test_search_flags_of_the_other_mode_are_usage_errors(capsys, tmp_path):
    ckpt, hits = str(tmp_path / "c.json"), str(tmp_path / "h.txt")
    for argv in (["--checkpoint-every", "5"],
                 ["--checkpoint", ckpt, "--hits", hits, "--budget", "100"]):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--bases", "3,5", "--limit", "100", *argv])
        assert exc.value.code == 2
        assert "--checkpoint" in capsys.readouterr().err
    assert not os.path.exists(ckpt) and not os.path.exists(hits)
