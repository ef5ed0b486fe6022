"""Golden `--out` runs: one tiny run per CLI handler path, pinned by hash.

Each case runs the CLI twice, once with `--out DIR` and once with
`--dry-run`, and compares sha256 digests of result.json, result.csv, the
printed report (with DIR replaced by a placeholder) and the dry-run
manifest against values recorded before the CLI and the digit-window code
were refactored. The exit code is pinned too, and every result.json and
manifest.json must parse as strict JSON (no NaN or Infinity). A second
table pins whether an error fires before `--dry-run` (the dry run fails)
or only while computing (the dry run succeeds).

After an intended change of output, print fresh digests with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest

from smalldigits.cli import main

CASES = {
    "digits": ["digits", "756", "--bases", "3,5,7"],
    "kummer": ["kummer", "756"],
    "egrs": ["egrs", "--g1", "3", "--g2", "5", "--start", "12"],
    "egrs-highest": ["egrs", "--g1", "3", "--g2", "7", "--start", "20", "--policy", "highest"],
    "blocks": ["blocks", "--bases", "3,5", "--ell", "2", "--L", "16", "--H", "32",
               "--c-pad", "2", "--N", "8"],
    "blocks-bad": ["blocks", "--bases", "3,5,7", "--ell", "2", "--L", "16", "--H", "32",
                   "--c-pad", "2", "--N", "20"],
    "spectrum": ["spectrum", "--g", "5", "--t", "3", "--R", "2", "--K", "2", "--eta", "0.5"],
    "bump": ["bump", "--delta", "0.25", "--J", "2", "--tail-cap", "4000"],
    "equidist-frac": ["equidist", "frac", "--bases", "3,5", "--L", "2", "--n", "7"],
    "equidist-census": ["equidist", "census", "--bases", "3,5", "--L", "2", "--N", "300",
                        "--dps", "30"],
    "equidist-discrepancy": ["equidist", "discrepancy", "--bases", "3", "--L", "2",
                             "--N", "2000", "--grid", "16"],
    "lattice": ["lattice", "--bases", "2,3", "--L", "5", "--M", "6"],
    "conditions-threshold": ["conditions", "threshold", "--form", "theorem", "--r", "3",
                             "--kappa", "1/2"],
    "conditions-conjecture": ["conditions", "conjecture", "--specs", "3:1/2,5:1/2,7:1/2"],
    "conditions-indeterminate": ["conditions", "conjecture", "--specs", "2:1/2"],
    "search": ["search", "--specs", "3:1/2,5:1/2", "--limit", "3000"],
    "search-resumable": ["search", "--specs", "3:1/2,5:1/2", "--limit", "3000",
                         "--checkpoint", "{out}/c.json", "--hits", "{out}/h.txt",
                         "--checkpoint-every", "7"],
    "census": ["census", "--limit", "2000"],
    # recorded while the census was a numpy sieve of its own: a driver that
    # is not the first prime (102 rows), and three primes from 11 up
    "census-driver-second": ["census", "--primes", "7,3", "--limit", "30000", "--all"],
    "census-large-primes": ["census", "--primes", "11,13,17", "--limit", "200000"],
    # digit renders recorded before the chunked renderer: comma-separated
    # digits in a quoted CSV field, hits spanning three or more chunks
    # (hit 0 kept), and one value in bases on both sides of 512
    "search-wide": ["search", "--specs", "11:1/2,13:1", "--limit", "3000", "--all"],
    "search-chunks": ["search", "--specs", "2:1,3:1/2", "--limit", "1000000"],
    "digits-chunks": ["digits", str(10**40 + 123456789), "--bases", "2,3,16,512,513,600"],
    # n = 1 has log(n2)/log(n) = inf, written as null in result.json
    "kummer-n1": ["kummer", "1", "--primes", "2,3"],
}

# name -> (argv, slices): the argv runs `slices` times against one checkpoint.
# 560 driver candidates lie below the limit, so the eighth slice ends exactly
# on the last one (not finished) and the ninth finishes the campaign. Recorded
# while the checkpointed search still filtered the driver odometer.
SLICED = {
    "search-sliced": (["search", "--specs", "3:1/2,5:1/2,7:1/2", "--limit", "20000",
                       "--checkpoint", "{out}/c.json", "--hits", "{out}/h.txt",
                       "--max-candidates", "70", "--checkpoint-every", "9"], 9),
}

# name -> (exit code, result.json, result.csv, report, dry-run manifest)
GOLDEN = {
    "blocks": (
        0,
        "483289aa0475a8f9fe7d7ed871db6aba52c24721a02ec22262f671db1093e2e2",
        "d583d6f5ef251b0f82b358e401325fb213d6f1e4e825444545b716c35061eefb",
        "85acf217e11d5517284f55c246dca49d839b434d01ebc1f26619d437f84e14ed",
        "2300b08edb8fe92f80750175417483d9e484ccafd813306e08f5253ab2688497",
    ),
    "blocks-bad": (
        0,
        "431e1194aa3d523ced8e58e1f160f327eea74cdee917e409ceb0fca968696431",
        "3808c98c883f1e67bf4c3cf35f6f8be06b85ab28440c655645089a558dcd2a4f",
        "4a0971027142cb3accb8bb80ac8d9dff630b8a9df3c11b0a7a44036bf0c70f61",
        "29581e0d55e697f2fbc106c0d75b36d9f0f9ff6b7e825352f0a470ecab426d5b",
    ),
    "bump": (
        0,
        "b020f23b0fd66cf0ce178bb864486476b66583743ae17bf02d28ebdd7b712df1",
        "757c536a19281c9e3c6dbb219e36a734b8801285a71677b01088f83d5ca73d38",
        "73a66a3ac61aa5dd62963dd0e689fe1b16c7fced4062a5b1ad371d3f279a6a7e",
        "3e2baff1c401a393d07a8aed52cd57e1b95a95636fd4ad6b2cae5134468a859f",
    ),
    "census": (
        0,
        "b071042c11910d44ebda3e179a3366104fcb309090c9d24499a887ea03d8c1de",
        "036faa25d6b92939967d8fbd64e2c7947d05c497acf02bb1937286c1b747575d",
        "bbb9208c7a8d15f0efeecd92c22c4206ad58c40207ccf9eda315411eeb5834b1",
        "fdff49c724a267791eba9a79819f229cfacb034cdb7e493be69b209a2839a394",
    ),
    "census-driver-second": (
        0,
        "a17d8184c473dc84a18cb4cdefb2d033e8a175bba18f563484f28cc856b26896",
        "52f212a43054fc9b9a3ef5e2a5736d8daf92e1ef2788de4353950c69da9e95d0",
        "c3b328efc4c56a2cc63ded51cfb692ca3633c091248b6488188087e7e24cad2c",
        "dcf719a401c0664df7a533f9655ac44a993fe45a9ba8193cd81c24875e4705a2",
    ),
    "census-large-primes": (
        0,
        "85e97d60b70e0c8507c6a8204598174013e31f29652d8d8e363e34596c0ef4af",
        "7a9394522374422893e09d023057d6d8b3f94cada0c571d03c4289081f20a942",
        "fe62117fddc372a935e6b02c7d1d0d555f0171778d05b4b5792cddae7926b59c",
        "02e39df556ea4736ccccb97ae1e4709391a03dc1b7951fa5697d5eb329fb0416",
    ),
    "conditions-conjecture": (
        0,
        "57f43e01e2155b1b05eb95be34cab9d9b37c67df88e15cdea8fe747e9a50b29e",
        "22cfffee127223c34d6ef7972c74fee82926257952c1968d792d2e7392cf4161",
        "edbe34ec904b0f48783d1b7f59bd4ea70fb9a7280a9ea3a63807c21ecf416a26",
        "d67062bc42b64af6c3299c30416f6a41040bd8daa2cbe7954d8f7bbf2a756447",
    ),
    "conditions-indeterminate": (
        4,
        "e45b03b123f848bd52dadff42bc17843dceee1d74c26fb4b2defe03b5b153571",
        "702d3cd777f02fcfb1bc32cd4116db70a308b55b7c77bc61524b5f7e412c05ea",
        "308721a54330bf1ef9a415be66ea9c35ce6c06dc3c4c56adf255e3cecc17d346",
        "5a0a41bbac8f4f7bc02303de5660cb184f41b8bfb5541fcdecdbb5ed669acb32",
    ),
    "conditions-threshold": (
        0,
        "14e4a3661704d5031674b8553f6d68cc8c3a06c4999d697b6efce484c27a8e1e",
        "18254e1ca93374966a4083a2c616bf594af66570ff0baeb1176f032f249595d1",
        "26c790e3240fb702fe7af950ee2a36fa70494bad68e89ce33639159857658e57",
        "2fe111765befdec4fc0e6b402bd14125a63b49e372f587a84bb8784983b18824",
    ),
    "digits": (
        0,
        "5a39ce908d7a56eb78f5270b01a081240829812a6c6d5aebb3eae7ab35e6209f",
        "fd2867c0893810c73c700663e16cb77b7a2d6e366c3c3645bd4a25955ebf7b12",
        "5788e23227aa98ccbcb53169d603b7cc66ff3b0104525a46974e297f1d89940d",
        "ea3cdc183a591af17e0f8aee5ecaf632dc74cd93eb486b65fbfaeddc8302371f",
    ),
    "digits-chunks": (
        0,
        "0bd7ce38fb6ce500e081dd7df63d4826c360f701f79edcac5f06a8e4fa200a57",
        "c1796989d27997a155ee1f9bc25ea8abd3216b645a45a2a50bf0b1cc465b7d58",
        "34a71a209910f2c22ebec3d75d5dd2b6ad56c018379a7991259ff2784b15ce5d",
        "2e71ae4c46194df8bd7c15c3c7106527bc32df9ccb3b8c59daa4bbf8123a6c49",
    ),
    "egrs": (
        0,
        "8abbb3aa186d2d8882f11392230b6f4754117a7e3ec9f00f3846a02a4fc0b387",
        "c92ef36274d5813ce2295f1b9d9e43efb98781479046eac900d9c3916e3587f2",
        "e70c8d07154c6f16ccf9d64c92277c8508b3be177ac6171191653ca984224cd1",
        "2d6d0e9a261414bc7fb936ce83503ed2ef6a1308cc83e6e58ccfc4351993862a",
    ),
    "egrs-highest": (
        0,
        "5fd39ec00f2a329e602f562a5a10e20e5a1745af4db9db78418f883687eb751c",
        "d9db8e54e55bdca3e6330dd6fc29659bfc6f0b73a3f529e27c4b91266cdf885f",
        "9fff07b5eec23d4cd03804bc0570e30cf4f37056356b21ac1d322cf1e68700a4",
        "7e1a8a5d109d795dd8d45e5ea13ab88b71864a69171634f7175aebdefd9404d4",
    ),
    "equidist-census": (
        0,
        "fe1921005e50454c280e7f99e6c5e5a6dda4c5df9c5ced5cc57173c1f292e8d6",
        "73fb92831e29f77b64876637b39d3ad1b9acf2fad1e03e0b1cb36175097b7f38",
        "a7a8b04691d6caaf828af8e4e082745ae5c7bcd4c9a344940b1aa290174bd496",
        "47a1e0f898f6fb317874bca9bc32faa16f0f3fba2b0bc11e0641bc0dec5cc9e7",
    ),
    "equidist-discrepancy": (
        0,
        "25e1d10c63a44649a09258f67b95a150015a0d18839acdb1400afe6768d242bb",
        "dccc17fe946cfd0161091a0647623074f75f0eb531ec414d0ec2fff6e7428b6f",
        "3d09e1fb0558fe2e7e097e25d11e7d85d8bdaebb62c73cf5524038706e5367bc",
        "b1c535b7773ae8c88e82d1711ce9a7de0a26becd223420e1f84ea2fa09b16185",
    ),
    "equidist-frac": (
        0,
        "6ffa4e0c40f5c6f45682ce39d099e7afb6b6cd8ddbb95750a8cb2c674b649aac",
        "05b0908793e8a71605810c8c956f8169c08a78e575fe6b791ed2bee07479ae7f",
        "23afe65d4ab96b0594c0bc98abb23e218319fd475f49b3b42ebe6ae1b6d40a88",
        "8f69eae6d96a5206a3fdcc523b36240de58cb55462e87d3edeeadb8420db7596",
    ),
    "kummer": (
        0,
        "d38b3eb35c18d9f6a6c8c4195e1d0f266597bd07102758247bdcc2cca92da050",
        "76ca20460435860f9973b857e68a9fe0d34115d3dd22627e0120d4f63d6b6904",
        "3ef563b17307be6fe0bd49f97b523b417d48e87e86004422b8777bedefd5cbcb",
        "aa5b141f954cedda511f7ccb7eabcd9d89e28b82b594cf7206eb986a1c18aa9a",
    ),
    "kummer-n1": (
        0,
        "829d7fb8653d05b23ebda47ca5d436cdbf2fa7509989444263db626cb37dc256",
        "03ea2532d47961e4588be3c516901d26c771ae03b3be77a55861b0d464038650",
        "bc4fa42c6ca45767cd64b1511599111d471cf9078104854a94bd621aa010b628",
        "898474159156736011732d7fa4617507e27fda1136c6571bac97b7ac4c301ccf",
    ),
    "lattice": (
        0,
        "5778ca6c5888ecb0ddf41fdd5dcc03a5ab187ad0d9163a4a1090998b61acde72",
        "0921220159e80f6e392a8263d49ed707bf70d78696a7f3a182c1184228b2a140",
        "6c93177e0b1d46ea96def287695ee5a3dac965c2e34bd4d992eba4266c843371",
        "1c288f0a3a828dc0a2f339854de197bb4bbb7aba3896f2e9048f0b4d7d978430",
    ),
    "search": (
        0,
        "5a4975aea09da4d6d8ac2fcb0708f991d41a38b15f8fd32f9c97756539fb39bc",
        "3eefb900451692be739ab6fd8e1ce2c52a76f406d3d1627e8397608a5e374851",
        "d8e4208096fde16832cb009ea248f003db4881c49d7112831b217407bbb99d9f",
        "d149b3b4ea32e634ba7e10cac072fb40ae6d926686187ef41a7bafa77d4d7a07",
    ),
    "search-chunks": (
        0,
        "03ca47f9811a967e5704e7942f05c7c585536d803f3187f6aeb63c0d296857d1",
        "4cb446c7c00e7c3568a6441aee77e85f5239338a168d1b07fce12a76913a3af7",
        "3ebe70fa811b9613289b99f21a953e31b1651eec139b8019e2f8b84cb385ef8c",
        "2354cd3fc501dfc78884d4d6e6c623d41ec8c9bd2be39316113361d72d9e2c26",
    ),
    "search-resumable": (
        0,
        "75fcbd50be4254084831eb8f73fd6c82245d0163ad66edb1eb112e0decf57f0a",
        "3eefb900451692be739ab6fd8e1ce2c52a76f406d3d1627e8397608a5e374851",
        "14c533ebe07559bac963de48cf62b3740d8894b42d6ca3da26f9a19c524af711",
        "bdfbe4ca7e58b77a39b7ffe927311dd51c345cb68dbcd9eabcc3fb6d6e187133",
    ),
    "search-wide": (
        0,
        "d546d0573922405fb37a19eb94dd16ed34b7cfb5a1802c8c1aff033a434cf07c",
        "87dee71efd7c4dd000182dbe015ff2f5156120143b06e35d9b12690ac2d20ff7",
        "369fb41562d44eeb1f3576c8b90722944ada990628ff9370a4aad0da93764a08",
        "061de8e7e9a2ff17ab0cf4204c54f66c79780e9c07d1d7e1cc2c68bda3e04563",
    ),
    "spectrum": (
        0,
        "fd54b35ae45dfc80080682df1b77e95b57d27231cb8477cec41b1d60e8f9d141",
        "6d03c3c435caca540ca295954362d928c2b4e7bb81ea57f4de7764da1ceb18a9",
        "0ffa919a199cd34d9521fc4c7f2b04d4a3cd5f1c524e46d9c42bc17cdf41810f",
        "7f07f44bae6d25ee624698c183584e6e37c5ae37378c509cd71af4b723e41a44",
    ),
}

# name -> (exit codes, joined result.json, joined result.csv, joined report,
# dry-run manifest, final checkpoint JSON)
GOLDEN_SLICED = {
    "search-sliced": (
        (0,) * 9,
        "76eb49371f371c91ad2a530fbe91194ed900542ac7341c0a8ebec452791e8923",
        "c99c7e1b3e5eab6066afe0106fee00353bb9c08c4b7e1ece26dbed36f0da30a6",
        "4745c12c0f256afea2cd1b6684a39efdc24af6545c0e18ed90a5841a468e5fe3",
        "f3c5affc4e87ba0620681d2bc450bc988f3f6f768ae56e00dec37a50d499f2c3",
        '{\n  "cursor": 560,\n  "finished": true,\n  "format": 2,\n  "hits_bytes": 50,\n'
        '  "hits_digest": "b4ad61de33ffe5c36e45c3b1a189d7110fcf70dc3645f08da532a0c1a2f41c5c",\n'
        '  "search": {\n    "driver": 0,\n    "limit": 20000,\n    "specs": [\n'
        '      {\n        "g": 3,\n        "kappa": "1/2"\n      },\n'
        '      {\n        "g": 5,\n        "kappa": "1/2"\n      },\n'
        '      {\n        "g": 7,\n        "kappa": "1/2"\n      }\n    ]\n  }\n}\n',
    ),
}

# argv -> (dry-run exit code, run exit code); 2 is a usage error
ERROR_ORDER = [
    (["search", "--bases", "3,5", "--limit", "100", "--driver-base", "7"], 2, 2),
    (["search", "--bases", "3,5", "--specs", "3:1/2", "--limit", "100"], 2, 2),
    (["conditions", "threshold", "--r", "3"], 2, 2),
    (["search", "--bases", "3,5", "--limit", "100", "--checkpoint", "c.json"], 2, 2),
    (["conditions", "egrs", "--bases", "3,5,7"], 2, 2),
    (["egrs", "--g1", "4", "--g2", "6", "--start", "3"], 0, 1),
    (["search", "--specs", "3:1/2,5:1/2", "--limit", str(10**12), "--budget", "100"], 0, 3),
    (["search", "--bases", "3,5", "--limit", "100", "--checkpoint", "c.json",
      "--hits", "h.json", "--checkpoint-every", "0"], 2, 2),
    (["search", "--bases", "3,5", "--limit", "100", "--checkpoint", "c.json",
      "--hits", "h.json", "--max-candidates", "-1"], 2, 2),
    (["search", "--bases", "3,5", "--limit", "100", "--max-candidates", "3"], 2, 2),
    (["search", "--bases", "3,5", "--limit", "100", "--hits", "h.json"], 2, 2),
    (["search", "--bases", "3,5", "--limit", "100", "--checkpoint-every", "5"], 2, 2),
    (["search", "--specs", "3:1/2,5:1/2", "--limit", str(10**12), "--checkpoint", "c.json",
      "--hits", "h.json", "--budget", "100"], 2, 2),
    (["equidist", "frac", "--bases", "3", "--L", "2", "--N", "5", "--grid", "4",
      "--epsilons", "0.3", "--dps", "9", "--budget", "1"], 2, 2),
    (["equidist", "census", "--bases", "3", "--L", "2", "--n", "4", "--grid", "4"], 2, 2),
    (["equidist", "discrepancy", "--bases", "3", "--L", "2", "--epsilons", "0.3",
      "--dps", "9", "--n", "4"], 2, 2),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _call(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _reject_constant(name: str):
    raise ValueError(f"{name} is not valid JSON")


def _read_json(run_dir: str, name: str) -> bytes:
    """The bytes of a result or manifest file, once they parse as strict JSON."""
    data = _read(os.path.join(run_dir, name))
    json.loads(data, parse_constant=_reject_constant)
    return data


def observe(argv, out_dir: str) -> tuple:
    argv = [a.replace("{out}", out_dir) for a in argv]
    code, report = _call([*argv, "--out", out_dir])
    subdir = os.path.join(out_dir, argv[0])
    (run_hash,) = os.listdir(subdir)
    run_dir = os.path.join(subdir, run_hash)
    _, dry = _call([*argv, "--dry-run"])
    _read_json(run_dir, "manifest.json")
    return (
        code,
        _sha(_read_json(run_dir, "result.json")),
        _sha(_read(os.path.join(run_dir, "result.csv"))),
        _sha(report.replace(out_dir, "<out>").encode()),
        _sha(dry.encode()),
    )


def observe_slices(argv, slices: int, out_dir: str) -> tuple:
    """Run argv `slices` times in one directory. Returns the exit codes, the
    digests of every slice's result.json, result.csv and report (each list
    joined), the dry-run manifest's digest and the final checkpoint JSON."""
    argv = [a.replace("{out}", out_dir) for a in argv]
    codes, results, tables, reports = [], b"", b"", ""
    for _ in range(slices):
        code, report = _call([*argv, "--out", out_dir])
        (run_hash,) = os.listdir(os.path.join(out_dir, argv[0]))
        run_dir = os.path.join(out_dir, argv[0], run_hash)
        codes.append(code)
        _read_json(run_dir, "manifest.json")
        results += _read_json(run_dir, "result.json")
        tables += _read(os.path.join(run_dir, "result.csv"))
        reports += report.replace(out_dir, "<out>")
    _, dry = _call([*argv, "--dry-run"])
    checkpoint = _read(argv[argv.index("--checkpoint") + 1]).decode()
    return tuple(codes), _sha(results), _sha(tables), _sha(reports.encode()), _sha(dry.encode()), checkpoint


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_run(name, tmp_path):
    assert observe(CASES[name], str(tmp_path)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SLICED))
def test_golden_slices(name, tmp_path):
    assert observe_slices(*SLICED[name], str(tmp_path)) == GOLDEN_SLICED[name]


@pytest.mark.parametrize("argv, dry_code, run_code", ERROR_ORDER)
def test_error_fires_before_or_after_dry_run(argv, dry_code, run_code, tmp_path):
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert _call([*argv, "--dry-run"])[0] == dry_code
    assert _call(argv)[0] == run_code


if __name__ == "__main__":
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            code, *digests = observe(CASES[case], tmp)
        print(f'    "{case}": (\n        {code},')
        print("".join(f'        "{d}",\n' for d in digests) + "    ),")
    for case in sorted(SLICED):
        with tempfile.TemporaryDirectory() as tmp:
            print(f'    "{case}": {observe_slices(*SLICED[case], tmp)!r},')
