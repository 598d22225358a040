"""Pinned CLI output: the SHA-256 of stdout and the exit code of fixed commands.

The commands cover every subcommand, both output formats and every bundled
``specs/*.json``, so any change to the printed text or JSON, down to one byte,
fails here.  To print the table for the code on ``PYTHONPATH``, run
``python tests/test_golden_output.py`` from the repository root.
"""

import contextlib
import hashlib
import io
import os

import pytest

from mzvff.cli import main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

GOLDEN = [
    ("closed-form --ring poly --q 2 --depth 2", 0, "59176bddd419f7b97bccd44d92fbea556aca17d8467dc09bcc615792ba01dc8b"),
    ("closed-form --ring poly --q 3 --depth 3 --format json", 0, "27936b3c3e8c23e4333909edcf8f3daae8b2a6a448eb084e6f1052858914094b"),
    ("closed-form --ring poly --q 5 --depth 4", 0, "e40e5e7cb9eb47884e5cf6752e6ba635721aee9e949a2d41d03ee6a2074949c3"),
    ("closed-form --ring rational --q 2 --depth 3", 0, "7bab21dd041d71a3dc649ccc6257466ee008ebc37d14b8215059eb5a360e9886"),
    ("closed-form --ring rational --q 3 --depth 4 --format json", 0, "c6ebf58e9468b276fb3c24fe9cb050596754777e7b4adebb79a8cd9e11ff5933"),
    ("closed-form --ring rational --q 5 --depth 2", 0, "cc4a94acd8eb40071a822f42e542846877e207608d6ba857cda58baad9300162"),
    ("closed-form --ring rational --q 7 --depth 3 --format json", 0, "7e17c29ab50fd893a3709a9ea7f40bc983a39698ea05fc6257349fbf7b7c5e49"),
    ("closed-form --ring rational --q 4 --depth 5", 0, "4e8d79bd817e01eea25239edf431b66a88a2c4acb37ad28569dcb20ae9035380"),
    ("closed-form --ring genus --spec specs/genus0_q2.json --depth 2", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("closed-form --ring genus --spec specs/genus1_q5.json --depth 2", 0, "ee89b6f0dfa23aa906f61625f86735684911fc523035eb264a5e6682cfe96eb7"),
    ("closed-form --ring genus --spec specs/genus1_q5_L.json --depth 2 --format json", 0, "33cfc01b486e5ef458a2ed7fbfaf65a36cb9965072b66c62e81592dd87892e4d"),
    ("closed-form --ring genus --spec specs/genus1_q7.json --depth 2", 0, "00848ffa5254dd4825b7762f79bf977d0e3a0a579cfb8a00b8533e039ee63be7"),
    ("closed-form --ring genus --spec specs/genus2_q2.json --depth 2 --format json", 0, "608faebf36b82baff3948ef181ec39d94098f9c3521fa795cc2ad0bbd12e8ac1"),
    ("closed-form --ring genus --spec specs/genus1_q5.json --depth 3", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("closed-form --ring poly --depth 2", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("series --ring poly --q 2 --depth 2 --trunc 6", 0, "765535db2d4e8a6d8a5c869c14c344397637b30d9b632a81075190e2761ce6ec"),
    ("series --ring rational --q 3 --depth 2 --trunc 8 --format json", 0, "fbddc953e214f1fb73e3727406000bf4ad02bf27eb1280e7ce0c647d3f07f308"),
    ("series --ring rational --q 7 --depth 3 --trunc 4", 0, "548e9cdf835871124eb0dc6282bc8358f3c38006fb2377d0de811b0f3894d5b8"),
    ("series --ring rational --q 3 --depth 2 --trunc 5 --source oracle", 0, "1b164555cc7ef61002fc361ebee1e27c23a766363eb8e782c6a46b0a50621a69"),
    ("series --ring poly --q 3 --depth 2 --trunc 4 --source oracle --format json", 0, "c4acd18d39458d24b5758c95345b0a790db66f670ae1afbbbc91dcbbd6dfcbf6"),
    ("series --ring genus --spec specs/genus1_q5.json --depth 2 --trunc 5", 0, "eb2af23d9bb2fb31bf4affa83b377e17ac78e8ae5334e9363acce058cbc37f79"),
    ("series --ring genus --spec specs/genus2_q2.json --depth 2 --trunc 4 --format json", 0, "c54c2b8cdcfdcbcde4cc4a80626ca17bbcfc0e37f2c9e79aaeb487f11594c604"),
    ("series --ring genus --spec specs/genus1_q7.json --depth 2 --trunc 3 --source oracle", 0, "1532814fa401e77ac03cffe271dc408020523135a80b8c96c7f2e5f3215fe386"),
    ("series --ring genus --spec specs/genus1_q5_L.json --depth 3 --trunc 2 --source oracle", 0, "6066c4496c9f974d39020a3bada48a00d17e3e3e7ebd70fdfc07b742542b9ac2"),
    ("series --ring genus --spec specs/genus0_q3.json --depth 2 --trunc 3", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("series --ring poly --q 2 --depth 6 --trunc 64", 4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("series --ring rational --q 2 --depth 2 --trunc 65", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("euler --q 2 --depth 2 --max-degree 3", 0, "e643474a35b685c1d22fcffeec6e2abdb2a9d37e26a3558cb8d3b06dffd5f912"),
    ("euler --q 3 --depth 2 --max-degree 2 --format json", 0, "12e2ab803961bcbdba1220407e41c1b413484d119f33a16521112024b9bed387"),
    ("euler --q 2 --depth 3 --max-degree 2 --trunc 4", 0, "eaed471d6dac9af3508129c5da231637456c6d237c34b6a4109798e2e9f1aa53"),
    ("euler --q 4 --depth 1 --max-degree 2", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("residue --q 2 --pole w=1", 0, "d332c65d30d66314b137734e34a06e8e880800fefd08f321d8dc1d31ad4a54a2"),
    ("residue --q 3 --pole s+w=2 --in s --format json", 0, "c80f9d823fa4f4c97e16b8de26f6ddbf85ecd55b12edad12d68c69f7d01b52a5"),
    ("residue --q 5 --pole s+w=2 --in w", 0, "9cd092f3015e5a3d07188b6f4c246d33c12490d36ee90fadc5581089ad21f8f8"),
    ("residue --q 2 --pole s=1", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verify", 0, "02c3590aa7d26942d1c04688748316d4c15fbb7c554c7bf96bbd273a8e62bf2b"),
    ("verify --list", 0, "0bb6f8dea1882acddc0a3136599c0ef220b4e804a18b905ee35e76bc43c79f6c"),
    ("verify --format json --q 2,3,4,5,7 --depth 1..3 --trunc 12", 0, "abbca57a28436d42b80b3bc12537d2ceffab35159cdd21eb4fa1cbaa03ac112e"),
    ("verify --only q-polynomial --depth 1..4", 1, "344e3136a3777926b0be98e72951999267f38c5fa4c98fe52666d26bc1ed022d"),
    ("verify --only poles-rational,decomposition-d2 --depth 1..4 --format json", 0, "afd0e081e8e19795d34d6e29555329ee67381ed241b0f752920f6a54babfed0e"),
    ("verify --spec specs/genus0_q4.json --only fieldspec,series-genus", 0, "df8673a70623252fe9509ae66d4805dc763f0d06f1825ed2199d51182201855e"),
    ("verify --spec specs/genus0_q5.json --only fieldspec --format json", 0, "06dff9383d88973c6b1b8559ad6ca5be7fbcb8837cb392316acb087018540d7e"),
    ("verify --only no-such-check", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


def run(command):
    """Exit code and SHA-256 of stdout of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split())
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_stdout_and_exit_code_are_pinned(command, code, digest, monkeypatch):
    # spec paths are relative and echoed in verify output
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("MZVFF_BUDGET", raising=False)
    assert run(command) == (code, digest)


if __name__ == "__main__":
    for command, _, _ in GOLDEN:
        code, digest = run(command)
        print(f'    ("{command}", {code}, "{digest}"),')
