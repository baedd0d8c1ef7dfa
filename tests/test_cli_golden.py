"""Golden CLI transcripts: every subcommand's stdout, stderr and exit code,
compared byte for byte with ``golden/cli_transcripts.json``.

The transcripts pin the CLI's output while its internals change.  To
record them afresh (only for an intended change of output, which the
change log must name), run from the root of a checkout:

    PYTHONPATH=src python tests/test_cli_golden.py

``{golden}`` in an argument or an output stands for the ``golden``
directory.  Help and usage text are formatted at 80 columns.
"""

import io
import json
import os
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
TRANSCRIPTS = GOLDEN / "cli_transcripts.json"
COLUMNS = "80"

_FULL_THM1 = ["--h", "0", "--c13", "4", "--c12H", "6", "--c1H2", "6",
              "--c2H", "24", "--H3", "6"]

COMMANDS = [
    # top level
    [],
    ["--help"],
    ["nosuch"],
    # thm1
    ["thm1", *_FULL_THM1],
    ["thm1", "--symbolic-h", *_FULL_THM1[2:]],
    ["thm1", "--h", "2", "--c13", "1/2", "--c12H", "-3/4", "--c1H2", "5/3",
     "--c2H", "24", "--H3", "7/2"],
    ["thm1", "--c13", "-1/2", "--c2H", "10/4"],
    ["thm1"],
    ["thm1", "--h", "-1"],
    ["thm1", "--h", "1/2"],
    ["thm1", "--h", "3", "--symbolic-h"],
    ["thm1", "--c13", "abc"],
    ["thm1", "--c13", "1/0"],
    ["thm1", "--help"],
    # thm2
    ["thm2", "--bundle", "P1: O(0)^2 + O(1) + O(2)", "--k", "0"],
    ["thm2", "--bundle", "P1: O(0)^2 + O(1) + O(2)", "--k", "-3", "--a", "5"],
    ["thm2", "--bundle", "P1: O(-4) + O(7)^2 + O(9)", "--k", "2"],
    ["thm2", "--bundle", "P1: O(0) + O(1) + O(2) + O(3)", "--k", "0"],
    ["thm2", "--bundle", "P2: O(0)^2 + O(1)^2", "--k", "0"],
    ["thm2", "--bundle", "P1: O(0)^2 + O(1)", "--k", "0"],
    ["thm2", "--bundle", "P1: O(0)^5", "--k", "0"],
    ["thm2", "--bundle", "P1: O(0) + X", "--k", "0"],
    ["thm2", "--bundle", "P1: O(0)^4"],
    ["thm2", "--help"],
    # thm3
    ["thm3", "--bundle", "P2: rank2(c1=3,c2=3)"],
    ["thm3", "--bundle", "P2: O(-1) + O(4)"],
    ["thm3", "--bundle", "P2: rank2(c1=40,c2=-40)"],
    ["thm3", "--bundle", "P2: rank2(c1=-7,c2=11)"],
    ["thm3", "--bundle", "P1: O(0)^2"],
    ["thm3", "--bundle", "P2: O(0)^3"],
    ["thm3", "--help"],
    # chi-f
    ["chi-f", "--x", "0", "--y", "-2", "--p", "5", "--q", "7"],
    ["chi-f", "--x", "1", "--y", "3", "--p", "1", "--q", "2", "--oracle"],
    ["chi-f", "--x", "-5", "--y", "1000", "--p", "3", "--q", "-2", "--oracle"],
    ["chi-f", "--x", "1", "--y", "1001", "--p", "1", "--q", "2", "--oracle"],
    ["chi-f", "--x", "1", "--y", "-1", "--p", "1", "--q", "2", "--oracle"],
    ["chi-f", "--x", "1", "--y", "2"],
    ["chi-f", "--help"],
    # bott-report
    ["bott-report"],
    ["bott-report", "--json"],
    ["bott-report", "--cases", "{golden}/cases_all_geometries.ini"],
    ["bott-report", "--cases", "{golden}/cases_all_geometries.ini", "--json"],
    ["bott-report", "--cases", "{golden}/cases_bad_h.ini"],
    ["bott-report", "--cases", "{golden}/cases_bad_field.ini"],
    ["bott-report", "--cases", "{golden}/no_such_file.ini"],
    ["bott-report", "--help"],
    # chow-eval
    ["chow-eval", "--ring", "plane:3,3", "--expr", "H^2*U"],
    ["chow-eval", "--ring", "plane:1,2", "--expr", "(H + U)^3 - 1/2*H*U + 3"],
    ["chow-eval", "--ring", "line:0,0,1,2", "--expr", "(H+U)^4"],
    ["chow-eval", "--ring", "line:0,0,1,2", "--expr", "-U^3*H"],
    ["chow-eval", "--ring", "plane:2,-1", "--expr=-U+H"],
    ["chow-eval", "--ring", "line:1,1,0,-3", "--expr=-U^3+1/3*U^4"],
    ["chow-eval", "--ring", "plane:2,-1", "--expr", "1/2*H - U^2 + 2/3*H*U - 1"],
    ["chow-eval", "--ring", "line:1,1,0,-3", "--expr=-2/3 + H - 5/2*U^2 + U^3 - H*U^3"],
    ["chow-eval", "--ring", "plane:3,3", "--expr", "0"],
    ["chow-eval", "--ring", "line:0,0,1,2", "--expr", "0"],
    ["chow-eval", "--ring", "cone:1,2", "--expr", "H"],
    ["chow-eval", "--ring", "plane:1", "--expr", "H"],
    ["chow-eval", "--ring", "plane:1,2", "--expr", "H/0"],
    ["chow-eval", "--ring", "plane:1,2", "--expr", "1/0"],
    ["chow-eval", "--ring", "plane:1,2", "--expr", "H^-1"],
    ["chow-eval", "--ring", "plane:1,2"],
    ["chow-eval", "--help"],
]


def transcript(argv):
    """Run one command in-process; ``{golden}`` is resolved going in and
    restored coming out, so the transcript does not depend on where the
    checkout lives."""
    from bottcheck import cli

    golden = str(GOLDEN)
    out, err = io.StringIO(), io.StringIO()
    code = cli.run([a.replace("{golden}", golden) for a in argv], out=out, err=err)
    return {
        "argv": argv,
        "code": code,
        "out": out.getvalue().replace(golden, "{golden}"),
        "err": err.getvalue().replace(golden, "{golden}"),
    }


# Missing only while the file is being recorded; the first test then fails.
RECORDED = (
    json.loads(TRANSCRIPTS.read_text(encoding="utf-8")) if TRANSCRIPTS.exists() else []
)


def test_transcripts_cover_the_command_list():
    assert [t["argv"] for t in RECORDED] == COMMANDS


@pytest.mark.parametrize("want", RECORDED, ids=lambda t: " ".join(t["argv"]) or "(none)")
def test_cli_output_matches_transcript(monkeypatch, want):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert transcript(want["argv"]) == want


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    records = [transcript(argv) for argv in COMMANDS]
    TRANSCRIPTS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} transcripts to {TRANSCRIPTS}", file=sys.stderr)
