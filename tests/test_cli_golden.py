"""Frozen stdout and exit codes of the console script.

Every case in ``golden/cases.json`` names an argv and its exit code; the
expected stdout sits beside it in ``golden/<name>.out`` and must match byte
for byte.  The files were written once from the CLI and are edited by hand
only when an output change is intended.
"""

import json
from pathlib import Path

import pytest

from ame.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def expected_stdout(name: str) -> str:
    return (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_matches_golden(capsys, case):
    code = main(case["argv"].split())
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out == expected_stdout(case["name"])


@pytest.mark.parametrize(
    "name, fragment",
    [
        # a missing witness reads "none" in md but is an empty field in csv
        ("check_n7_d2_md", "\nwitness i: none\n"),
        ("check_n7_d2_csv", "\n7,2,4,2816,22,true,false,\n"),
        # the csv scan summary is a comment line
        ("scan_d3_n13_csv", "\n# first negative trace always at i=2: holds\n"),
        ("solve_n8_d2_md", "\n| l\\j | 1 | 2 | 3 | 4 |\n"),
    ],
)
def test_golden_pins_format_details(name, fragment):
    assert fragment in expected_stdout(name)


def test_md_solve_ends_without_blank_line_unless_inverse_shown():
    assert not expected_stdout("solve_n8_d2_md").endswith("\n\n")
    assert expected_stdout("solve_n4_d3_inverse_md").endswith("(exact)\n")


def test_golden_covers_every_exit_code():
    assert {c["exit"] for c in CASES} == {0, 1, 2}
