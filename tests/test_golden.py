"""The README CLI commands reproduce their recorded stdout and exit codes.

Every command of the README's CLI section runs in-process with --no-cache,
once with --format text and once with --format json; stdout must equal the
file under tests/golden/ byte for byte.  Regenerate the files (only when an
output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from splintbranch.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

README_COMMANDS = {
    "roots": "roots --algebra G2",
    "splint-list": "splint list --algebra B2",
    "splint-check": "splint check --splint G2:A2A2",
    "fan": "fan --algebra G2 --splint A2A2",
    "branch": "branch --algebra G2 --splint A2A2 --weight 0,1 --oracle",
    "affine-branch": "affine-branch --algebra G2 --splint A2A2 --level 1 "
                     "--weight 0,0 --grade-max 2 --oracle",
    "strings": "strings --algebra A1 --level 1 --weight 0 --grade-max 5",
    "strings-d5": "strings --algebra D5 --level 1 --weight 0,0,0,0,0 --grade-max 2",
    "strings-matrix": "strings --algebra A1 --level 2 --weight 0 --grade-max 4 "
                      "--emit matrix",
    "qdim": "qdim --algebra A1 --level 1 --weight 0 --grade-max 4",
    "verify-denominator": "verify --identity denominator --splint G2:A2A2 --grade-max 6",
    "verify-all": "verify --identity all --splint B2:A1A1 --grade-max 4",
}
CASES = [(name, fmt) for name in README_COMMANDS for fmt in ("text", "json")]
# not a README command: the A3 splint's identities, exit code 0
A3_VERIFY = "verify --identity all --splint A3:A2A1A1A1 --grade-max 3"
# not a README command: the G2 splint's identities through grade 8, exit code 0
G2_DEEP_VERIFY = "verify --identity all --splint G2:A2A2 --grade-max 8"
# not a README command: the F4 vacuum's string functions, exit code 0; with
# D5 the rank-4-and-up pins of the numerator walk, on a non-simply-laced
# coroot Gram matrix
F4_STRINGS = "strings --algebra F4 --level 1 --weight 0,0,0,0 --grade-max 2"
# not a README command: the E6 vacuum's string functions, exit code 0; the
# file was written by the product-and-division route, before the fold
E6_STRINGS = "strings --algebra E6 --level 1 --weight 0,0,0,0,0,0 --grade-max 1"


def run_case(name, fmt, command=None):
    argv = (command or README_COMMANDS[name]).split() + ["--format", fmt, "--no-cache"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def golden_path(name, fmt):
    return GOLDEN / f"{name}.{fmt}.out"


def exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name,fmt", CASES)
def test_readme_command_matches_golden(name, fmt):
    code, out = run_case(name, fmt)
    assert code == exit_codes()[f"{name}.{fmt}"]
    assert out == golden_path(name, fmt).read_text()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_a3_matches_golden(fmt):
    assert run_case("verify-a3", fmt, A3_VERIFY) == (0, golden_path("verify-a3", fmt).read_text())


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_g2_deep_matches_golden(fmt):
    assert run_case("verify-g2-deep", fmt, G2_DEEP_VERIFY) == (
        0, golden_path("verify-g2-deep", fmt).read_text())


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_strings_f4_matches_golden(fmt):
    assert run_case("strings-f4", fmt, F4_STRINGS) == (
        0, golden_path("strings-f4", fmt).read_text())


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_strings_e6_matches_golden(fmt):
    assert run_case("strings-e6", fmt, E6_STRINGS) == (
        0, golden_path("strings-e6", fmt).read_text())


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, fmt in CASES:
        code, out = run_case(name, fmt)
        codes[f"{name}.{fmt}"] = code
        golden_path(name, fmt).write_text(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(regenerate())
