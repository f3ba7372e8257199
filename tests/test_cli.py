"""End-to-end tests for the command line interface.

Every subcommand is exercised in-process through ``cli.main`` so we can
freeze exact stdout, check exit codes, and inject a rigged random source
for the integration-failure path.
"""

import argparse
import io
import json
import os
import subprocess
import sys
import textwrap
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import ellgenus
from ellgenus import cli
from ellgenus.cli import render_payload

QUINTIC_GENUS_TEXT = (
    "-100*y - 100*y^2"
    " + (100*y^-1 - 100*y - 100*y^2 + 100*y^4)*q"
    " + (100*y^-2 + 100*y^-1 - 200*y - 200*y^2 + 100*y^4 + 100*y^5)*q^2"
    " + O(q^3)"
)

D4_INFO_TEXT = """\
    O 4
    |
X---O---O
1   2   3
D4 with node 1 marked
dimension: 6
fixed points: 8"""


def run(argv):
    """Invoke the CLI in-process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# text output of each subcommand


def test_genus_quintic_text():
    code, out, _ = run(
        ["genus", "--space", "A4[1]", "--bundle", "5,0,0,0", "--order", "2"])
    assert code == 0
    assert out == QUINTIC_GENUS_TEXT + "\n"


def test_chi_y_k3_text():
    code, out, _ = run(["chi-y", "--space", "A3[1]", "--bundle", "4,0,0"])
    assert code == 0
    assert out == "2 + 20*y + 2*y^2\n"


def test_chern_gr35_text():
    code, out, _ = run(
        ["chern", "--space", "A4[3]", "--degrees", "1,1,1,1,1,1"])
    assert code == 0
    assert out == "78125\n"


def test_chern_degree_mismatch_is_zero():
    code, out, _ = run(["chern", "--space", "A4[3]", "--degrees", "2,2"])
    assert code == 0
    assert out == "0\n"


def test_info_d4_text():
    code, out, _ = run(["info", "--space", "D4[1]"])
    assert code == 0
    assert out == D4_INFO_TEXT + "\n"


def test_basis_half_integral_text():
    code, out, _ = run(
        ["basis", "--weight", "0", "--double-index", "3", "--prec", "1"])
    assert code == 0
    assert out == "1 + y + (-y^-2 + 1 + y - y^3)*q + O(q^2)\n"


def test_basis_integral_text_and_default_prec():
    code, out, _ = run(["basis", "--weight", "0", "--double-index", "2"])
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert len(lines) == 1
    assert lines[0].startswith("y^-1 + 10 + y + ")
    assert lines[0].endswith("O(q^8)")  # default window keeps q^0..q^7


def test_basis_weight_zero_index_three_has_three_elements():
    code, out, _ = run(
        ["basis", "--weight", "0", "--double-index", "6", "--prec", "0"])
    assert code == 0
    assert out.rstrip("\n").split("\n") == [
        "y^-3 + 30*y^-2 + 303*y^-1 + 1060 + 303*y + 30*y^2 + y^3 + O(q^1)",
        "y^-3 + 6*y^-2 - 33*y^-1 + 52 - 33*y + 6*y^2 + y^3 + O(q^1)",
        "y^-3 - 6*y^-2 + 15*y^-1 - 20 + 15*y - 6*y^2 + y^3 + O(q^1)",
    ]


# ---------------------------------------------------------------------------
# JSON output: schema and byte-exact agreement with the text renderer

JSON_JOBS = [
    ["genus", "--space", "A1[1]", "--order", "1"],
    ["chi-y", "--space", "A3[1]", "--bundle", "4,0,0"],
    ["chern", "--space", "A4[3]", "--degrees", "1,1,1,1,1,1"],
    ["info", "--space", "D4[1]"],
    ["basis", "--weight", "0", "--double-index", "3", "--prec", "1"],
]


@pytest.mark.parametrize("argv", JSON_JOBS, ids=lambda a: a[0])
def test_json_matches_text_rendering(argv):
    code_j, out_j, _ = run(argv + ["--format", "json"])
    code_t, out_t, _ = run(argv)
    assert code_j == 0 and code_t == 0
    payload = json.loads(out_j)
    assert render_payload(payload) == out_t.rstrip("\n")


def test_genus_json_schema():
    code, out, _ = run(
        ["genus", "--space", "A1[1]", "--order", "1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"dimension", "y_half_power", "terms", "order"}
    assert payload["dimension"] == 1
    assert payload["y_half_power"] == 1
    assert payload["order"] == 1
    assert [t["q"] for t in payload["terms"]] == [0, 1]
    assert all(set(t) == {"q", "coeffs"} for t in payload["terms"])
    assert payload["terms"][0]["coeffs"] == {"0": "1", "1": "1"}
    assert payload["terms"][1]["coeffs"] == {
        "-1": "-3", "0": "3", "1": "3", "2": "-3"}


def test_chern_json_value_is_string():
    code, out, _ = run(["chern", "--space", "A4[3]", "--degrees",
                        "1,1,1,1,1,1", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"value": "78125"}


# ---------------------------------------------------------------------------
# exit codes

MALFORMED = [
    ["info", "--space", "Z4[1]"],          # unknown series letter
    ["info", "--space", "E9[1]"],          # rank outside the classification
    ["info", "--space", "A4[9]"],          # crossed node out of range
    ["info", "--space", "A4[0]"],          # nodes are numbered from 1
    ["info", "--space", "A4[1,1]"],        # duplicate crossed node
    ["info", "--space", "A4"],             # missing bracket list
    ["genus", "--space", "A4[1]", "--order", "-1"],
    ["genus", "--space", "A4[1]", "--bundle", "1,x,0,0"],
    ["chern", "--space", "A4[3]", "--degrees", "1,1,1,1,1,x"],
    ["basis", "--weight", "0"],            # argparse: missing --double-index
]


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_malformed_requests_exit_2(argv):
    code, out, _ = run(argv)
    assert code == 2
    assert out == ""


def test_unsupported_type_names_the_supported_ranks():
    code, out, err = run(["info", "--space", "C2[1]"])
    assert (code, out) == (2, "")
    assert err == ("error: unsupported type C2; the supported types are "
                   "A1+, B2+, C3+, D4+, E6-E8, F4, G2\n")


INVALID = [
    ["basis", "--weight", "1", "--double-index", "2"],   # odd weight
    ["basis", "--weight", "0", "--double-index", "-2"],  # negative index
    ["chern", "--space", "A4[3]", "--degrees", "7"],     # degree > dim
    ["chern", "--space", "A4[3]", "--degrees", "0,6"],   # degree < 1
    ["chi-y", "--space", "A3[1]", "--bundle", "2,2,2,2"],  # dim < 0
    ["chi-y", "--space", "A4[1]", "--bundle", "1,0"],    # too few coordinates
]


@pytest.mark.parametrize("argv", INVALID, ids=" ".join)
def test_mathematically_invalid_requests_exit_3(argv):
    code, out, err = run(argv)
    assert code == 3
    assert out == ""
    assert err != ""


def test_input_checks_raise_invalid_input():
    from ellgenus import (EllgenusError, InvalidInput, basis_half_integral,
                          basis_integral, chern_number, homogeneous_space,
                          parabolic, root_system)
    assert issubclass(InvalidInput, EllgenusError)
    assert issubclass(InvalidInput, ValueError)
    for bad in (lambda: chern_number(homogeneous_space("A4", [3]), [9]),
                lambda: root_system("A4").weight_from_fundamental((1, 0)),
                lambda: parabolic("A4", [7]),
                lambda: basis_integral(0, -1),
                lambda: basis_half_integral(0, -2)):
        with pytest.raises(InvalidInput):
            bad()


def test_internal_value_error_is_not_reported_as_invalid_input(monkeypatch):
    # only InvalidInput means a bad request; any other ValueError is a
    # fault of the program and propagates instead of exiting 3
    from ellgenus.homog import HomogeneousSpace

    def broken(self, point, integrands, section=()):
        raise ValueError("internal fault")

    monkeypatch.setattr(HomogeneousSpace, "localization_sum", broken)
    with pytest.raises(ValueError, match="internal fault"):
        run(["chern", "--space", "A4[3]", "--degrees", "6"])


def test_internal_value_error_in_parabolic_is_not_a_malformed_space(
        monkeypatch):
    # only UnknownType and InvalidInput mean a malformed space; any other
    # ValueError while building it is a fault and propagates, not exit 2
    from ellgenus.roots import RootSystem

    def broken(self, scale, scaled):
        raise ValueError("internal fault")

    assert run(["chi-y", "--space", "A4[7]"]) == (
        2, "", "error: crossed nodes must lie in 1..4\n")
    monkeypatch.setattr(RootSystem, "_build_roots", broken)
    with pytest.raises(ValueError, match="internal fault"):
        run(["chi-y", "--space", "A4[1]"])


def test_euler_number_of_e8_8_is_240():
    # the one 57-dimensional integral: e(TM) of E8[8] is a product of 57
    # tangent roots, and its Euler number is |W^P| = 240
    argv = ["chern", "--space", "E8[8]", "--degrees", "57", "--seed", "1"]
    assert run(argv) == (0, "240\n", "")


@pytest.mark.parametrize("command", [
    ["chern", "--degrees", "1,1,1,1,1,1"], ["genus"], ["chi-y"],
], ids=lambda argv: argv[0])
def test_mode_option_is_refused(command):
    # every integral is exact; there is no float mode to select
    code, out, err = run(command + ["--space", "A4[3]", "--mode", "float"])
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --mode float" in err


@pytest.mark.parametrize("argv", [
    ["chern", "--space", "A4[3]", "--degrees", "3,3"],
    ["chi-y", "--space", "A3[1]", "--bundle", "4,0,0"],
], ids=" ".join)
def test_failed_self_check_exits_4(argv, drifting_point_sums):
    code, out, err = run(argv)
    assert code == 4
    assert out == ""
    assert "integration failed" in err


def test_failed_calabi_yau_fit_exits_4(monkeypatch):
    from ellgenus import genus

    real = genus._universal_genus
    # a constant term puts the quintic's q^0 row outside the weak Jacobi span
    monkeypatch.setattr(genus, "_universal_genus",
                        lambda m, k, rng: real(m, k, rng) + 1)
    code, out, err = run(
        ["genus", "--space", "A4[1]", "--bundle", "5,0,0,0", "--order", "3"])
    assert code == 4
    assert out == ""
    assert "not a weak Jacobi form" in err


E8_FLAG = "E8[1,2,3,4,5,6,7,8]"


def test_info_counts_full_e8_flag_without_walking(no_walk):
    code, out, _ = run(["info", "--space", E8_FLAG])
    assert code == 0
    assert out.endswith("dimension: 120\nfixed points: 696729600\n")


def test_too_many_fixed_points_exits_5(no_walk):
    start = time.perf_counter()
    code, out, err = run(["chern", "--space", E8_FLAG, "--degrees", "120"])
    assert time.perf_counter() - start < 1.0
    assert code == 5
    assert out == ""
    assert "696729600" in err


@pytest.mark.parametrize("argv,count", [
    (["genus", "--space", E8_FLAG, "--order", "0"], "696729600"),
    (["chi-y", "--space", "E7[1,2,3,4,5,6,7]"], "2903040"),
    # 51840 fixed points pass their guard; dim 36 has p(36) = 17977 monomials
    (["genus", "--space", "E6[1,2,3,4,5,6]", "--order", "0"], "17977"),
    (["chi-y", "--space", "E6[1,2,3,4,5,6]"], "17977"),
    # 40320 fixed points and p(28) = 3718 monomials pass their guards, but
    # not their product
    (["chi-y", "--space", "A7[1,2,3,4,5,6,7]"], "149909760"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_genus_refuses_huge_space_before_universal_series(argv, count, no_walk):
    start = time.perf_counter()
    code, out, err = run(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 5
    assert out == ""
    assert count in err


def test_unknown_command_is_refused_not_computed():
    with pytest.raises(cli.SpecError, match="unknown command"):
        cli._payload(argparse.Namespace(command="euler", space="A4[1]"), None)


def test_unknown_command_refusal_survives_optimized_python():
    script = textwrap.dedent("""
        import argparse

        from ellgenus import cli

        assert False, "assert statements are still active"
        try:
            cli._payload(argparse.Namespace(command="euler", space="A4[1]"),
                         None)
        except cli.SpecError:
            print("SpecError")
    """)
    src = str(Path(ellgenus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-O", "-c", script],
                            capture_output=True, text=True, env=env,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "SpecError"


def test_seeded_run_is_deterministic():
    argv = ["chern", "--space", "A4[3]", "--degrees", "1,1,1,1,1,1",
            "--seed", "7"]
    first = run(argv)
    second = run(argv)
    assert first == second
    assert first[0] == 0
    assert first[1] == "78125\n"


# ---------------------------------------------------------------------------
# argument parsing round-trips


def test_one_parser_serves_every_command_of_a_session():
    sessions = [
        ["info", "--space", "D4[1]"],
        ["chern", "--space", "A4[3]", "--degrees", "1,1,1,1,1,1", "--seed", "3"],
        ["chi-y", "--space", "A3[2]", "--format", "json"],
        ["genus", "--space", "A4[1]", "--order", "1", "--bundle", "5,0,0,0"],
        ["basis", "--weight", "0", "--double-index", "3", "--prec", "2"],
        ["genus", "--space", "A4[1]", "--order", "-1"],
        ["basis", "--weight", "0"],
        ["info", "--space", "B3[3]"],
    ]
    fresh = []
    for argv in sessions:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    cli._build_parser.cache_clear()
    shared = [run(argv) for argv in sessions]
    assert cli._build_parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 2, 2, 0]


def test_parse_args_canonicalizes_space_and_bundles():
    argv = ["genus", "--space", "g2[2,1]", "--bundle", "2,0", "--order", "3",
            "--format", "json", "--seed", "11"]
    args = cli.parse_args(argv)
    assert args.space == "G2[1,2]"  # canonical case and node order
    assert args.bundles == ((2, 0),)
    assert (args.order, args.fmt, args.seed) == (3, "json", 11)


def test_parse_space_accepts_and_canonicalizes():
    assert cli.parse_space("A4[3]") == ("A", 4, (3,))
    assert cli.parse_space("d5[4,2]") == ("D", 5, (2, 4))


@pytest.mark.parametrize("text", ["", "A4", "A[1]", "4A[1]", "A4[]",
                                  "A4[1,]", "A4[1 2]", "H2[1]"])
def test_parse_space_rejects_bad_grammar(text):
    with pytest.raises(cli.SpecError):
        cli.parse_space(text)


# ---------------------------------------------------------------------------
# the installed entry point against the README


def _readme_examples():
    """(argv, expected stdout) of every `$ ellgenus ...` line in README.md;
    the expected text runs to the next blank, `$` or fence line."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("$ ellgenus "):
            out = []
            for nxt in lines[i + 1:]:
                if not nxt or nxt.startswith(("$", "```")):
                    break
                out.append(nxt)
            examples.append((line[2:].split(), "\n".join(out)))
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_shows_six_cli_examples():
    assert len(README_EXAMPLES) == 6


@pytest.mark.parametrize("argv,expected", README_EXAMPLES,
                         ids=[" ".join(argv[1:]) for argv, _ in README_EXAMPLES])
def test_readme_example_through_console_main(argv, expected, monkeypatch):
    # console_main is the [project.scripts] target; an elided middle
    # (" ... ") compares the prefix and the suffix around it
    monkeypatch.setattr(sys, "argv", argv)
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as stop:
        cli.console_main()
    assert stop.value.code == 0
    text = out.getvalue()
    head, elided, tail = expected.partition(" ... ")
    if elided:
        assert text.startswith(head + " ") and text.endswith(" " + tail + "\n")
        assert len(text) > len(head) + len(tail) + 3
    else:
        assert text == expected + "\n"
