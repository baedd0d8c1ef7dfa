import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from bottcheck import bottcases, cli, theorems
from bottcheck.cli import BundleExpr, InputError, parse_bundle
from bottcheck.exact import UniPoly, quoted


SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestParseBundle:
    def test_line_base(self):
        expr = parse_bundle("P1: O(0)^2 + O(1) + O(2)")
        assert expr == BundleExpr("P1", (0, 0, 1, 2), None)

    def test_abstract_plane(self):
        expr = parse_bundle("P2: rank2(c1=3,c2=3)")
        assert expr == BundleExpr("P2", None, (3, 3))

    def test_whitespace_insensitive(self):
        assert parse_bundle("P1:O(0)^2+O(1)+O(2)") == parse_bundle(
            " P1 : O( 0 ) ^ 2 + O( 1 ) + O( 2 ) "
        )

    def test_parses_the_documented_forms(self):
        assert parse_bundle("P1: O(0)^2 + O(1) + O(2)") == BundleExpr(
            "P1", (0, 0, 1, 2), None)
        assert parse_bundle("P2: rank2(c1=3,c2=3)") == BundleExpr("P2", None, (3, 3))
        assert parse_bundle("P2: O(-1) + O(4)") == BundleExpr("P2", (-1, 4), None)

    def test_errors_carry_position(self):
        with pytest.raises(InputError, match="position"):
            parse_bundle("P1: O(0) + X")

    def test_rank2_on_line_rejected(self):
        with pytest.raises(InputError):
            parse_bundle("P1: rank2(c1=1,c2=1)")


class TestThm1Command:
    def test_table8_no1(self):
        code, out, _ = run(
            ["thm1", "--h", "0", "--c13", "4", "--c12H", "6", "--c1H2", "6",
             "--c2H", "24", "--H3", "6"]
        )
        assert code == 0
        assert out == "closed:  14\nderived: 14\nMATCH\n"

    def test_symbolic_h(self):
        code, out, _ = run(
            ["thm1", "--symbolic-h", "--c13", "4", "--c12H", "6", "--c1H2", "6",
             "--c2H", "24", "--H3", "6"]
        )
        assert code == 0
        assert "14 + h" in out

    def test_corrupted_closed_form_trips_the_harness(self, monkeypatch):
        real = theorems.thm1_closed
        monkeypatch.setattr(theorems, "thm1_closed", lambda n: real(n) + 1)
        code, out, _ = run(
            ["thm1", "--h", "0", "--c13", "4", "--c12H", "6", "--c1H2", "6",
             "--c2H", "24", "--H3", "6"]
        )
        assert code == 1
        assert "MISMATCH" in out


class TestThm2Command:
    def test_example(self):
        code, out, _ = run(["thm2", "--bundle", "P1: O(0)^2 + O(1)^2", "--k", "0"])
        assert code == 0
        assert out == "chain:  4\nclosed: 4\nMATCH\n"

    def test_wrong_rank(self):
        code, _, err = run(["thm2", "--bundle", "P1: O(1) + O(2)", "--k", "0"])
        assert code == 2 and "4 summands" in err

    def test_all_distinct_hypothesis_violation(self):
        code, _, err = run(
            ["thm2", "--bundle", "P1: O(0) + O(1) + O(2) + O(3)", "--k", "0"]
        )
        assert code == 2 and "distinct" in err

    def test_corrupted_closed_form_trips_the_harness(self, monkeypatch):
        monkeypatch.setattr(theorems, "thm2_closed", lambda inp: 999)
        code, out, _ = run(["thm2", "--bundle", "P1: O(0)^2 + O(1)^2", "--k", "0"])
        assert code == 1 and "MISMATCH" in out


class TestThm3Command:
    def test_abstract(self):
        code, out, _ = run(["thm3", "--bundle", "P2: rank2(c1=3,c2=3)"])
        assert code == 0
        assert "Q(-1):  0" in out
        assert "closed: 0" in out
        assert "hrr-crosscheck: MATCH" in out
        assert "h0:" not in out

    def test_split_reports_h0(self):
        code, out, _ = run(["thm3", "--bundle", "P2: O(0) + O(3)"])
        assert code == 0
        assert "h0: 3" in out


class TestChiFCommand:
    def test_vanishing_band(self):
        code, out, _ = run(["chi-f", "--x", "0", "--y", "-2", "--p", "5", "--q", "7"])
        assert code == 0
        assert out == "f(0,-2) = 0\n"

    def test_oracle(self):
        code, out, _ = run(
            ["chi-f", "--x", "1", "--y", "1", "--p", "1", "--q", "2", "--oracle"]
        )
        assert code == 0
        assert "f(1,1) = 11" in out and "MATCH" in out

    def test_oracle_domain(self):
        code, _, err = run(
            ["chi-f", "--x", "0", "--y", "-1", "--p", "0", "--q", "0", "--oracle"]
        )
        assert code == 2 and "y >= 0" in err


class TestChowEvalCommand:
    def test_line_reduction(self):
        code, out, _ = run(
            ["chow-eval", "--ring", "line:0,0,1,2", "--expr", "U^4"]
        )
        assert code == 0
        assert out == "class:  3*H*U^3\ndegree: 3\n"

    def test_plane_expression(self):
        code, out, _ = run(
            ["chow-eval", "--ring", "plane:3,3", "--expr", "(U - 3*H) * U"]
        )
        assert code == 0
        assert "-3*H^2" in out

    def test_render_parse_round_trip(self):
        code, out, _ = run(["chow-eval", "--ring", "plane:3,3", "--expr", "U^2"])
        rendered = out.splitlines()[0].split(":", 1)[1].strip()
        code2, out2, _ = run(["chow-eval", "--ring", "plane:3,3", "--expr", rendered])
        assert code2 == 0 and out2 == out

    def test_bad_ring(self):
        code, _, err = run(["chow-eval", "--ring", "cube:1", "--expr", "H"])
        assert code == 2 and "ring" in err

    def test_parse_error(self):
        code, _, err = run(["chow-eval", "--ring", "plane:1,1", "--expr", "H + *"])
        assert code == 2 and "position" in err


class TestBottReportCommand:
    def test_builtin_text(self):
        code, out, _ = run(["bott-report"])
        assert code == 0
        assert "table8-no1" in out and "14 + h" in out

    def test_json(self):
        code, out, _ = run(["bott-report", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert any(row["id"] == "table9" for row in payload)

    def test_cases_file(self, tmp_path):
        path = tmp_path / "cases.ini"
        path.write_text(
            "[only]\ngeometry = table9\nc13 = 2\nc12H = 5\nc1H2 = 10\n"
            "c2H = 45\nH3 = 20\nprovenance = user\n"
        )
        code, out, _ = run(["bott-report", "--cases", str(path)])
        assert code == 0 and "20 + h" in out

    def test_missing_file(self):
        code, _, err = run(["bott-report", "--cases", "/nonexistent.ini"])
        assert code == 2 and "error" in err

    @pytest.mark.parametrize(
        "text",
        [
            "h = 3\n[r]\ngeometry = table8\n",
            "[r]\ngeometry = table8\n[r]\ngeometry = table9\n",
            "[r]\ngeometry = table8\nh = 1\nh = 2\n",
            "[r]\ngeometry = table8\nh = -5\n",
        ],
        ids=["no-section-header", "duplicate-section", "duplicate-option",
             "negative-h"],
    )
    def test_bad_cases_file_exits_2(self, tmp_path, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        code, out, err = run(["bott-report", "--cases", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_registry_mismatch_exits_1(self, monkeypatch):
        # The derived form is cached per process; the comparison against
        # the closed route must still run on every record.
        real = theorems.thm1_closed
        monkeypatch.setattr(theorems, "thm1_closed", lambda n: real(n) + 1)
        code, out, err = run(["bott-report"])
        assert code == 1 and out == ""
        assert err == (
            "MISMATCH: record 'conic': closed and derived obstruction disagree\n"
        )

    def test_chain_depending_on_twist_exits_1(self, monkeypatch):
        monkeypatch.setattr(theorems, "thm2_chain_poly", lambda p, q, k: UniPoly((0, 1)))
        code, _, err = run(["thm2", "--bundle", "P1: O(0)^2 + O(1)^2", "--k", "0"])
        assert code == 1
        assert err.startswith("MISMATCH: ") and err.count("\n") == 1


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["thm1", "--h", "0", "--c13", "4", "--c12H", "6", "--c1H2", "6",
             "--c2H", "24", "--H3", "6"],
            ["thm2", "--bundle", "P1: O(0)^2 + O(1)^2", "--k", "0"],
            ["thm3", "--bundle", "P2: rank2(c1=3,c2=3)"],
            ["chi-f", "--x", "0", "--y", "-2", "--p", "5", "--q", "7"],
            ["bott-report"],
            ["bott-report", "--json"],
            ["chow-eval", "--ring", "line:0,0,1,2", "--expr", "U^4"],
        ],
    )
    def test_byte_identical_output(self, argv):
        assert run(argv) == run(argv)

    def test_unknown_flag_exits_2(self, capsys):
        code, _, err = run(["thm1", "--bogus", "1"])
        assert code == 2
        assert "unrecognized arguments" in err
        assert capsys.readouterr().err == ""


class TestChowEvalPower:
    def test_large_exponent_by_squaring(self):
        start = time.perf_counter()
        code, out, err = run(
            ["chow-eval", "--ring", "plane:3,3", "--expr", "(1+U)^100000"]
        )
        elapsed = time.perf_counter() - start
        assert (code, err) == (0, "")
        assert out == (
            "class:  1 + 100000*U + 14999850000*H*U - 14999850000*H^2"
            " + 999970000200000*H^2*U\n"
            "degree: 999970000200000\n"
        )
        assert elapsed < 2

    def test_negative_exponent_exits_2(self):
        code, out, err = run(["chow-eval", "--ring", "plane:3,3", "--expr", "U^-1"])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestCaseFileValues:
    def test_non_integer_h_exits_2(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(
            "[r]\ngeometry = table8\nh = 1/2\nc13 = 4\nc12H = 6\n"
            "c1H2 = 6\nc2H = 24\nH3 = 6\n"
        )
        code, out, err = run(["bott-report", "--cases", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'h'" in err

    def test_percent_in_provenance(self, tmp_path):
        path = tmp_path / "cases.ini"
        path.write_text(
            "[r]\ngeometry = table8\nh = 0\nc13 = 4\nc12H = 6\n"
            "c1H2 = 6\nc2H = 24\nH3 = 6\nprovenance = 50% done\n"
        )
        code, out, err = run(["bott-report", "--cases", str(path), "--json"])
        assert (code, err) == (0, "")
        assert json.loads(out)[0]["provenance"] == "50% done"


THM1_NUMERICS = ["--c13", "4", "--c12H", "6", "--c1H2", "6", "--c2H", "24",
                 "--H3", "6"]


class TestThm1HodgeNumber:
    @pytest.mark.parametrize("h", ["1/2", "-3", "7/3"])
    def test_bad_h_exits_2(self, h):
        code, out, err = run(["thm1", "--h", h, *THM1_NUMERICS])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: --h {h}: ") and err.count("\n") == 1

    def test_same_rule_as_case_files(self, tmp_path):
        for h in ("1/2", "-3"):
            path = tmp_path / "case.ini"
            path.write_text(f"[r]\ngeometry = table8\nh = {h}\n")
            _, _, registry_err = run(["bott-report", "--cases", str(path)])
            _, _, cli_err = run(["thm1", "--h", h, *THM1_NUMERICS])
            message = cli_err.rstrip("\n").split(": ")[-1]
            assert registry_err.rstrip("\n").endswith(message)

    def test_integral_fraction_is_read_as_integer(self):
        assert run(["thm1", "--h", "4/2", *THM1_NUMERICS]) == run(
            ["thm1", "--h", "2", *THM1_NUMERICS])

    def test_omitted_h_stays_symbolic(self):
        code, out, err = run(["thm1", *THM1_NUMERICS])
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "closed:  14 + h"


class TestChowEvalSizeLimit:
    def test_huge_power_stops_before_building_it(self):
        start = time.perf_counter()
        code, out, err = run(
            ["chow-eval", "--ring", "plane:1,1", "--expr", "2^30000000"])
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "30000000" in err and "Exceeds the limit" not in err

    def test_exponent_past_memory_exits_2(self):
        code, out, err = run(
            ["chow-eval", "--ring", "line:0,0,1,2", "--expr", "(2+U)^1000000000000"])
        assert (code, out) == (2, "") and "1000000000000" in err

    def test_powers_within_the_limit_still_print(self):
        code, out, err = run(["chow-eval", "--ring", "plane:1,1", "--expr", "2^14000"])
        assert (code, err) == (0, "")
        assert out == f"class:  {2 ** 14000}\ndegree: 0\n"
        code, out, _ = run(
            ["chow-eval", "--ring", "plane:3,3", "--expr", "U^1000000000000"])
        assert code == 0 and out.startswith("class:  ")

    def test_no_bound_when_python_sets_none(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            code, out, _ = run(
                ["chow-eval", "--ring", "plane:1,1", "--expr", "(1/3)^10000"])
            want = f"class:  1/{3 ** 10000}\n"
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0 and out.startswith(want)


class TestParserStreams:
    @pytest.mark.parametrize(
        "argv, code, to",
        [
            (["thm2"], 2, "err"),
            (["frob"], 2, "err"),
            (["thm1", "--h", "x"], 2, "err"),
            (["--help"], 0, "out"),
            (["thm3", "--help"], 0, "out"),
        ],
    )
    def test_parser_writes_to_given_streams(self, capsys, argv, code, to):
        got, out, err = run(argv)
        assert got == code
        assert capsys.readouterr() == ("", "")
        written = {"out": out, "err": err}
        assert written[to].startswith("usage: bottcheck")
        assert written["err" if to == "out" else "out"] == ""
        if to == "err":
            assert err.splitlines()[-1].startswith("bottcheck")
            assert ": error: " in err.splitlines()[-1]

    def test_fresh_process_output_unchanged(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "bottcheck.cli", "thm2"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "usage: bottcheck thm2 [-h] --bundle BUNDLE --k K\n"
            "bottcheck thm2: error: the following arguments are required: "
            "--bundle, --k\n"
        )


class TestNegativeFractionValues:
    def test_negative_fraction_is_a_value(self):
        code, out, err = run(["thm1", "--c13", "-1/2", "--h", "0"])
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "MATCH"
        assert run(["thm1", "--c13=-1/2", "--h", "0"]) == (code, out, err)

    def test_negative_fraction_h_meets_the_hodge_rule(self):
        code, out, err = run(["thm1", "--h", "-1/3", *THM1_NUMERICS])
        assert (code, out) == (2, "")
        assert err == "error: --h -1/3: the Hodge number h must be >= 0\n"

    def test_other_dash_words_are_still_flags(self):
        code, _, err = run(["thm1", "--c13", "-x"])
        assert code == 2 and "expected one argument" in err


class TestChowEvalOperationBound:
    def test_product_of_in_bound_powers_exits_2(self):
        code, out, err = run(
            ["chow-eval", "--ring", "plane:1,1", "--expr", "2^14000*2^14000"])
        assert (code, out) == (2, "")
        assert err == (
            "error: the product ending at position 15 has a coefficient of "
            f"more than {sys.get_int_max_str_digits()} digits\n"
        )

    def test_sum_past_the_bound_exits_2(self):
        nines = "9" * sys.get_int_max_str_digits()
        code, out, err = run(
            ["chow-eval", "--ring", "plane:1,1", "--expr", f"{nines}+{nines}"])
        assert (code, out) == (2, "")
        assert err.startswith("error: the sum ending at position ")
        assert "Exceeds the limit" not in err and err.count("\n") == 1

    def test_products_within_the_bound_still_print(self):
        code, out, err = run(
            ["chow-eval", "--ring", "plane:1,1", "--expr", "2^7000*2^7000"])
        assert (code, err) == (0, "")
        assert out == f"class:  {2 ** 14000}\ndegree: 0\n"


class TestParserBuiltOnce:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_each_run_writes_to_its_own_streams(self, capsys):
        first = run(["thm2"])
        second = run(["--help"])
        third = run(["thm2"])
        assert capsys.readouterr() == ("", "")
        assert first == third and first[0] == 2 and first[1] == ""
        assert second[0] == 0 and second[1].startswith("usage: bottcheck")
        assert second[2] == ""


class TestChowEvalLiteralBound:
    def test_literal_past_the_digit_limit_exits_2(self):
        limit = sys.get_int_max_str_digits()
        for expr, pos in (("9" * (limit + 1), 0), ("H + 1/" + "9" * (limit + 1), 6),
                          ("U^" + "9" * (limit + 1), 2)):
            code, out, err = run(["chow-eval", "--ring", "plane:1,1", "--expr", expr])
            assert (code, out) == (2, "")
            assert err == (
                f"error: the integer at position {pos} has more than {limit} digits\n"
            )

    def test_literal_at_the_digit_limit_still_prints(self):
        nines = "9" * sys.get_int_max_str_digits()
        code, out, err = run(["chow-eval", "--ring", "plane:1,1", "--expr", nines])
        assert (code, err) == (0, "")
        assert out == f"class:  {nines}\ndegree: 0\n"

    def test_bundle_literal_past_the_digit_limit_exits_2(self):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(
            ["thm3", "--bundle", "P2: O(" + "1" * (limit + 1) + ") + O(0)"])
        assert (code, out) == (2, "")
        assert err == f"error: the integer at position 6 has more than {limit} digits\n"


class TestExitCodeHoles:
    def test_symbolic_h_with_h_exits_2(self):
        for argv in (["thm1", "--h", "3", "--symbolic-h"],
                     ["thm1", "--symbolic-h", "--h", "3"]):
            code, out, err = run(argv)
            assert (code, out) == (2, "")
            assert err == (
                "error: --symbolic-h keeps h symbolic, so it cannot be given "
                "with --h\n"
            )

    def test_symbolic_h_alone_still_symbolic(self):
        code, out, err = run(["thm1", "--symbolic-h", *THM1_NUMERICS])
        assert (code, err) == (0, "")
        assert out.splitlines() == ["closed:  14 + h", "derived: 14 + h", "MATCH"]

    def test_huge_multiplicity_exits_2_before_building(self):
        code, out, err = run(
            ["thm2", "--bundle", "P1: O(0)^10000000000", "--k", "0"])
        assert (code, out) == (2, "")
        assert err == (
            "error: multiplicity must be <= 4, the largest rank any command "
            "takes, got 10000000000\n"
        )

    def test_multiplicity_up_to_four_is_read(self):
        assert parse_bundle("P1: O(0)^4") == BundleExpr("P1", (0, 0, 0, 0), None)
        with pytest.raises(InputError, match="multiplicity must be <= 4"):
            parse_bundle("P1: O(0)^5")

    def test_oracle_y_is_bounded(self):
        code, out, err = run(
            ["chi-f", "--x", "0", "--y", "100000000", "--p", "0", "--q", "0",
             "--oracle"])
        assert code == 2
        assert err == f"error: the splitting oracle needs y <= {cli.MAX_ORACLE_Y}\n"
        assert cli.MAX_ORACLE_Y == 1000
        assert run(["chi-f", "--x", "0", "--y", "100000000", "--p", "0",
                    "--q", "0"])[0] == 0

    def test_oracle_at_the_bound_still_runs(self):
        code, out, err = run(
            ["chi-f", "--x", "1", "--y", "1000", "--p", "1", "--q", "2", "--oracle"])
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "MATCH"


class TestOracleRangeCheckedFirst:
    @pytest.mark.parametrize("y", ["1001", "-1"])
    def test_out_of_range_y_prints_nothing_on_stdout(self, y):
        code, out, err = run(
            ["chi-f", "--x", "1", "--y", y, "--p", "1", "--q", "2", "--oracle"])
        assert (code, out) == (2, "")
        assert err.startswith("error: the splitting oracle needs y ")
        assert err.count("\n") == 1


class TestExponentBound:
    """An exponent is bounded before Fraction builds 10**exponent."""

    @pytest.mark.parametrize("text", ["1e1000000", "-2E-1000000", "1e10000000",
                                      "3e" + "9" * 5000, "1e4_301"])
    def test_exponent_past_the_digit_limit_exits_2_at_once(self, text):
        start = time.perf_counter()
        code, out, err = run(["thm1", f"--c13={text}"])
        assert time.perf_counter() - start < 5
        assert (code, out) == (2, "")
        limit = sys.get_int_max_str_digits()
        assert err == f"error: the exponent of {quoted(text)} exceeds {limit} in magnitude\n"

    def test_exponents_within_the_limit_still_parse(self):
        code, out, err = run(["thm1", "--c13", "1e3", "--c12H", "12e-1"])
        assert (code, err) == (0, "")
        assert out == run(["thm1", "--c13", "1000", "--c12H", "6/5"])[1]
        limit = sys.get_int_max_str_digits()
        assert cli._rat(f"1e{limit}") == 10 ** limit
        assert cli._rat(f"1e-{limit:_}") == Fraction(1, 10 ** limit)
        assert cli._rat("5e0000000000003") == 5000

    def test_no_exponent_bound_when_python_sets_none(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert cli._rat(f"1e{limit + 1}") == 10 ** (limit + 1)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_case_file_exponent_exits_2_naming_record_and_field(self, tmp_path):
        path = tmp_path / "cases.ini"
        path.write_text("[big]\ngeometry = table8\nc13 = 1e1000000\n")
        code, out, err = run(["bott-report", "--cases", str(path)])
        assert (code, out) == (2, "")
        assert err == (
            "error: record 'big', field 'c13': the exponent of '1e1000000' exceeds "
            f"{sys.get_int_max_str_digits()} in magnitude\n"
        )


def _run_cases(tmp_path, text, *flags):
    path = tmp_path / "cases.ini"
    path.write_text(text, encoding="utf-8")
    return run(["bott-report", "--cases", str(path), *flags])


class TestCaseFileReader:
    @pytest.mark.parametrize("text", ["[a]\nh = 3\n", "[a]\n"])
    def test_record_without_geometry_exits_2(self, tmp_path, text):
        assert _run_cases(tmp_path, text) == (
            2, "", "error: record 'a', field 'geometry': required for every record\n")

    def test_unused_field_exits_2(self, tmp_path):
        code, out, err = _run_cases(
            tmp_path, "[t]\ngeometry = table8\nk = 5\nc1 = 7\na = 1,1,3,4\n")
        assert (code, out) == (2, "")
        assert err == "error: record 't', field 'a': not used by geometry 'table8'\n"

    def test_default_is_reported_as_a_record(self, tmp_path):
        code, out, err = _run_cases(
            tmp_path, "[DEFAULT]\ngeometry = table8\nh = 3\n", "--json")
        assert (code, err) == (0, "")
        assert [row["id"] for row in json.loads(out)] == ["DEFAULT"]

    @pytest.mark.parametrize("text,line,got", [
        ("[a] trailing junk\ngeometry = table8\n", 1, "[a] trailing junk"),
        ("[a]\ngeometry = table8\nprovenance = x\n  y\n", 4, "y"),
    ])
    def test_bad_line_exits_2_naming_it(self, tmp_path, text, line, got):
        assert _run_cases(tmp_path, text) == (
            2, "", f"error: line {line}: expected [id], field = value or a "
            f"comment, got {got!r}\n")

    def test_no_configparser_in_a_fresh_process(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, bottcheck.cli; print('configparser' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


class TestResultsTooLongToPrint:
    """A result past the digit limit exits 2 naming it, and prints nothing."""

    @pytest.mark.parametrize("argv, label", [
        (["thm1", "--c13=-9e4300"], "closed"),
        (["thm2", "--bundle", "P1: O(0)^2 + O(1)^2", "--k", "NINES"], "chain"),
        (["thm3", "--bundle", "P2: rank2(c1=NINES,c2=1)"], "Q1(b)"),
        (["thm3", "--bundle", "P2: O(0) + O(NINES)"], "Q1(b)"),
        (["chi-f", "--x", "NINES", "--y", "1", "--p", "1", "--q", "1"], "f"),
    ])
    def test_exits_2_naming_the_result(self, argv, label):
        limit = sys.get_int_max_str_digits()
        argv = [a.replace("NINES", "9" * limit).replace("4300", str(limit))
                for a in argv]
        assert run(argv) == (
            2, "", f"error: the result {label!r} has a coefficient of more than "
            f"{limit} digits\n")

    def test_case_file_names_the_record(self, tmp_path):
        limit = sys.get_int_max_str_digits()
        for flags in ((), ("--json",)):
            assert _run_cases(
                tmp_path, f"[big]\ngeometry = table8\nc13 = -9e{limit}\n", *flags
            ) == (2, "", "error: record 'big': the obstruction has a coefficient "
                  f"of more than {limit} digits\n")

    def test_results_at_the_limit_still_print(self):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(["thm1", f"--h={10 ** limit - 15}", *THM1_NUMERICS])
        assert (code, err) == (0, "")
        assert out == f"closed:  {'9' * limit}\nderived: {'9' * limit}\nMATCH\n"


class TestCaseFileDigitLimit:
    """A case-file number past the digit limit exits 2 with one short line
    naming record and field, without quoting the literal."""

    @pytest.mark.parametrize("geometry, field, template", [
        ("conicBundle", "d", "NINES"),
        ("delPezzoFib8-small", "k", "NINES"),
        ("p1BundleOverPlane", "c1", "NINES"),
        ("p1BundleOverPlane", "c2", "-NINES"),
        ("delPezzoFib8-small", "a", "NINES,0,0,1"),
        ("delPezzoFib8-small", "a", "0, 0, 1, +NINES"),
        ("table8", "h", "NINES"),
        ("table8", "c13", "NINES"),
        ("table8", "c12H", "1/NINES"),
        ("table8", "c1H2", "-NINES/7"),
        ("table8", "c2H", "0.NINES"),
        ("table8", "H3", "NINESe2"),
    ], ids=lambda v: v.replace("NINES", "N"))
    def test_exits_2_with_one_short_line(self, tmp_path, geometry, field, template):
        limit = sys.get_int_max_str_digits()
        required = {"conicBundle": {"d": "1"}, "delPezzoFib8-small": {"k": "0"},
                    "p1BundleOverPlane": {"c1": "1", "c2": "1"}}.get(geometry, {})
        fields = {**required, field: template.replace("NINES", "9" * (limit + 1))}
        text = f"[r]\ngeometry = {geometry}\n" + "".join(
            f"{name} = {value}\n" for name, value in fields.items())
        code, out, err = _run_cases(tmp_path, text)
        assert (code, out) == (2, "")
        assert err == (f"error: record 'r', field {field!r}: the value has a "
                       f"number of more than {limit} digits\n")

    @pytest.mark.parametrize("template", ["N", "-N/3", "1/N"])
    def test_rational_option_exits_2_with_one_short_line(self, template):
        limit = sys.get_int_max_str_digits()
        text = template.replace("N", "9" * (limit + 1))
        code, out, err = run(["thm1", f"--c13={text}"])
        assert (code, out) == (2, "")
        assert err == f"error: the value has a number of more than {limit} digits\n"

    @pytest.mark.parametrize("shape", ["nines", "underscores", "denominator"])
    def test_a_number_at_the_limit_still_parses(self, shape):
        limit = sys.get_int_max_str_digits()
        value = {"nines": "9" * limit, "underscores": "1_" * (limit - 1) + "1",
                 "denominator": "1/" + "7" * limit}[shape]
        rec = bottcases._parse_record("r", {"geometry": "table8", "c13": value})
        assert rec.c13 == Fraction(value)


#: The longest error line a long literal may produce: the message, a quote
#: of at most ``exact.QUOTE_LIMIT`` characters and the literal's length.
ERROR_LINE_BOUND = 250


class TestLongLiteralsQuotedToABound:
    """An error about a long literal quotes at most its first characters,
    so the error line stays short whatever the input's length."""

    @pytest.mark.parametrize("argv", [
        ["thm2", "--bundle", "P1: O(0)^4", "--k", "9" * 5000],
        ["chi-f", "--x", "9" * 5000, "--y", "1", "--p", "1", "--q", "2"],
        ["chow-eval", "--ring", "plane:" + "9" * 5000 + ",1", "--expr", "H"],
        ["thm1", "--c13", "9" * 4000 + "e99999"],
        ["thm2", "--bundle", "P1: O(0)^4", "--k", "x" * 5000],
        ["thm1", "--c13", "x" * 5000],
        ["thm3", "--bundle", "x" * 5000],
        ["chow-eval", "--ring", "plane:1,1", "--expr", "H+" + "x" * 5000],
    ], ids=["thm2-k-digits", "chi-f-x-digits", "ring-digits", "c13-exponent",
            "thm2-k-letters", "c13-letters", "bundle-letters", "expr-letters"])
    def test_option_exits_2_with_a_short_error_line(self, argv):
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        last = err.splitlines()[-1]
        assert "error: " in last and len(last.encode()) <= ERROR_LINE_BOUND
        assert len(err.encode()) <= ERROR_LINE_BOUND + 200  # usage line included

    def test_case_file_value_exits_2_with_a_short_error_line(self, tmp_path):
        code, out, err = _run_cases(tmp_path, "[r]\ngeometry = table8\nc13 = " + "x" * 5000)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and len(err.encode()) <= ERROR_LINE_BOUND
        assert err.startswith("error: record 'r', field 'c13': cannot parse 'xxx")

    def test_case_file_line_exits_2_with_a_short_error_line(self, tmp_path):
        code, out, err = _run_cases(tmp_path, "[r]\n" + "x" * 5000 + "\n")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and len(err.encode()) <= ERROR_LINE_BOUND

    def test_integer_digits_past_the_limit_are_one_error_line(self):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(["thm2", "--bundle", "P1: O(0)^4", "--k", "9" * (limit + 1)])
        assert (code, out) == (2, "")
        assert err == f"error: the value has a number of more than {limit} digits\n"

    def test_short_literals_keep_their_messages(self):
        _, _, err = run(["thm2", "--bundle", "P1: O(0)^4", "--k", "abc"])
        assert err.splitlines()[-1] == (
            "bottcheck thm2: error: argument --k: invalid int value: 'abc'"
        )
        _, _, err = run(["chow-eval", "--ring", "plane:x,1", "--expr", "H"])
        assert err == "error: cannot parse ring parameters 'x,1'\n"

    def test_a_long_literal_is_quoted_with_its_length(self):
        assert quoted("x" * 80) == repr("x" * 80)
        assert quoted("x" * 81) == repr("x" * 80) + "... (81 characters)"


class TestThm2TwistOption:
    def test_the_twist_option_is_gone(self):
        code, out, err = run(["thm2", "--bundle", "P1: O(0)^2 + O(1)^2", "--k", "0",
                              "--a", "77"])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "bottcheck: error: unrecognized arguments: --a 77"
