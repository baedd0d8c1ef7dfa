"""cli.run on argv drawn from a small grammar, and long values in error lines.

Every run must end in exit 0 or 1 with the same output when run twice, or
in exit 2 with nothing on stdout and either one bounded ``error:`` line or
argparse's usage followed by one bounded ``bottcheck ...: error:`` line.
An exception that escapes ``cli.run`` fails the property.
"""

import io
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bottcheck import cli
from bottcheck.exact import QUOTE_LIMIT, quoted, shortened

GOLDEN = Path(__file__).resolve().parent / "golden"

#: The longest error line a long value may produce: the message, a cut
#: value of at most ``QUOTE_LIMIT`` characters and its length.
ERROR_LINE_BOUND = 300


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def error_line(err: str) -> str:
    """The one error line of an exit-2 run, after argparse's usage if any."""
    lines = err.splitlines()
    if len(lines) == 1 and lines[0].startswith("error: "):
        return lines[0]
    assert err.startswith("usage: bottcheck"), err[:200]
    assert re.match(r"bottcheck( \S+)?: error: ", lines[-1]), lines[-1][:200]
    assert not any("error:" in line for line in lines[:-1])
    return lines[-1]


# --- the four long values that error lines used to print in full -----------


@pytest.mark.parametrize("argv", [
    ["thm1", "--h=-" + "9" * 4299],
    ["x" * 5000],
    ["thm2", "--bundle", "P1: O(0)^4", "--k", "0", "y" * 5000],
    ["bott-report", "--cases", str(GOLDEN / ("p" * 3000))],
], ids=["thm1-h", "invalid-choice", "unrecognized-argument", "missing-long-path"])
def test_a_long_value_gives_a_short_error_line(argv):
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert len(error_line(err).encode()) <= ERROR_LINE_BOUND
    assert "characters)" in err


def test_a_long_value_is_cut_where_it_used_to_be_printed():
    _, _, err = run(["thm1", "--h=-" + "9" * 4299])
    assert err == (f"error: --h {shortened('-' + '9' * 4299)}: "
                   "the Hodge number h must be >= 0\n")
    _, _, err = run(["x" * 5000])
    assert f"invalid choice: {quoted('x' * 5000)} (choose from 'thm1'" in err
    _, _, err = run(["thm2", "--bundle", "P1: O(0)^4", "--k", "0", "y" * 5000])
    assert err.endswith(f"error: unrecognized arguments: {shortened('y' * 5000)}\n")
    path = str(GOLDEN / ("p" * 3000))
    _, _, err = run(["bott-report", "--cases", path])
    assert err.startswith("error: [Errno ") and err.endswith(f": {quoted(path)}\n")


def test_a_short_path_keeps_the_os_error_text(tmp_path):
    missing = tmp_path / "none.ini"
    try:
        open(missing)
    except OSError as exc:
        want = f"error: {exc}\n"
    assert run(["bott-report", "--cases", str(missing)]) == (2, "", want)


def test_an_empty_cases_path_is_not_the_builtin_registry():
    code, out, err = run(["bott-report", "--cases", ""])
    assert (code, out) == (2, "")
    assert err == "error: [Errno 2] No such file or directory: ''\n"


@pytest.mark.parametrize("expr", ["(" * 5000 + "H" + ")" * 5000, "-" * 5000 + "H"],
                         ids=["parentheses", "signs"])
def test_deep_nesting_in_chow_eval_is_an_input_error(expr):
    code, out, err = run(["chow-eval", "--ring", "plane:1,1", f"--expr={expr}"])
    assert (code, out) == (2, "")
    assert err == (f"error: more than {cli.MAX_NESTING} nested parentheses and signs "
                   f"at position {cli.MAX_NESTING + 1}\n")


def test_nesting_up_to_the_bound_still_reads():
    n = cli.MAX_NESTING
    for expr in ("(" * n + "H" + ")" * n, "-" * n + "H"):
        assert run(["chow-eval", "--ring", "plane:1,1", f"--expr={expr}"])[0] == 0


# --- the property over a small argv grammar --------------------------------

LONG = tuple(c * 5000 for c in "9x-( ")
literals = st.one_of(
    st.sampled_from(("", "0", "-3", "-1/2", "7/4", "-9/8", "1e3", "x", "=", *LONG)),
    st.integers(-40, 40).map(str),
    st.fractions(min_value=-40, max_value=40, max_denominator=9).map(str),
)
small_ints = st.one_of(st.integers(-12, 12).map(str), literals)
rationals = st.one_of(
    st.fractions(min_value=-60, max_value=60, max_denominator=8).map(str), literals,
)
bundles = st.one_of(st.sampled_from((
    "P1: O(0)^4", "P1: O(0)^2 + O(1) + O(2)", "P1: O(1)^2 + O(-3) + O(5)",
    "P1: O(0) + O(1) + O(2) + O(3)", "P2: O(1) + O(2)", "P2: O(-1) + O(4)",
    "P2: rank2(c1=3,c2=3)", "P2: rank2(c1=-5,c2=7)", "P1: rank2(c1=1,c2=1)",
    "P1: O(0)^5", "P2: O(1)^0",
)), literals)
rings = st.one_of(st.sampled_from((
    "plane:1,1", "plane:3,-2", "line:0,0,1,2", "line:1,1,0,-3", "plane:1",
    "cone:1,2", "plane:-1/2,1",
)), literals)
exprs = st.one_of(
    st.sampled_from(("H", "U", "H^2*U", "-U^3*H", "1/2*H - U^2 + 3", "H/0", "1/0",
                     "H^-1", "(H+U", "2^64*H", "(H + U)^64*U^3", "U^64")),
    st.integers(0, 64).map(lambda n: f"(H - 2*U)^{n}"),
    literals,
)
cases = st.one_of(st.sampled_from(tuple(
    str(GOLDEN / name) for name in
    ("cases_all_geometries.ini", "cases_bad_h.ini", "cases_bad_field.ini", "no_such.ini")
)), literals)

#: Each subcommand's options, with the values they draw, and its flags.
COMMANDS = {
    "thm1": ({f"--{n}": rationals for n in ("h", "c13", "c12H", "c1H2", "c2H", "H3")},
             ("--symbolic-h",)),
    "thm2": ({"--bundle": bundles, "--k": small_ints}, ()),
    "thm3": ({"--bundle": bundles}, ()),
    "chi-f": ({f"--{n}": small_ints for n in "xypq"}, ("--oracle",)),
    "bott-report": ({"--cases": cases}, ("--json",)),
    "chow-eval": ({"--ring": rings, "--expr": exprs}, ()),
}
UNKNOWN_FLAGS = ("--nosuch", "-z", "--c", "--", "-h", "--h=", "--json=1")


@st.composite
def argvs(draw):
    command = draw(st.sampled_from((*COMMANDS, "nosuch", "")) | literals)
    options, flags = COMMANDS.get(command, ({}, ()))
    argv = [command]
    # Numbers stay small (|y| <= 40 < cli.MAX_ORACLE_Y), and chow-eval's
    # exponents at most 64, so that no run is slow.
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("option", "option=", "flag", "unknown", "stray")))
        if kind.startswith("option") and options:
            name = draw(st.sampled_from(sorted(options)))
            value = draw(options[name])
            argv += [f"{name}={value}"] if kind == "option=" else [name, value]
        elif kind == "flag" and flags:
            argv.append(draw(st.sampled_from(flags)))
        elif kind == "unknown":
            argv.append(draw(st.sampled_from(UNKNOWN_FLAGS)))
        else:
            argv.append(draw(literals))
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(argvs())
def test_every_argv_ends_in_a_defined_way(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        line = error_line(err)
        # Each argument adds at most one cut value to the line.
        assert len(line.encode()) <= ERROR_LINE_BOUND + (QUOTE_LIMIT + 40) * len(argv)
    else:
        assert run(argv) == (code, out, err)
