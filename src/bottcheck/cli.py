"""Command-line front end.

Subcommands map one-to-one onto the evaluators; every command with two
computation paths exits nonzero when they disagree, so the CLI doubles
as a verification harness.  Output is deterministic: identical inputs
produce byte-identical output.  Exit codes: 0 success, 1 dual-path
mismatch, 2 input error.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import cache
from typing import Optional, Tuple

from . import theorems
from .chow import GradedClass, H_class, LineBase4, PlaneBase2, U_class, unit
from .exact import (
    QUOTE_LIMIT, check_digits, check_printable, immutable, max_str_digits,
    parse_rational, quoted, rendered, shortened,
)
from .rr import HypothesisViolation, f_formula, f_splitting_oracle


class InputError(ValueError):
    pass


#: The largest rank of a bundle any command takes (thm2's four twists).
MAX_RANK = 4

#: The largest y for ``chi-f --oracle``, whose loop is quadratic in y.
MAX_ORACLE_Y = 1000

#: The deepest nesting of parentheses and signs ``chow-eval`` reads.
MAX_NESTING = 100


# --- bundle expressions ----------------------------------------------------


@immutable
class BundleExpr:
    base: str  # "P1" or "P2"
    twists: Optional[Tuple[int, ...]]
    c1c2: Optional[Tuple[int, int]]

    def __init__(self, base, twists=None, c1c2=None):
        self.__dict__.update({"base": base, "twists": twists, "c1c2": c1c2})


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, literal: str):
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            raise InputError(
                f"expected {literal!r} at position {self.pos} in {quoted(self.text)}"
            )
        self.pos += len(literal)

    def accept(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        digits = self.text[start:self.pos].lstrip("+-")
        if not digits:
            raise InputError(
                f"expected an integer at position {start} in {quoted(self.text)}"
            )
        limit = max_str_digits()
        if limit and len(digits) > limit:
            raise InputError(
                f"the integer at position {start} has more than {limit} digits"
            )
        return int(self.text[start:self.pos])

    def done(self):
        self.skip_ws()
        if self.pos < len(self.text):
            raise InputError(
                f"unexpected trailing input at position {self.pos} "
                f"in {quoted(self.text)}"
            )


def parse_bundle(text: str) -> BundleExpr:
    """Grammar: ("P1" | "P2") ":" term ("+" term)* with
    term := O(int)[^posint] | rank2(c1=int,c2=int)."""
    sc = _Scanner(text)
    if sc.accept("P1"):
        base = "P1"
    elif sc.accept("P2"):
        base = "P2"
    else:
        raise InputError(f"expected base 'P1' or 'P2' at start of {quoted(text)}")
    sc.expect(":")
    twists: list = []
    c1c2 = None
    while True:
        if sc.accept("rank2"):
            sc.expect("(")
            sc.expect("c1")
            sc.expect("=")
            c1 = sc.integer()
            sc.expect(",")
            sc.expect("c2")
            sc.expect("=")
            c2 = sc.integer()
            sc.expect(")")
            if c1c2 is not None or twists:
                raise InputError("rank2(...) cannot be combined with other terms")
            c1c2 = (c1, c2)
        elif sc.accept("O"):
            sc.expect("(")
            twist = sc.integer()
            sc.expect(")")
            mult = 1
            if sc.accept("^"):
                mult = sc.integer()
                if mult < 1:
                    raise InputError(f"multiplicity must be >= 1, got {mult}")
                if mult > MAX_RANK:
                    raise InputError(
                        f"multiplicity must be <= {MAX_RANK}, the largest rank "
                        f"any command takes, got {mult}"
                    )
            if c1c2 is not None:
                raise InputError("rank2(...) cannot be combined with other terms")
            twists.extend([twist] * mult)
        else:
            raise InputError(
                f"expected a term at position {sc.pos} in {quoted(text)}"
            )
        if not sc.accept("+"):
            break
    sc.done()
    if c1c2 is not None:
        if base != "P2":
            raise InputError("rank2(...) requires base P2")
        return BundleExpr(base, None, c1c2)
    return BundleExpr(base, tuple(twists), None)


# --- Chow expressions ------------------------------------------------------


def parse_chow_expr(text: str, ambient) -> GradedClass:
    """Arithmetic over H, U with +, -, *, ^, parentheses and rational
    literals ("3", "1/2").

    Every product, sum, difference and power is checked with
    ``check_printable``, so a value too long to print raises InputError,
    and so does a factor inside more than ``MAX_NESTING`` parentheses and
    signs, before the parser's recursion could exhaust the stack.
    """
    sc = _Scanner(text)

    def atom(depth: int) -> GradedClass:
        if sc.accept("("):
            value = expr(depth + 1)
            sc.expect(")")
            return value
        if sc.accept("H"):
            return H_class(ambient)
        if sc.accept("U"):
            return U_class(ambient)
        ch = sc.peek()
        if ch.isdigit():
            num = sc.integer()
            if sc.accept("/"):
                den = sc.integer()
                if den == 0:
                    raise InputError("zero denominator")
                return Fraction(num, den) * unit(ambient)
            return num * unit(ambient)
        raise InputError(f"expected a factor at position {sc.pos} in {quoted(text)}")

    def factor(depth: int) -> GradedClass:
        if depth > MAX_NESTING:
            raise InputError(
                f"more than {MAX_NESTING} nested parentheses and signs "
                f"at position {sc.pos}"
            )
        if sc.accept("-"):
            return -factor(depth + 1)
        base = atom(depth)
        if sc.accept("^"):
            n = sc.integer()
            if n < 0:
                raise InputError("negative exponent")
            return base ** n
        return base

    def printable(value: GradedClass, what: str) -> GradedClass:
        try:
            return check_printable(value, f"the {what} ending at position {sc.pos}")
        except ValueError as exc:
            raise InputError(str(exc)) from None

    def term(depth: int) -> GradedClass:
        value = factor(depth)
        while sc.accept("*"):
            value = printable(value * factor(depth), "product")
        return value

    def expr(depth: int) -> GradedClass:
        value = term(depth)
        while True:
            if sc.accept("+"):
                value = printable(value + term(depth), "sum")
            elif sc.accept("-"):
                value = printable(value - term(depth), "difference")
            else:
                return value

    value = expr(0)
    sc.done()
    return value


def parse_ring(text: str):
    kind, _, params = text.partition(":")
    try:
        values = tuple(int(v.strip()) for v in params.split(","))
    except ValueError as exc:
        raise InputError(f"cannot parse ring parameters {quoted(params)}") from exc
    if kind == "line":
        if len(values) != 4:
            raise InputError("line ring needs 4 twists: line:a0,a1,a2,a3")
        return LineBase4(values)
    if kind == "plane":
        if len(values) != 2:
            raise InputError("plane ring needs 2 numbers: plane:c1,c2")
        return PlaneBase2(*values)
    raise InputError(f"unknown ring kind {quoted(kind)}; use line:... or plane:...")


def _option_type(parse, message: str):
    """The argparse type of a numeric option read by ``parse``.  A number
    too long to read (OverflowError) ends the run at once, with one
    ``error:`` line; any other value ``parse`` refuses is a usage error,
    ``message`` followed by the value, quoted up to a bound."""

    def convert(text: str):
        try:
            return parse(text)
        except OverflowError as exc:
            raise _ParserExit(2, f"error: {exc}\n", "err") from None
        except (ValueError, ZeroDivisionError) as exc:
            import argparse  # loaded by build_parser, which calls this

            raise argparse.ArgumentTypeError(f"{message}{quoted(text)}") from exc

    return convert


_int = _option_type(lambda text: int(check_digits(text)), "invalid int value: ")
_rat = _option_type(parse_rational, "expected an integer or p/q, got ")


def _verdict(comparison, out) -> int:
    """Print whether a theorem's routes agree; the exit code."""
    ok = comparison.mismatch is None
    print("MATCH" if ok else "MISMATCH", file=out)
    return 0 if ok else 1


def _check_results(*results):
    """ValueError naming the first ``(label, value)`` of ``results`` too
    long to print; a command calls it before it prints anything.  A value
    of None is a result the command does not print."""
    for label, value in results:
        if value is not None:
            check_printable(value, f"the result {label!r}")


# --- subcommands -----------------------------------------------------------


def _cmd_thm1(args, out) -> int:
    if args.symbolic_h and args.h is not None:
        raise InputError(
            "--symbolic-h keeps h symbolic, so it cannot be given with --h"
        )
    if args.h is not None:
        try:
            theorems.check_hodge_number(args.h)
        except ValueError as exc:
            raise InputError(f"--h {shortened(str(args.h))}: {exc}") from None
    n = theorems.ThreefoldNumerics(
        **{name: getattr(args, name) for name in theorems.NUMERICS_FIELDS}
    )
    comparison = theorems.compare_thm1(n)
    values = comparison.values
    _check_results(*values.items())
    print(f"closed:  {rendered(values['closed'])}", file=out)
    print(f"derived: {rendered(values['derived'])}", file=out)
    return _verdict(comparison, out)


def _cmd_thm2(args, out) -> int:
    bundle = parse_bundle(args.bundle)
    if bundle.base != "P1" or bundle.twists is None or len(bundle.twists) != 4:
        raise InputError(
            "thm2 needs a line-base bundle with exactly 4 summands, "
            f"got {quoted(args.bundle)}"
        )
    comparison = theorems.compare_thm2(theorems.DivisorCaseInput(bundle.twists, args.k))
    values = comparison.values
    _check_results(*values.items())
    print(f"chain:  {values['chain']}", file=out)
    print(f"closed: {values['closed']}", file=out)
    return _verdict(comparison, out)


def _cmd_thm3(args, out) -> int:
    bundle = parse_bundle(args.bundle)
    if bundle.base != "P2":
        raise InputError(f"thm3 needs a plane-base bundle, got {quoted(args.bundle)}")
    if bundle.c1c2 is not None:
        inp = theorems.PlaneBundleInput(*bundle.c1c2)
    else:
        if len(bundle.twists) != 2:
            raise InputError(
                "thm3 needs rank 2: two O(...) summands or rank2(c1=..,c2=..)"
            )
        inp = theorems.PlaneBundleInput.from_split(*bundle.twists)
    comparison = theorems.compare_thm3(inp)
    values = comparison.values
    qs = values["Q"]
    polys = (("Q1(b)", qs.Q1), ("Q2(b)", qs.Q2), ("Q3(b)", qs.Q3), ("Q(b)", qs.Q))
    h0 = None if inp.split is None else theorems.thm3_h0_split(*inp.split)
    _check_results(*polys, ("Q(-1)", values["Q(-1)"]), ("closed", values["closed"]),
                   ("h0", h0))
    for name, poly in polys:
        print(f"{name} = {poly.render('b')}", file=out)
    print(f"Q(-1):  {values['Q(-1)']}", file=out)
    print(f"closed: {values['closed']}", file=out)
    _, hrr_agrees = comparison.checks.values()  # Q(-1) vs closed, hrr vs Q(b)
    print(f"hrr-crosscheck: {'MATCH' if hrr_agrees else 'MISMATCH'}", file=out)
    if h0 is not None:
        print(f"h0: {h0}", file=out)
    return _verdict(comparison, out)


def _cmd_chi_f(args, out) -> int:
    if args.oracle:
        if args.y < 0:
            raise InputError("the splitting oracle needs y >= 0")
        if args.y > MAX_ORACLE_Y:
            raise InputError(f"the splitting oracle needs y <= {MAX_ORACLE_Y}")
    value = f_formula(args.x, args.y, args.p, args.q)
    oracle = f_splitting_oracle(args.x, args.y, args.p, args.q) if args.oracle else None
    _check_results(("f", value), ("oracle", oracle))
    print(f"f({args.x},{args.y}) = {value}", file=out)
    if args.oracle:
        print(f"oracle    = {oracle}", file=out)
        ok = value == oracle
        print("MATCH" if ok else "MISMATCH", file=out)
        return 0 if ok else 1
    return 0


def _cmd_bott_report(args, out) -> int:
    # The case-file reader is loaded by the one command that uses it.
    from . import bottcases

    if args.cases is not None:
        records = bottcases.load_registry(args.cases)
    else:
        records = bottcases.builtin_registry()
    if args.json:
        out.write(bottcases.report_json(records))
    else:
        out.write(bottcases.report_text(records))
    return 0


def _cmd_chow_eval(args, out) -> int:
    ambient = parse_ring(args.ring)
    value = parse_chow_expr(args.expr, ambient)
    print(f"class:  {value.render()}", file=out)
    print(f"degree: {value.degree()}", file=out)
    return 0


class _ParserExit(Exception):
    """The parser stopped; args are (status, text, stream): exit with
    ``status`` after writing ``text`` to the caller's ``stream``, "out"
    or "err"."""


@cache
def build_parser():
    """The bottcheck parser, built once per process, and the one place
    that loads ``argparse``.  It writes nothing itself; see ``_Parser``."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """An ArgumentParser that holds no stream: help, usage errors and
        exits raise ``_ParserExit``, and ``run`` writes the text to its own
        ``out`` or ``err``.  A negative fraction such as ``-1/2`` is read
        as a value, not as a flag."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._negative_number_matcher = re.compile(
                rf"{self._negative_number_matcher.pattern}|^-\d+/\d+$"
            )

        def print_help(self, file=None):
            raise _ParserExit(0, self.format_help(), "out")

        def exit(self, status=0, message=None):
            raise _ParserExit(status, message or "", "err")

        def error(self, message):
            self.exit(2, f"{self.format_usage()}{self.prog}: error: {message}\n")

    parser = _Parser(
        prog="bottcheck",
        description="Exact Euler-characteristic obstruction checks for "
        "Bott vanishing on weak Fano threefolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("thm1", help="weak-Fano threefold obstruction from "
                        "intersection numerics, both routes")
    for name in theorems.NUMERICS_FIELDS:
        p1.add_argument(f"--{name}", type=_rat, default=None)
    p1.add_argument("--symbolic-h", action="store_true")
    p1.set_defaults(func=_cmd_thm1)

    p2 = sub.add_parser("thm2", help="divisor in |kH+2U| over the line: "
                        "pushforward chain vs closed form")
    p2.add_argument("--bundle", required=True)
    p2.add_argument("--k", type=_int, required=True)
    p2.set_defaults(func=_cmd_thm2)

    p3 = sub.add_parser("thm3", help="plane bundle: Q-polynomials, closed "
                        "form, intrinsic Riemann-Roch crosscheck")
    p3.add_argument("--bundle", required=True)
    p3.set_defaults(func=_cmd_thm3)

    pf = sub.add_parser("chi-f", help="chi(W, xH + yU) on the rank-4 bundle "
                        "over the line")
    for name in ("--x", "--y", "--p", "--q"):
        pf.add_argument(name, type=_int, required=True)
    pf.add_argument("--oracle", action="store_true")
    pf.set_defaults(func=_cmd_chi_f)

    pr = sub.add_parser("bott-report", help="evaluate a case registry")
    pr.add_argument("--cases", default=None)
    pr.add_argument("--json", action="store_true")
    pr.set_defaults(func=_cmd_bott_report)

    pc = sub.add_parser("chow-eval", help="reduce an H/U expression in one "
                        "of the two ambient rings")
    pc.add_argument("--ring", required=True)
    pc.add_argument("--expr", required=True)
    pc.set_defaults(func=_cmd_chow_eval)

    return parser


def _cut_arguments(text: str, argv) -> str:
    """``text``, an error, with every argument of ``argv`` longer than
    ``QUOTE_LIMIT``, and every such value after an ``=`` in one, cut as
    ``quoted`` cuts it.  argparse's own errors, and ``OSError`` for a file
    name, show such a value in full, in repr form or as it is."""
    values = {v for a in argv for v in (a, a.partition("=")[2]) if len(v) > QUOTE_LIMIT}
    for v in sorted(values, key=len, reverse=True):
        text = text.replace(repr(v), quoted(v)).replace(v, shortened(v))
    return text


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = build_parser().parse_args(argv)
    except _ParserExit as exc:
        status, text, stream = exc.args
        if stream == "out":
            out.write(text)
        else:
            err.write(_cut_arguments(text, argv))
        return status
    try:
        return args.func(args, out)
    except theorems.DualPathMismatch as exc:
        print(f"MISMATCH: {exc}", file=err)
        return 1
    # bottcases.RegistryError is a ValueError.
    except (InputError, HypothesisViolation, ValueError, OSError) as exc:
        print(f"error: {_cut_arguments(str(exc), argv)}", file=err)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
