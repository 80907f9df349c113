"""Command-line interface: evaluate expressions, move across bases, verify.

Exit codes: 0 on success, 1 when a verification suite fails, 2 on usage,
parse or evaluation errors, an unknown suite, too deep an expression or an
unwritable ``--out``, and 141 (128 + SIGPIPE) when the reader closes stdout
before the output is written, as in ``verify ... | head``; ``main`` then
ends quietly, and an ``--out`` file is already complete.

``main(argv)`` may be called any number of times in one process.  The
argument parser is built on the first call and reused by every later one;
importing the module builds nothing.

The inputs that set a weight, an exponent or an index are bounded: the
weight n (``--n``, ``--n-min``, ``--n-max``) is at most ``MAX_N``,
``--k-max`` of ``verify`` and ``line`` lies in 2..``MAX_K_MAX``, and the
parser bounds exponents and Adams indices (``expr.MAX_EXPONENT``,
``expr.MAX_ADAMS_INDEX``).  A power ``x[0]^e`` takes time linear in |e|, so
the parser also bounds the sum of |e| over the ``x[0]^e`` atoms of one
expression by ``expr.MAX_EXPONENT``: all of them together cost at most one
``x[0]^2000``, about 0.1 s at n = 8.  An input beyond a bound exits with
code 2 before any work starts.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from functools import cache

from . import localization as loc
from .expr import (
    EvalError,
    ParseError,
    evaluate,
    format_value,
    parse,
    preferred_display,
    value_to_json,
)
from .line_elements import is_line_element
from .verify import run_verify, select_suites

#: Largest accepted weight n.
MAX_N = 8

#: Largest accepted ``--k-max``: four times the default 2n at n = MAX_N.  The
#: Adams and line-element checks run k = 1..k_max, so time grows with it.
MAX_K_MAX = 64

#: The verbs that evaluate one expression: help, positional arguments and the
#: expression built from them.
_VERBS = {
    "eval": ("evaluate an expression", ("expression",), "{expression}"),
    "mul": ("product of two expressions in their shared basis", ("lhs", "rhs"),
            "({lhs})*({rhs})"),
    "adams": ("apply the k-th Adams operation", ("k", "expression"), "psi[{k}]({expression})"),
    "localize": ("gamma of a sector-basis expression", ("expression",), "gamma({expression})"),
    "delocalize": ("gamma^(-1) of a localized expression", ("expression",),
                   "gammainv({expression})"),
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args keeps no state in the parser, and
    # building it costs more than a small query.
    p = argparse.ArgumentParser(
        prog="virtualk",
        description="Exact virtual K-theory of the weighted projective line P(1,n).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--n", type=int, required=True, help="weight, 2 <= n <= %d" % MAX_N)
        sp.add_argument("--json", action="store_true", help="structured output")
        sp.add_argument(
            "--basis",
            choices=("auto", "sector", "loc", "u"),
            default="auto",
            help="display basis (no implicit gamma conversions)",
        )

    for verb, (help_text, positionals, _) in _VERBS.items():
        sp = sub.add_parser(verb, help=help_text)
        for name in positionals:
            sp.add_argument(name, type=int if name == "k" else str)
        common(sp)

    sp = sub.add_parser("line", help="test a localized class for line-element membership")
    sp.add_argument("expression")
    sp.add_argument("--k-max", type=int, default=None,
                    help="default 2n, 2 <= k-max <= %d" % MAX_K_MAX)
    common(sp)

    sp = sub.add_parser("verify", help="run verification suites")
    sp.add_argument("--n-min", type=int, default=2)
    sp.add_argument("--n-max", type=int, default=5)
    sp.add_argument("--suite", action="append", default=None,
                    help="suite name or 'all' (repeatable); default all")
    sp.add_argument("--k-max", type=int, default=None,
                    help="default 2n per weight, 2 <= k-max <= %d" % MAX_K_MAX)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--verbose", action="store_true")
    sp.add_argument("--out", default=None, help="write the report to a file")
    return p


def _emit(args, basis: str, value, display_hint: str) -> None:
    display = display_hint if args.basis == "auto" else args.basis
    if basis == "sector" and display in ("loc", "u"):
        raise EvalError("sector-basis value; use localize/gamma for a localized view")
    if basis == "loc" and display == "sector":
        raise EvalError("localized value; use delocalize/gammainv for the sector view")
    if basis == "loc" and display == "u":
        value = loc.to_u_basis(value)
    print(value_to_json(args.n, basis, value) if args.json else format_value(basis, value))


def main(argv: list[str] | None = None) -> int:
    try:
        code = _command(_build_parser().parse_args(argv))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away.  Unflushed output goes to devnull, so that
        # the interpreter's own flush at exit raises nothing either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


def _command(args) -> int:
    if getattr(args, "k_max", None) is not None and not 2 <= args.k_max <= MAX_K_MAX:
        print("error: --k-max must be between 2 and %d" % MAX_K_MAX, file=sys.stderr)
        return 2
    try:
        if args.command == "verify":
            if not 2 <= args.n_min <= args.n_max <= MAX_N:
                print("error: need 2 <= --n-min <= --n-max <= %d" % MAX_N, file=sys.stderr)
                return 2
            suites = select_suites(tuple(args.suite) if args.suite else ("all",))
            # Opened before any suite runs; appending leaves it as it was if the run stops.
            try:
                out = open(args.out, "a", encoding="utf-8") if args.out else nullcontext()
            except OSError as exc:
                print("error: cannot write the report: %s" % exc, file=sys.stderr)
                return 2
            with out:
                # Text output prints no passing side, so only JSON renders them.
                report = run_verify(args.n_min, args.n_max, suites, args.k_max,
                                    render_passing=args.json)
                text = report.to_json() if args.json else report.text_summary(args.verbose)
                # Written before the echo, so a closed stdout cannot cost the file.
                if args.out:
                    out.truncate(0)
                    out.write(text + "\n")
            print(text)
            return 0 if report.ok else 1

        if not 2 <= args.n <= MAX_N:
            print("error: --n must be between 2 and %d" % MAX_N, file=sys.stderr)
            return 2

        if args.command in _VERBS:
            e = parse(_VERBS[args.command][2].format(**vars(args)), args.n)
            basis, value = evaluate(e, args.n)
            _emit(args, basis, value, preferred_display(e))
            return 0
        if args.command == "line":
            e = parse(args.expression, args.n)
            basis, value = evaluate(e, args.n)
            if basis != "loc":
                raise EvalError("line membership applies to localized classes")
            cert = is_line_element(loc.to_u_basis(value), args.k_max)
            if args.json:
                import json

                doc = {"is_line_element": cert.ok, "reason": cert.reason}
                if cert.params:
                    doc["f"] = list(cert.params.f)
                    doc["beta"] = [[str(x) for x in b.coeffs] for b in cert.params.beta]
                print(json.dumps(doc, sort_keys=True))
            elif cert.ok:
                print("line element: f=(%s); beta=(%s)" % (
                    ",".join(str(v) for v in cert.params.f),
                    ",".join(str(b) for b in cert.params.beta),
                ))
            else:
                print("not a line element: %s" % cert.reason)
            return 0
    except (ParseError, EvalError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RecursionError:
        print("error: the expression is nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
