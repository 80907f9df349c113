"""Command-line interface: evaluate expressions, move across bases, verify.

Exit codes: 0 on success, 1 when a verification suite fails, 2 on usage,
parse or evaluation errors, an unknown suite, too deep an expression or an
unwritable ``--out``, and 141 (128 + SIGPIPE) when the reader closes stdout
before the output is written, as in ``verify ... | head``; ``main`` then
ends quietly, and an ``--out`` file is already complete.

``main(argv)`` may be called any number of times in one process.  The
argument parser is built on the first call and reused by every later one;
importing the module builds nothing.  It loads the modules a query needs
(``expr`` with the ring, localization and line-element modules beneath it);
``verify``, ``presentation``, ``linalg`` and the file helpers load only when
a ``verify`` command first runs, so a query process never compiles them.

The inputs that set a weight, an exponent or an index are bounded: the
weight n by ``MAX_N``, ``--k-max`` of ``verify`` by 2..``MAX_K_MAX``, and
exponents, Adams indices and the sum of |e| over the ``x[0]^e`` atoms of an
expression by ``expr.MAX_EXPONENT`` and ``expr.MAX_ADAMS_INDEX``.  An input
beyond a bound exits with code 2 before any work starts.  ``line`` takes no
k bound: a class outside the line-element group fails psi^k(b) = b^k at some
k <= n, and its answer names the first such k.

``mul``, ``adams``, ``localize`` and ``delocalize`` parse each argument on
its own, an expression or the k of ``psi[k]``, and build their node from
the results (``_VERBS``).
An error names the argument that holds it and counts its position there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack
from functools import cache

from . import localization as loc
from .expr import (
    Binary,
    EvalError,
    ParseError,
    Unary,
    _printable,
    check,
    evaluate,
    format_value,
    parse,
    parse_adams_index,
    preferred_display,
    value_basis,
    value_to_json,
)
from .line_elements import is_line_element

#: Largest accepted weight n.
MAX_N = 8

#: Largest accepted ``--k-max`` of ``verify``: four times the default 2n at
#: n = MAX_N.  The Adams and power-law checks run k = 1..k_max, so time grows
#: with it.
MAX_K_MAX = 64

#: The verbs that evaluate one expression: help, positional arguments and the
#: operator of the node built around their parsed values (none for ``eval``).
_VERBS = {
    "eval": ("evaluate an expression", ("expression",), None),
    "mul": ("product of two expressions in their shared basis", ("lhs", "rhs"), "*"),
    "adams": ("apply the k-th Adams operation", ("k", "expression"), "psi"),
    "localize": ("gamma of a sector-basis expression", ("expression",), "gamma"),
    "delocalize": ("gamma^(-1) of a localized expression", ("expression",), "gammainv"),
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

    for verb, (help_text, positionals, _) in _VERBS.items():
        sp = sub.add_parser(verb, help=help_text)
        for name in positionals:
            sp.add_argument(name)
        common(sp)
        sp.add_argument("--basis", choices=("auto", "sector", "loc", "u"), default="auto",
                        help="display basis (no implicit gamma conversions)")

    sp = sub.add_parser("line", help="test a localized class for line-element membership")
    sp.add_argument("expression")
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


def _expression(args):
    """The expression of a verb: each argument parsed on its own, then the
    node built around them checked as a whole.  An error names the argument
    that holds it; one across the arguments (the x[0] budget, the basis walk)
    can only lie in the last, since every earlier one passed the check alone."""
    _, names, op = _VERBS[args.command]
    if op is None:
        return parse(args.expression, args.n)
    parts = []  # for adams: k, then the expression
    for name in names:
        value = getattr(args, name)
        try:
            parts.append(parse_adams_index(value) if name == "k" else parse(value, args.n))
            if len(parts) == len(names):
                node = Binary(op, *parts) if op == "*" else Unary(op, parts[-1], *parts[:-1])
                return check(node)
        except ParseError as exc:
            raise type(exc)(exc.message, exc.position, name) from None


def _emit(args, value, display_hint: str) -> None:
    basis, display = value_basis(value), display_hint if args.basis == "auto" else args.basis
    if basis == "sector" and display in ("loc", "u"):
        raise EvalError("sector-basis value; use localize/gamma for a localized view")
    if basis == "loc" and display == "sector":
        raise EvalError("localized value; use delocalize/gammainv for the sector view")
    if basis == "loc" and display == "u":
        value = _printable(loc.to_u_basis(value), "the result")
    print(value_to_json(value) if args.json else format_value(value))


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


def _verify(args) -> int:
    """Write the report as the suites produce it, keeping only the failures
    (and, for the verbose summary, every check with its id).

    The verification modules and the file helpers are imported here, on the
    first run.  Without ``--out`` the report streams to stdout.  With
    ``--out`` it streams to an unnamed file beside the target, is copied over
    the target once complete, and is echoed after that.  An unknown suite
    raises ValueError before any file is opened.
    """
    import shutil
    import tempfile

    from .verify import Report, select_suites

    suites = select_suites(tuple(args.suite) if args.suite else ("all",))
    # Text output prints no passing side, so only JSON renders them.
    report = Report(args.n_min, args.n_max, args.k_max, suites, render_passing=args.json,
                    checks=[] if args.verbose and not args.json else None)
    with ExitStack() as files:
        out = sys.stdout
        if args.out:
            # Both opened before any suite runs; the target is appended to,
            # so it stays as it was until the report is complete.
            try:
                target = files.enter_context(open(args.out, "a", encoding="utf-8"))
                out = files.enter_context(tempfile.TemporaryFile(
                    "w+", encoding="utf-8", dir=os.path.dirname(os.path.abspath(args.out))))
            except OSError as exc:
                print("error: cannot write the report: %s" % exc, file=sys.stderr)
                return 2
        if args.json:
            out.writelines(report.json_pieces(report.run()))
        else:
            for _ in report.run():
                pass
            out.write(report.text_summary(args.verbose))
        out.write("\n")
        if args.out:
            out.seek(0)
            target.truncate(0)
            shutil.copyfileobj(out, target)
            # Closed before the echo, so a closed stdout cannot cost the file.
            target.close()
            out.seek(0)
            shutil.copyfileobj(out, sys.stdout)
    return 0 if report.ok else 1


def _command(args) -> int:
    try:
        if args.command == "verify":
            if args.k_max is not None and not 2 <= args.k_max <= MAX_K_MAX:
                print("error: --k-max must be between 2 and %d" % MAX_K_MAX, file=sys.stderr)
                return 2
            if not 2 <= args.n_min <= args.n_max <= MAX_N:
                print("error: need 2 <= --n-min <= --n-max <= %d" % MAX_N, file=sys.stderr)
                return 2
            return _verify(args)

        if not 2 <= args.n <= MAX_N:
            print("error: --n must be between 2 and %d" % MAX_N, file=sys.stderr)
            return 2

        if args.command in _VERBS:
            e = _expression(args)
            _emit(args, evaluate(e, args.n), preferred_display(e))
            return 0
        if args.command == "line":
            e = parse(args.expression, args.n)
            value = evaluate(e, args.n)
            if value_basis(value) != "loc":
                raise EvalError("line membership applies to localized classes")
            cert = is_line_element(loc.to_u_basis(value))
            if args.json:
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
