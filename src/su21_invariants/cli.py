"""Command line interface.

    su21-invariants verify <suite> [--max-degree N] [--max-filtration M]
                                   [--format text|json] [--out FILE]
    su21-invariants eval --context CTX "EXPR"
    su21-invariants mul  --context CTX "A" "B"

The verify command exits 1 exactly when some check fails, and 2 with an
``error: ...`` line on stderr for a bad argument or an ``--out`` path that
cannot be written; reports are byte-identical across runs with the same
configuration.  A bound is a bad argument when it is negative, when the
suite does not read it, or when it is over that suite's cap; the table in
``suites`` holds each suite's bound, default and cap, and for ``all`` the
smallest cap applies.  Every command exits 2 the same way when stdout
cannot take its output: a pipe whose reader has gone, a full disk, or a
stdout that is closed.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from . import expr, suites


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su21-invariants",
        description="Exact verification of the invariant structure of"
        " U(sl3) (x) C(p) under S(U(2)xU(1))",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=suites.SUITE_NAMES)
    verify.add_argument("--max-degree", type=int, default=None)
    verify.add_argument("--max-filtration", type=int, default=None)
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--out", default=None, help="write the report here")

    for name, nargs in (("eval", 1), ("mul", 2)):
        cmd = sub.add_parser(name, help="%s expression(s) in a context" % name)
        cmd.add_argument("--context", required=True, choices=expr.CONTEXTS)
        cmd.add_argument("expressions", nargs=nargs, metavar="EXPR")
    return parser


def _write(text: str) -> int:
    """Print text on stdout; 0, or 2 with an ``error:`` line on stderr when
    the write fails or stdout is closed."""
    try:
        if sys.stdout is None:
            # Python starts with sys.stdout None when file descriptor 1 is
            # not open, and print() would then write nothing.
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        print(text, flush=True)
    except OSError as err:
        if sys.stdout is not None:
            # Interpreter exit flushes stdout again: point it at devnull, so
            # that whatever is left in the buffer cannot fail a second time.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print("error: cannot write to stdout: %s" % err.strerror, file=sys.stderr)
        return 2
    return 0


def _cmd_verify(args) -> int:
    try:
        report = suites.run_suite(args.suite, args.max_degree, args.max_filtration)
    except ValueError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    rendered = report.to_json() if args.format == "json" else report.to_text()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered + "\n")
        except OSError as err:
            message = "error: cannot write report to %s: %s" % (args.out, err.strerror)
            print(message, file=sys.stderr)
            return 2
        rendered = "%s: %s (report written to %s)" % (
            report.suite, report.summary, args.out
        )
    return _write(rendered) or (0 if report.passed else 1)


def _cmd_expr(args) -> int:
    try:
        values = [expr.parse_element(text, args.context) for text in args.expressions]
        result = values[0]
        for value in values[1:]:
            problem = expr.product_problem(result, value)
            if problem:
                raise ValueError(problem)
            result = result * value
    except ValueError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    try:
        text = expr.format_element(result, args.context)
    except ValueError:  # an int past a stricter PYTHONINTMAXSTRDIGITS
        limit = sys.get_int_max_str_digits()
        print(
            "error: a coefficient of the result is over the interpreter's"
            " limit of %d digits (PYTHONINTMAXSTRDIGITS)" % limit,
            file=sys.stderr,
        )
        return 2
    return _write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_expr(args)


if __name__ == "__main__":
    sys.exit(main())
