"""Command-line interface.

    weildescent descend <file> [--prune] [--no-inverse] [--order lex|grevlex]
                               [--budget N] [-o OUT]
    weildescent verify-datum <file> [--budget N]
    weildescent check-model <file> --claimed <doc> [--budget N]

Exit codes: 0 success, 1 verification failure, 2 input error, 3 resource
limit exceeded.  Diagnostics go to stderr; result documents and reports go
to stdout (or the -o file).
"""

from __future__ import annotations

import argparse
import sys

from .descent import check_claimed_model, descend, verify_datum
from .errors import InputError, ResourceLimit, VerificationError, ZeroDenominator
from .problemfile import (
    load_claimed_model,
    load_problem,
    render_report,
    render_result,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="weildescent",
        description="Constructive Galois descent for affine varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("descend", help="compute a model over the fixed field")
    p.add_argument("file", help="problem file")
    p.add_argument("--prune", action="store_true", default=None,
                   help="drop redundant target coordinates")
    p.add_argument("--no-inverse", action="store_true",
                   help="skip inverse recovery")
    p.add_argument("--order", choices=("lex", "grevlex"), default=None,
                   help="monomial order for the variety's ring")
    p.add_argument("--budget", type=int, default=None,
                   help="reduction-step budget for basis computations")
    p.add_argument("-o", "--output", default=None, help="write the result here")

    p = sub.add_parser("verify-datum", help="check the cocycle conditions only")
    p.add_argument("file", help="problem file")
    p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser("check-model", help="verify a claimed model independently")
    p.add_argument("file", help="problem file")
    p.add_argument("--claimed", required=True, help="claimed result document")
    p.add_argument("--budget", type=int, default=None)
    return parser


def _effective(args, problem):
    prune = problem.options.get("prune", False) or bool(args.prune)
    want_inverse = problem.options.get("inverse", True) and not args.no_inverse
    return prune, want_inverse


def _write(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_descend(args) -> int:
    problem = load_problem(args.file, order=args.order, budget=args.budget)
    prune, want_inverse = _effective(args, problem)
    result = descend(problem.datum, budget=problem.budget, prune=prune,
                     want_inverse=want_inverse)
    _write(render_result(result), args.output)
    return EXIT_OK


def cmd_verify_datum(args) -> int:
    problem = load_problem(args.file, budget=args.budget)
    report = verify_datum(problem.datum, budget=problem.budget, strict=False)
    sys.stdout.write(render_report(report))
    return EXIT_OK if report.ok else EXIT_VERIFICATION


def cmd_check_model(args) -> int:
    problem = load_problem(args.file, budget=args.budget)
    claimed = load_claimed_model(args.claimed, problem)
    report = check_claimed_model(problem, claimed, problem.budget)
    sys.stdout.write(render_report(report))
    return EXIT_OK if report.ok else EXIT_VERIFICATION


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "descend": cmd_descend,
        "verify-datum": cmd_verify_datum,
        "check-model": cmd_check_model,
    }
    try:
        return handlers[args.command](args)
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (InputError, ZeroDenominator) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
