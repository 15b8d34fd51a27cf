"""Command-line front end: list, show, run and scope-check the examples.

Exit codes: 0 ok, 1 bad arguments, 2 scope check found free names,
3 unknown example, 4 staging/evaluation error.
"""

from __future__ import annotations

import argparse
import sys

from .base import (
    DEFAULT_STEP_LIMIT,
    BaseAst,
    StagingError,
    eval_ast,
    free_vars,
    pretty,
    render_value,
    to_sexp,
)
from .codec import DEFAULT_CANON_LIMIT, run, show
from .examples import ExampleKind, apply_ints, lookup, registry

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FREE = 2
EXIT_UNKNOWN = 3
EXIT_STAGING = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _limit_flags(parser, with_defaults):
    # the flags are accepted before or after the subcommand; SUPPRESS on the
    # subcommand side keeps an earlier occurrence unless repeated (last wins)
    if with_defaults:
        canon, step = DEFAULT_CANON_LIMIT, DEFAULT_STEP_LIMIT
    else:
        canon = step = argparse.SUPPRESS
    parser.add_argument("--canon-limit", type=int, default=canon)
    parser.add_argument("--step-limit", type=int, default=step)


def _build_parser():
    parser = _Parser(prog="stagelet", description=__doc__)
    _limit_flags(parser, with_defaults=True)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub.add_parser("list", help="list example names and kinds")

    p_show = sub.add_parser("show", help="print the generated code")
    p_show.add_argument("name")
    p_show.add_argument("--format", choices=("pretty", "sexp"), default="pretty")
    _limit_flags(p_show, with_defaults=False)

    p_run = sub.add_parser("run", help="evaluate, applying integer arguments")
    p_run.add_argument("name")
    p_run.add_argument("args", type=int, nargs="*")
    _limit_flags(p_run, with_defaults=False)

    p_check = sub.add_parser("check", help="report free names in generated code")
    p_check.add_argument("name")
    _limit_flags(p_check, with_defaults=False)

    return parser


def _tree_of(entry, canon_limit) -> BaseAst:
    built = entry.builder()
    if entry.kind is ExampleKind.BASE_PROGRAM:
        return built
    return show(built, canon_limit=canon_limit)


def main(argv=None) -> int:
    try:
        opts = _build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE

    if opts.command == "list":
        for entry in sorted(registry(), key=lambda e: e.name):
            print(f"{entry.name} {entry.kind.value}")
        return EXIT_OK

    entry = lookup(opts.name)
    if entry is None:
        print(f"unknown example: {opts.name}", file=sys.stderr)
        return EXIT_UNKNOWN

    try:
        if opts.command == "show":
            tree = _tree_of(entry, opts.canon_limit)
            print(pretty(tree) if opts.format == "pretty" else to_sexp(tree))
        elif opts.command == "run":
            if entry.kind is ExampleKind.BASE_PROGRAM:
                value = eval_ast(entry.builder(), {}, step_limit=opts.step_limit)
            else:
                value = run(
                    entry.builder(),
                    step_limit=opts.step_limit,
                    canon_limit=opts.canon_limit,
                )
            print(render_value(apply_ints(value, opts.args)))
        else:  # check
            free = free_vars(_tree_of(entry, opts.canon_limit))
            if free:
                print("free: " + " ".join(sorted(n.render() for n in free)))
                return EXIT_FREE
            print("closed")
    except StagingError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_STAGING
    return EXIT_OK


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
