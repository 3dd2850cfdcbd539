"""Command-line front end.

Exit codes: 0 success; 1 a check report contains failures or a decision
misses ``--expect``; 2 usage, parse or sort error, a bad bound or sample
count, an unreadable ``--graph`` or unwritable ``--out`` file, or input
nested too deeply for the interpreter's recursion limit; 3 language,
recognizer or strategy violation; 4 stuck rewrite.  Nothing is written
to disk unless ``--out`` is given.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .binum import (
    bplus, bplus_rewrite, btimes, from_construction, normalize,
    to_construction,
)
from .errors import (
    LanguageError, NotAnAbstraction, NotBnum, ParseError,
    QuantifierEncountered, SortError, StuckRewrite,
)
from .presburger import decide_bt5, decide_bt6
from .recognizers import LangLevel, is_fo, is_fo_abs
from .semantics import Bounded, QUANTIFIER_FREE, eval_bool, eval_nat, parse_environment
from .sexpr import binnum_literal, parse_binnum, parse_construction, to_sexpr
from .syntax import Sort, sort_of
from .theory import (
    SchemaKind, check_axioms, check_morphism, induction_instance, morphism,
    parse_theory_graph, theory,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_LANGUAGE = 3
EXIT_STUCK = 4


def _default_bound() -> int:
    """``BIFORGE_BOUND``, read on every call, else 32."""
    text = os.environ.get("BIFORGE_BOUND", "32")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"BIFORGE_BOUND must be a natural, got {text!r}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biforge",
        description="evaluate, decide, recognize and transform arithmetic syntax",
    )
    parser.add_argument("--out", metavar="FILE", help="also write the output to FILE")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a term or formula")
    p.add_argument("expr")
    p.add_argument("--env", default="", help="comma-separated name=value pairs")
    p.add_argument("--bound", type=int, default=None,
                   help="evaluate quantifiers over 0..N")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("decide", help="decide a sentence")
    p.add_argument("expr")
    p.add_argument("--theory", choices=("bt5", "bt6"), default="bt6")
    p.add_argument("--env", default="")
    p.add_argument("--expect", choices=("tt", "ff"), default=None)
    p.set_defaults(handler=_cmd_decide)

    p = sub.add_parser("recognize", help="check language membership")
    p.add_argument("expr")
    p.add_argument("--level", type=int, choices=(1, 2, 3), default=2)
    p.add_argument("--abs", action="store_true",
                   help="require a predicate abstraction")
    p.set_defaults(handler=_cmd_recognize)

    p = sub.add_parser("bplus", help="add two binary numerals")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--rewrite", action="store_true",
                   help="use the conditional rewrite engine")
    p.set_defaults(handler=_cmd_bplus)

    p = sub.add_parser("btimes", help="multiply two binary numerals")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(handler=_cmd_btimes)

    p = sub.add_parser("induct", help="instantiate the induction schema")
    p.add_argument("pred", help="a (lambda v F) predicate")
    p.add_argument("--level", type=int, choices=(1, 2, 3), default=2)
    p.set_defaults(handler=_cmd_induct)

    p = sub.add_parser("check-theory", help="validate a theory's axioms")
    p.add_argument("name")
    p.add_argument("--graph", metavar="FILE", help="load the theory graph from FILE")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--bound", type=int, default=None)
    p.set_defaults(handler=_cmd_check_theory)

    p = sub.add_parser("check-morphism", help="discharge a morphism's obligations")
    p.add_argument("name")
    p.add_argument("--graph", metavar="FILE")
    p.set_defaults(handler=_cmd_check_morphism)

    p = sub.add_parser("normalize", help="canonicalize a binary numeral")
    p.add_argument("n")
    p.set_defaults(handler=_cmd_normalize)

    return parser


def _cmd_eval(args) -> tuple[str, int]:
    c = parse_construction(args.expr)
    env = parse_environment(args.env)
    strategy = Bounded(args.bound) if args.bound is not None else QUANTIFIER_FREE
    sort = sort_of(c)
    if sort is Sort.NAT:
        return str(eval_nat(c, env)), EXIT_OK
    if sort is Sort.BOOL:
        return ("tt" if eval_bool(c, env, strategy) else "ff"), EXIT_OK
    raise SortError("cannot evaluate an abstraction")


def _cmd_decide(args) -> tuple[str, int]:
    c = parse_construction(args.expr)
    env = parse_environment(args.env)
    decide = decide_bt5 if args.theory == "bt5" else decide_bt6
    verdict = decide(c, env)
    text = verdict.value
    status = EXIT_OK
    if args.expect is not None and text != args.expect:
        status = EXIT_CHECK_FAILED
    return text, status


def _cmd_recognize(args) -> tuple[str, int]:
    c = parse_construction(args.expr)
    level = LangLevel(args.level)
    accepted = is_fo_abs(level, c) if args.abs else is_fo(level, c)
    return ("yes", EXIT_OK) if accepted else ("no", EXIT_LANGUAGE)


def _cmd_bplus(args) -> tuple[str, int]:
    a = parse_binnum(args.a)
    b = parse_binnum(args.b)
    if args.rewrite:
        result = from_construction(
            bplus_rewrite(to_construction(a), to_construction(b))
        )
    else:
        result = bplus(a, b)
    return binnum_literal(result), EXIT_OK


def _cmd_btimes(args) -> tuple[str, int]:
    return binnum_literal(btimes(parse_binnum(args.a), parse_binnum(args.b))), EXIT_OK


def _cmd_induct(args) -> tuple[str, int]:
    pred = parse_construction(args.pred)
    kind = SchemaKind(f"induction-l{args.level}")
    return to_sexpr(induction_instance(kind, pred)), EXIT_OK


def _lookup(args, index: int, kind: str, builtin):
    """The named record: entry ``index`` (0 theories, 1 morphisms) of
    the ``--graph`` file when one is given, else the built-in one."""
    if args.graph is None:
        return builtin(args.name)
    try:
        text = Path(args.graph).read_text()
    except OSError as err:
        raise ValueError(f"cannot read {args.graph}: {err.strerror}") from None
    records = parse_theory_graph(text)[index]
    if args.name not in records:
        raise ParseError(f"no {kind} {args.name!r} in {args.graph}", 0)
    return records[args.name]


def _cmd_check_theory(args) -> tuple[str, int]:
    t = _lookup(args, 0, "theory", theory)
    bound = args.bound if args.bound is not None else _default_bound()
    report = check_axioms(t, samples=args.samples, bound=bound)
    return report.render(), EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _cmd_check_morphism(args) -> tuple[str, int]:
    report = check_morphism(_lookup(args, 1, "morphism", morphism))
    return report.render(), EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _cmd_normalize(args) -> tuple[str, int]:
    return binnum_literal(normalize(parse_binnum(args.n))), EXIT_OK


def run(argv: list[str]) -> int:
    """Execute one command line; prints the result, returns the exit status."""
    args = _build_parser().parse_args(argv)
    try:
        output, status = args.handler(args)
    except (ParseError, SortError, NotBnum, KeyError, ValueError, RecursionError) as err:
        # str() of a KeyError is the repr of its argument, quotes included.
        message = err.args[0] if isinstance(err, KeyError) else err
        print(f"error: {message}", file=sys.stderr)
        return EXIT_PARSE
    except (LanguageError, NotAnAbstraction, QuantifierEncountered) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_LANGUAGE
    except StuckRewrite as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_STUCK
    print(output)
    if args.out:
        try:
            Path(args.out).write_text(output + "\n")
        except OSError as err:
            print(f"error: cannot write {args.out}: {err.strerror}", file=sys.stderr)
            return EXIT_PARSE
    return status


def console_main() -> None:
    if hasattr(sys, "set_int_max_str_digits"):  # lift the 4,300-digit cap on int <-> str
        sys.set_int_max_str_digits(0)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
