"""Command-line front end.

The plain form of a command line, the command and then its positionals,
flags and ``--option value`` pairs by their full names in any order, is
read straight from the ``_COMMANDS`` table.  Every other form (``-h`` or
``--help``, ``--out FILE`` before the command, ``--option=value``, an
abbreviated option, ``--``, a value that starts with ``-``) and every
usage error goes to an argparse parser built from the same table, which
is imported only then; help, messages and exit statuses are argparse's.

Exit codes: 0 success; 1 a check report contains failures or a decision
misses ``--expect``; 2 usage, parse or sort error, a bad bound or sample
count, an unreadable ``--graph`` or unwritable ``--out`` file, or input
nested past ``syntax._DEEP_LIMIT`` (a command that meets the recursion
limit runs once more on a big stack, under that limit); 3 language,
recognizer or strategy violation; 4 stuck rewrite.  Nothing is written
to disk unless ``--out`` is given.
"""

from __future__ import annotations

import functools
import os
import sys
from pathlib import Path
from types import SimpleNamespace

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
from .syntax import Sort, _on_big_stack, sort_of
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


_LEVEL = {"type": int, "choices": (1, 2, 3), "default": 2}

# Per command: handler, help, positionals and options, each argument with
# the keywords argparse's add_argument takes.  Option names are single
# words, so an option's field is its name without the dashes.  The entry
# under None holds the description and the options before the command.
_COMMANDS = {
    None: (None, "evaluate, decide, recognize and transform arithmetic syntax", {}, {
        "--out": {"metavar": "FILE", "help": "also write the output to FILE"},
    }),
    "eval": (_cmd_eval, "evaluate a term or formula", {"expr": {}}, {
        "--env": {"default": "", "help": "comma-separated name=value pairs"},
        "--bound": {"type": int, "help": "evaluate quantifiers over 0..N"},
    }),
    "decide": (_cmd_decide, "decide a sentence", {"expr": {}}, {
        "--theory": {"choices": ("bt5", "bt6"), "default": "bt6"},
        "--env": {"default": ""},
        "--expect": {"choices": ("tt", "ff")},
    }),
    "recognize": (_cmd_recognize, "check language membership", {"expr": {}}, {
        "--level": _LEVEL,
        "--abs": {"action": "store_true", "default": False,
                  "help": "require a predicate abstraction"},
    }),
    "bplus": (_cmd_bplus, "add two binary numerals", {"a": {}, "b": {}}, {
        "--rewrite": {"action": "store_true", "default": False,
                      "help": "use the conditional rewrite engine"},
    }),
    "btimes": (_cmd_btimes, "multiply two binary numerals", {"a": {}, "b": {}}, {}),
    "induct": (_cmd_induct, "instantiate the induction schema",
               {"pred": {"help": "a (lambda v F) predicate"}}, {"--level": _LEVEL}),
    "check-theory": (_cmd_check_theory, "validate a theory's axioms", {"name": {}}, {
        "--graph": {"metavar": "FILE", "help": "load the theory graph from FILE"},
        "--samples": {"type": int, "default": 200},
        "--bound": {"type": int},
    }),
    "check-morphism": (_cmd_check_morphism, "discharge a morphism's obligations",
                       {"name": {}}, {"--graph": {"metavar": "FILE"}}),
    "normalize": (_cmd_normalize, "canonicalize a binary numeral", {"n": {}}, {}),
}


def _read(argv: list[str]) -> dict | None:
    """The fields argparse would set for a plain command line; ``None``,
    printing nothing, for any other form and for every usage error."""
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is None:
        return None
    handler, _, positionals, options = entry
    fields = {"out": None, "command": argv[0], "handler": handler}
    for name, kw in options.items():
        fields[name[2:]] = kw.get("default")
    given = []
    words = iter(argv[1:])
    for word in words:
        if word[:1] != "-":
            given.append(word)
            continue
        kw = options.get(word)
        if kw is None:
            return None
        if "action" in kw:
            fields[word[2:]] = True
            continue
        value = next(words, "-")
        if value[:1] == "-":
            return None
        try:
            value = kw.get("type", str)(value)
        except ValueError:
            return None
        if value not in kw.get("choices", (value,)):
            return None
        fields[word[2:]] = value
    if len(given) != len(positionals):
        return None
    fields.update(zip(positionals, given))
    return fields


@functools.cache
def _build_parser():
    """The argparse parser of ``_COMMANDS``, built on first use: it reads
    what ``_read`` leaves and prints help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(prog="biforge", description=_COMMANDS[None][1])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, summary, positionals, options) in _COMMANDS.items():
        p = parser if command is None else sub.add_parser(command, help=summary)
        for name, kw in (positionals | options).items():
            p.add_argument(name, **kw)
        if handler is not None:
            p.set_defaults(handler=handler)
    return parser


def run(argv: list[str]) -> int:
    """Execute one command line; prints the result, returns the exit status."""
    fields = _read(argv)
    args = SimpleNamespace(**fields) if fields is not None else _build_parser().parse_args(argv)
    try:
        output, status = _on_big_stack(args.handler, args)
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
