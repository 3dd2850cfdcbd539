"""Workload ``session``: a stream of command lines through ``cli.run()``.

One operation is one command, run in-process with its standard output
captured, covering every contract command.  The expected standard
output and exit code of each command are computed by the benchmark.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout

from biforge import (
    Bounded, LangLevel, SchemaKind, Sort, StuckRewrite, binnum_literal,
    bplus, bplus_rewrite, btimes, check_axioms, check_morphism, eval_bool,
    eval_nat, from_construction, induction_instance, is_fo, is_fo_abs,
    morphism, normalize, parse_binnum, parse_construction, parse_environment,
    sort_of, theory, to_construction, to_sexpr,
)
from biforge.cli import run

import decide
from common import Op
from reference import (
    Z, induction_text, level, literal, stuck_expected, succ_chain, text,
    truth, value, var,
)

# Generated commands of one block.  Each block also checks every theory
# once and the morphisms as in MORPHISM_CHECKS: 100 commands.  ``#b`` literals run 4-12 bits where the program
# handles them digit by digit (bplus, btimes, normalize and the
# rewrite), and fewer where it walks their tree, whose size doubles with
# each bit (eval, recognize, decide, induct), so that no single command
# dominates a run.
MIX = {
    "eval": 19, "decide": 18, "recognize": 10, "bplus": 10,
    "bplus_rewrite": 10, "btimes": 8, "normalize": 8, "induct": 7,
}
# Timed rounds, and one pass over one block on the reference host, in
# seconds.  The 1,000 commands a run needs leave time for 6 rounds.
ROUNDS = 6
BLOCK_SECONDS = 0.36
EXTRA_SECONDS = 0.0

THEORIES = {
    "BT1": ("succ-nonzero", "succ-injective"),
    "BT2": ("succ-nonzero", "succ-injective", "plus-zero", "plus-succ"),
    "BT3": ("succ-nonzero", "succ-injective", "plus-zero", "plus-succ",
            "times-zero", "times-succ"),
}
THEORIES["BT4"] = THEORIES["BT3"] + ("zero-or-succ",)
THEORIES["BT5"] = THEORIES["BT1"]
THEORIES["BT6"] = THEORIES["BT2"]
THEORIES["BT7"] = THEORIES["BT3"]
MORPHISMS = {
    "BT4-to-BT7": ("zero-or-succ",),
    "BT7-to-BT8": ("plus-zero", "plus-succ", "times-zero", "times-succ"),
}
# Checks of each morphism per block.  Checking BT7-to-BT8 is the slowest
# command, so with one per block the 10 of a run lay above p99 (the 11th
# slowest of 1,000), which was then the slowest of all other commands,
# an extreme that swung from run to run.  With 20, p99 falls among them.
MORPHISM_CHECKS = {"BT4-to-BT7": 1, "BT7-to-BT8": 2}
# Defaults the CLI applies to check-theory.
CHECK_SAMPLES, CHECK_BOUND = 200, 32


def _bits(rng, lo, hi, lead=""):
    """``lo`` to ``hi`` random bits, most-significant first, after ``lead``."""
    n = rng.randint(lo, hi)
    return lead + "".join(rng.choice("01") for _ in range(n - len(lead)))


def _lit(rng, lo, hi):
    return ("lit", _bits(rng, lo, hi))


def _term(rng, names, depth, bits=(4, 8), times=False):
    r = rng.random()
    if depth <= 0 or r < 0.3:
        pick = rng.random()
        if pick < 0.5 and names:
            t = var(rng.choice(names))
        elif pick < 0.8:
            t = _lit(rng, *bits)
        else:
            t = Z
        return succ_chain(t, rng.randint(0, 2))
    op = "*" if times and rng.random() < 0.3 else "+"
    return (op, _term(rng, names, depth - 1, bits, times),
            _term(rng, names, depth - 1, bits, times))


def _atom(rng, names, bits=(4, 8), times=False):
    return ("=", _term(rng, names, 1, bits, times), _term(rng, names, 1, bits, times))


def _qf(rng, names, bits=(4, 8), times=False):
    r = rng.random()
    if r < 0.5:
        return _atom(rng, names, bits, times)
    if r < 0.7:
        return ("not", _atom(rng, names, bits, times))
    return (rng.choice(("and", "or", "imp")), _atom(rng, names, bits, times),
            _atom(rng, names, bits, times))


def _env_text(env):
    return ",".join(f"{k}={v}" for k, v in sorted(env.items()))


# Each generator returns (argv, expected exit code, expected stdout).

def _eval(rng):
    env = {"x": rng.randint(0, 50), "y": rng.randint(0, 50)}
    r = rng.random()
    if r < 0.4:
        t = _term(rng, ["x", "y"], 2, times=True)
        return ["eval", "--env", _env_text(env), text(t)], 0, f"{value(t, env)}\n"
    if r < 0.7:
        f = _qf(rng, ["x", "y"], times=True)
        out = "tt" if truth(f, env) else "ff"
        return ["eval", "--env", _env_text(env), text(f)], 0, f"{out}\n"
    bound = rng.randint(6, 12)
    f = _qf(rng, ["x", "y"], bits=(4, 5))
    for v in rng.sample(["x", "y"], rng.randint(1, 2)):
        f = (rng.choice(("forall", "exists")), v, f)
    out = "tt" if truth(f, env, bound) else "ff"
    argv = ["eval", "--bound", str(bound), "--env", _env_text(env), text(f)]
    return argv, 0, f"{out}\n"


def _decide(rng):
    lit = _lit(rng, 4, 6)
    k = value(lit, {})
    x, y = rng.randint(0, 60), rng.randint(0, 60)
    pick = rng.randrange(4)
    argv = ["decide"]
    if pick == 0:
        f = ("exists", "y", ("=", lit, ("+", var("y"), var("y"))))
        want, env = k % 2 == 0, {}
    elif pick == 1:
        f = ("exists", "y", ("=", ("+", var("x"), lit), ("+", var("y"), var("y"))))
        want, env = (x + k) % 2 == 0, {"x": x}
    elif pick == 2:
        f = ("exists", "d", ("=", var("y"), ("+", ("+", var("x"), lit), var("d"))))
        want, env = x + k <= y, {"x": x, "y": y}
    else:  # the successor language, through the bt5 procedure
        c = rng.randint(0, 4)
        f = ("exists", "y", ("=", ("s", var("y")), succ_chain(var("x"), c)))
        want, env = x + c >= 1, {"x": x}
        argv += ["--theory", "bt5"]
    if env:
        argv += ["--env", _env_text(env)]
    verdict = "tt" if want else "ff"
    code = 0
    if rng.random() < 0.3:
        expect = rng.choice(("tt", "ff"))
        argv += ["--expect", expect]
        code = 0 if expect == verdict else 1
    return argv + [text(f)], code, f"{verdict}\n"


def _recognize(rng):
    lvl = rng.randint(1, 3)
    f = _qf(rng, ["x", "y"], bits=(4, 8), times=rng.random() < 0.5)
    if rng.random() < 0.5:
        f = (rng.choice(("forall", "exists")), "y", f)
    argv = ["recognize", "--level", str(lvl)]
    if rng.random() < 0.4:
        argv.append("--abs")
        node = ("lambda", "x", f) if rng.random() < 0.8 else f
        yes = node[0] == "lambda" and level(node[2]) <= lvl
    else:
        node = ("lambda", "x", f) if rng.random() < 0.15 else f
        yes = node[0] != "lambda" and level(node) <= lvl
    return argv + [text(node)], (0 if yes else 3), ("yes\n" if yes else "no\n")


def _bits_arg(rng):
    bits = _bits(rng, 4, 12)
    return "#b" + bits, int(bits, 2)


def _bplus(rng):
    (a, va), (b, vb) = _bits_arg(rng), _bits_arg(rng)
    return ["bplus", a, b], 0, literal(va + vb) + "\n"


def _bplus_rewrite(rng):
    a, b = _bits(rng, 4, 12, lead="1"), _bits(rng, 4, 12, lead="1")
    va, vb = int(a, 2), int(b, 2)
    argv = ["bplus", "--rewrite", "#b" + a, "#b" + b]
    if stuck_expected(va, vb):
        return argv, 4, ""
    return argv, 0, literal(va + vb) + "\n"


def _btimes(rng):
    (a, va), (b, vb) = _bits_arg(rng), _bits_arg(rng)
    return ["btimes", a, b], 0, literal(va * vb) + "\n"


def _normalize(rng):
    a, va = _bits_arg(rng)
    return ["normalize", a], 0, literal(va) + "\n"


def _induct(rng):
    x = var("x")
    r = rng.random()
    if r < 0.4:
        lit = _lit(rng, 4, 5)
        body = ("=", ("+", x, lit), ("+", lit, x))
    elif r < 0.7:
        body = ("or", ("=", x, Z), ("exists", "y", ("=", ("s", var("y")), x)))
    else:
        body = _atom(rng, ["x"], bits=(4, 5))
    pred = ("lambda", "x", body)
    return ["induct", text(pred)], 0, induction_text(pred) + "\n"


def _report(title, subjects):
    """Check a ``check-*`` command: exit 0 and a rendered report, the
    title, then one Discharged line per entry, covering at least the
    named subjects."""
    def check(got):
        if not isinstance(got, tuple) or got[0] != 0:
            return False
        out = got[1]
        lines = out[:-1].split("\n")
        if not out.endswith("\n") or lines[0] != title or len(lines) < 1 + len(subjects):
            return False
        seen = []
        for line in lines[1:]:
            subject, sep, rest = line.strip().partition(": ")
            if not line.startswith("  ") or not sep or not rest.startswith("Discharged("):
                return False
            seen.append(subject)
        return all(s in seen for s in subjects)
    return check


GENERATORS = {
    "eval": _eval, "decide": _decide, "recognize": _recognize,
    "bplus": _bplus, "bplus_rewrite": _bplus_rewrite, "btimes": _btimes,
    "normalize": _normalize, "induct": _induct,
}


def _capture(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    return code, out.getvalue()


# Staged replays: each handler's steps through the layers' public
# functions, printing what the command would print.

def _staged_eval(tr, args):
    c = tr.stage("sexpr.parse_ms", parse_construction, args["expr"])
    env = parse_environment(args.get("--env", ""))
    sort = tr.stage("syntax.sort_of_ms", sort_of, c)
    if sort is Sort.NAT:
        return 0, f"{tr.stage('semantics.eval_ms', eval_nat, c, env)}\n"
    if "--bound" in args:
        hit = tr.stage("semantics.oracle_ms", eval_bool, c, env, Bounded(int(args["--bound"])))
    else:
        hit = tr.stage("semantics.eval_ms", eval_bool, c, env)
    return 0, ("tt\n" if hit else "ff\n")


def _staged_decide(tr, args):
    c = tr.stage("sexpr.parse_ms", parse_construction, args["expr"])
    env = parse_environment(args.get("--env", ""))
    lang = LangLevel.L1 if args.get("--theory") == "bt5" else LangLevel.L2
    verdict = decide.pipeline(tr, c, env, lang).value
    expect = args.get("--expect")
    return (1 if expect is not None and expect != verdict else 0), f"{verdict}\n"


def _staged_recognize(tr, args):
    c = tr.stage("sexpr.parse_ms", parse_construction, args["expr"])
    lvl = LangLevel(int(args["--level"]))
    test = is_fo_abs if "--abs" in args else is_fo
    yes = tr.stage("recognizers.is_fo_ms", test, lvl, c)
    return (0, "yes\n") if yes else (3, "no\n")


def _printed(n):
    return 0, binnum_literal(n) + "\n"


def _numerals(args):
    return [parse_binnum(a) for a in args["pos"]]


def _staged_bplus(tr, args):
    a, b = _numerals(args)
    if "--rewrite" not in args:
        return _printed(bplus(a, b))
    ta, tb = to_construction(a), to_construction(b)
    try:
        sum_term = tr.stage("binum.rewrite_ms", bplus_rewrite, ta, tb)
    except StuckRewrite:
        return 4, ""
    return _printed(from_construction(sum_term))


def _staged_btimes(tr, args):
    a, b = _numerals(args)
    return _printed(btimes(a, b))


def _staged_normalize(tr, args):
    (a,) = _numerals(args)
    return _printed(normalize(a))


def _staged_induct(tr, args):
    pred = tr.stage("sexpr.parse_ms", parse_construction, args["expr"])
    instance = induction_instance(SchemaKind.INDUCTION_L2, pred)
    out = tr.stage("sexpr.print_ms", to_sexpr, instance)
    tr.count("sexpr.print_bytes", len(out))
    return 0, out + "\n"


def _staged_check_theory(tr, args):
    t = tr.stage("theory.lookup_ms", theory, args["expr"])
    report = tr.stage("theory.check_axioms_ms", check_axioms, t, CHECK_SAMPLES, CHECK_BOUND)
    return (0 if report.ok else 1), report.render() + "\n"


def _staged_check_morphism(tr, args):
    m = tr.stage("theory.lookup_ms", morphism, args["expr"])
    report = tr.stage("theory.check_morphism_ms", check_morphism, m)
    return (0 if report.ok else 1), report.render() + "\n"


STAGED = {
    "eval": _staged_eval, "decide": _staged_decide, "recognize": _staged_recognize,
    "bplus": _staged_bplus, "bplus_rewrite": _staged_bplus, "btimes": _staged_btimes,
    "normalize": _staged_normalize, "induct": _staged_induct,
    "check-theory": _staged_check_theory, "check-morphism": _staged_check_morphism,
}


def _args(argv):
    """Options and positionals of a generated command line."""
    args, pos, i = {}, [], 1
    while i < len(argv):
        a = argv[i]
        if a in ("--rewrite", "--abs"):
            args[a] = True
        elif a.startswith("--"):
            args[a] = argv[i + 1]
            i += 1
        else:
            pos.append(a)
        i += 1
    args["pos"] = pos
    args["expr"] = pos[-1]
    return args


def _op(kind, argv, check) -> Op:
    args = _args(argv)
    staged_fn = STAGED[kind]
    return Op(f"cli.run_ms.{kind}", lambda: _capture(argv), check,
              lambda tr: staged_fn(tr, args))


def build(seed: int, blocks: int) -> list[list[Op]]:
    rng = random.Random(f"session/{seed}")
    blocks_out: list[list[Op]] = []
    for _ in range(blocks):
        block = []
        for kind, count in MIX.items():
            gen = GENERATORS[kind]
            for _ in range(count):
                argv, code, out = gen(rng)
                block.append(_op(kind, argv, lambda got, w=(code, out): got == w))
        for name in sorted(THEORIES):
            check = _report(f"axiom check for {name}", THEORIES[name])
            block.append(_op("check-theory", ["check-theory", name], check))
        for name, count in MORPHISM_CHECKS.items():
            check = _report(f"morphism check for {name}", MORPHISMS[name])
            block += [_op("check-morphism", ["check-morphism", name], check)
                      for _ in range(count)]
        rng.shuffle(block)
        blocks_out.append(block)
    return blocks_out


def deep_check(ops, outputs) -> list[str]:
    return []
