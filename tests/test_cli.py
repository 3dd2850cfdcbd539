import argparse
import functools
import io
import os
import random
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import biforge.cli as cli
import biforge.syntax as syntax
from biforge.cli import (
    _COMMANDS, _build_parser, _cmd_bplus, _cmd_btimes, _cmd_check_morphism,
    _cmd_check_theory, _cmd_decide, _cmd_eval, _cmd_induct, _cmd_normalize,
    _cmd_recognize, _read, run,
)


def test_decide_contract(capsys):
    code = run(["decide", "--theory", "bt6",
                "(forall x (or (= x z) (exists y (= (s y) x))))"])
    assert capsys.readouterr().out == "tt\n"
    assert code == 0


def test_bplus_contract(capsys):
    code = run(["bplus", "#b1", "#b1"])
    assert capsys.readouterr().out == "#b10\n"
    assert code == 0


def test_recognize_contract(capsys):
    code = run(["recognize", "--level", "2", "(= (* x x) x)"])
    assert capsys.readouterr().out == "no\n"
    assert code == 3


def test_recognize_yes(capsys):
    code = run(["recognize", "--level", "3", "(= (* x x) x)"])
    assert capsys.readouterr().out == "yes\n"
    assert code == 0


def test_recognize_abs(capsys):
    code = run(["recognize", "--level", "2", "--abs", "(lambda x (= (+ x z) x))"])
    assert capsys.readouterr().out == "yes\n"
    assert code == 0


def test_eval_term_with_env(capsys):
    code = run(["eval", "--env", "x=3,y=4", "(+ x (s y))"])
    assert capsys.readouterr().out == "8\n"
    assert code == 0


def test_eval_formula_bounded(capsys):
    code = run(["eval", "--bound", "5", "(forall x (= (+ x z) x))"])
    assert capsys.readouterr().out == "tt\n"
    assert code == 0


def test_eval_quantifier_without_bound_is_violation(capsys):
    code = run(["eval", "(forall x (= x x))"])
    assert code == 3


def test_parse_error_exit(capsys):
    assert run(["eval", "(s z"]) == 2
    assert run(["eval", "(s tt)"]) == 2


def test_decide_expect(capsys):
    code = run(["decide", "--expect", "tt", "(exists y (= (s y) z))"])
    assert capsys.readouterr().out == "ff\n"
    assert code == 1


def test_decide_language_violation(capsys):
    assert run(["decide", "(= (* x x) x)"]) == 3


def test_decide_env(capsys):
    code = run(["decide", "--env", "x=4", "(exists y (= x (+ y y)))"])
    assert capsys.readouterr().out == "tt\n"
    assert code == 0


def test_bplus_rewrite_ok(capsys):
    code = run(["bplus", "--rewrite", "2", "3"])
    assert capsys.readouterr().out == "#b101\n"
    assert code == 0


def test_bplus_rewrite_stuck(capsys):
    code = run(["bplus", "--rewrite", "1", "3"])
    assert code == 4


@pytest.mark.parametrize("a, b, redex", [
    ("1", "3", "(bplus #b1 #b11)"),
    ("#b1", "#b0011", "(bplus #b1 #b0011)"),
    ("#b1", "#b" + "1" * 400, "(bplus #b1 #b" + "1" * 400 + ")"),
])
def test_stuck_rewrite_message_prints_the_redex_as_literals(capsys, a, b, redex):
    # The operands print most-significant digit first, high zeros kept,
    # in text as long as their digits: a 400-bit message is under 1 KB.
    assert run(["bplus", "--rewrite", a, b]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no rewrite rule applies to {redex}\n"
    assert len(captured.err) < 1024


ONES_2048 = "#b" + "1" * 2048


@pytest.mark.parametrize("a, b, out", [
    (ONES_2048, ONES_2048, "#b" + "1" * 2048 + "0\n"),
    (ONES_2048, "#b1", "#b1" + "0" * 2048 + "\n"),
], ids=["ones-ones", "ones-one"])
def test_bplus_rewrite_answers_at_2048_bits(capsys, a, b, out):
    assert run(["bplus", "--rewrite", a, b]) == 0
    assert capsys.readouterr() == (out, "")


def test_bplus_rewrite_at_2048_bits_sticks_in_one_line(capsys):
    assert run(["bplus", "--rewrite", "#b1", ONES_2048]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no rewrite rule applies to (bplus #b1 {ONES_2048})\n"
    assert len(captured.err.encode()) == 2097


def test_btimes(capsys):
    code = run(["btimes", "6", "7"])
    assert capsys.readouterr().out == "#b101010\n"
    assert code == 0


def test_normalize(capsys):
    code = run(["normalize", "#b0110"])
    assert capsys.readouterr().out == "#b110\n"
    assert code == 0


def test_induct(capsys):
    code = run(["induct", "(lambda x (= (+ x z) x))"])
    out = capsys.readouterr().out
    assert out == (
        "(imp (and (= (+ z z) z) (forall x (imp (= (+ x z) x) "
        "(= (+ (s x) z) (s x))))) (forall x (= (+ x z) x)))\n"
    )
    assert code == 0


def test_induct_rejects_non_abstraction(capsys):
    assert run(["induct", "tt"]) == 3


def test_a_predicate_with_a_term_body_is_refused(capsys):
    assert run(["recognize", "--abs", "(lambda x (+ x x))"]) == 3
    assert capsys.readouterr() == ("no\n", "")
    assert run(["induct", "(lambda x (+ x x))"]) == 2
    assert capsys.readouterr() == ("", "error: lambda needs a bool argument, got nat\n")


def test_check_theory(capsys):
    code = run(["check-theory", "BT2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "plus-zero: Discharged(decide-bt6)" in out


def test_check_morphism(capsys):
    code = run(["check-morphism", "BT4-to-BT7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "zero-or-succ: Discharged(decide-l2)" in out


def test_rendered_builtin_graph_file_checks_like_the_builtins(tmp_path, capsys):
    from biforge.theory import builtin_morphisms, registry, render_theory_graph

    path = tmp_path / "graph.txt"
    path.write_text(render_theory_graph(registry(), builtin_morphisms()))
    argvs = [["check-theory", t.name] for t in registry()]
    argvs += [["check-morphism", m.name] for m in builtin_morphisms()]
    for argv in argvs:
        builtin = run(argv), capsys.readouterr()
        assert (run(argv + ["--graph", str(path)]), capsys.readouterr()) == builtin


def test_check_theory_from_graph_file(tmp_path, capsys):
    from biforge.theory import builtin_morphisms, registry, render_theory_graph

    path = tmp_path / "graph.txt"
    path.write_text(render_theory_graph(registry()[:3], builtin_morphisms()))
    code = run(["check-theory", "BT2", "--graph", str(path)])
    assert code == 0
    capsys.readouterr()
    code = run(["check-morphism", "BT4-to-BT7", "--graph", str(path)])
    assert code == 0


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "result.txt"
    code = run(["--out", str(target), "bplus", "#b1", "#b1"])
    assert code == 0
    capsys.readouterr()
    assert target.read_text() == "#b10\n"


def test_bound_env_variable(monkeypatch, capsys):
    monkeypatch.setenv("BIFORGE_BOUND", "8")
    code = run(["check-theory", "BT3", "--samples", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "bounded-oracle[5x8]" in out
    # Read again on the next call, not kept from the first.
    monkeypatch.setenv("BIFORGE_BOUND", "4")
    assert run(["check-theory", "BT3", "--samples", "5"]) == 0
    assert "bounded-oracle[5x4]" in capsys.readouterr().out


def test_unknown_theory_name(capsys):
    assert run(["check-theory", "BT99"]) == 2
    assert capsys.readouterr().err == "error: no such theory: BT99\n"


def test_nonpositive_samples_are_rejected(capsys):
    assert run(["check-theory", "BT3", "--samples", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: samples must be positive, got -5\n"


def test_graph_obligation_with_zero_samples_is_rejected(tmp_path, capsys):
    path = tmp_path / "graph.txt"
    path.write_text(
        "morphism bogus-m\n"
        "  source BT3\n"
        "  target BT3\n"
        "  obligation bogus model-check 0 32 (forall x (= (* x z) (s z)))\n"
    )
    assert run(["check-morphism", "bogus-m", "--graph", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: line 4: samples must be positive, got 0 (at position 13)\n"
    )


@pytest.mark.parametrize("env_bound, argv, message", [
    ("-3", [], "bound must be a natural, got -3"),
    (None, ["--bound", "-1"], "bound must be a natural, got -1"),
    ("abc", [], "BIFORGE_BOUND must be a natural, got 'abc'"),
])
def test_bad_bound_is_one_line(monkeypatch, capsys, env_bound, argv, message):
    if env_bound is None:
        monkeypatch.delenv("BIFORGE_BOUND", raising=False)
    else:
        monkeypatch.setenv("BIFORGE_BOUND", env_bound)
    assert run(["check-theory", "BT3", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_out_to_a_directory_is_an_error(tmp_path, capsys):
    code = run(["--out", str(tmp_path), "bplus", "#b1", "#b1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "#b10\n"
    assert captured.err == f"error: cannot write {tmp_path}: Is a directory\n"


@pytest.mark.parametrize("command, name", [
    ("check-theory", "BT1"),
    ("check-morphism", "BT4-to-BT7"),
])
@pytest.mark.parametrize("missing", [True, False])
def test_unreadable_graph_file_is_one_line(tmp_path, capsys, command, name, missing):
    path = tmp_path / "absent.txt" if missing else tmp_path
    reason = "No such file or directory" if missing else "Is a directory"
    assert run([command, name, "--graph", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read {path}: {reason}\n"


def test_rewrite_flag_does_not_stick(monkeypatch, capsys):
    import biforge.cli as cli

    assert run(["bplus", "--rewrite", "2", "3"]) == 0
    rewrites = []
    monkeypatch.setattr(cli, "bplus_rewrite",
                        lambda a, b: rewrites.append((a, b)))
    assert run(["bplus", "2", "3"]) == 0
    assert rewrites == []
    assert capsys.readouterr().out == "#b101\n#b101\n"


def test_out_flag_does_not_stick(tmp_path, capsys):
    target = tmp_path / "result.txt"
    assert run(["--out", str(target), "bplus", "#b1", "#b1"]) == 0
    target.unlink()
    assert run(["bplus", "#b1", "#b1"]) == 0
    assert not target.exists()


def test_usage_error_goes_to_the_current_stderr(capsys):
    first, second = io.StringIO(), io.StringIO()
    with redirect_stderr(first), pytest.raises(SystemExit) as exited:
        run(["frobnicate"])
    assert exited.value.code == 2
    with redirect_stderr(second), pytest.raises(SystemExit):
        run(["bplus", "#b1"])
    assert "invalid choice: 'frobnicate'" in first.getvalue()
    assert "usage: biforge bplus" in second.getvalue()
    assert "frobnicate" not in second.getvalue()
    assert run(["bplus", "#b1", "#b1"]) == 0
    assert capsys.readouterr().out == "#b10\n"


def test_module_entry_point():
    import biforge

    src = str(Path(biforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-m", "biforge.cli", "bplus", "#b1", "#b1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.stdout, done.returncode) == ("#b10\n", 0)


def test_package_runs_as_a_module():
    import biforge

    src = str(Path(biforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-m", "biforge", "decide", "--theory", "bt6",
         "(forall x (or (= x z) (exists y (= (s y) x))))"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.stdout, done.stderr, done.returncode) == ("tt\n", "", 0)


def test_the_command_line_reads_decimals_of_any_length():
    # Python caps int <-> str conversion at 4,300 digits by default; the
    # console entry lifts it for the process it runs in.
    import biforge

    src = str(Path(biforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    ones = "1" * 5000  # (10**5000 - 1) // 9, which this process may not read with int()
    for argv, want in [
        (["normalize", ones], "#b" + bin((10**5000 - 1) // 9)[2:]),
        (["eval", "--env", f"x={ones}", "(s x)"], ones[:-1] + "2"),
    ]:
        done = subprocess.run([sys.executable, "-m", "biforge", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (done.stdout, done.stderr, done.returncode) == (want + "\n", "", 0)


@pytest.mark.parametrize("text, line", [
    ("theory T\n  level 2\n  schema induction-l9\n", "line 3: unknown schema kind"),
    ("# header\n\ntheory T\n  level 2\n  axiom open (= x z)\n", "line 3: axiom open of T"),
    # A directive of the other record kind.
    ("theory T\n  level 2\n  source BT1\n", "line 3: unknown theory directive 'source'"),
    ("morphism M\n  source BT3\n  axiom a (= z z)\n",
     "line 3: unknown morphism directive 'axiom'"),
    ("theory T\n  level 2\n  obligation a decide-l2 (= z z)\n",
     "line 3: unknown theory directive 'obligation'"),
    # A record is built when its block ends, before the next block is read.
    ("theory T\n  level 2\n  axiom open (= x z)\n\ntheory U\n  bogus\n",
     "line 1: axiom open of T is not closed"),
    # Reader errors carry their position once, counted from the start of
    # the line.
    ("theory T\n  level 2\n  axiom a (= z z\n", "line 3: unclosed '(' (at position 10)\n"),
    ("theory T\n  level 2\n  axiom a\n", "line 3: empty input (at position 9)\n"),
    ("morphism M\n  obligation a decide-l2 (= z z))\n",
     "line 2: trailing input ')' (at position 32)\n"),
    ("morphism M\n  map 0\n", "line 2: map needs two symbols, got '0'"),
    ("theory\n  level 2\n", "line 1: theory needs a name"),
    ("theory T\n  level 2\nmorphism # no name\n", "line 3: morphism needs a name"),
    # A name once per kind, a one-value directive once per record, and a
    # value for every directive; the first fault in line order wins.
    ("theory T\n  level 2\n  axiom a (= z z)\ntheory T\n  level 1\n",
     "line 4: theory T is already defined"),
    ("morphism M\n  source BT1\n\nmorphism M\n", "line 4: morphism M is already defined"),
    ("theory T\n  level 2\n  level 1\n", "line 3: a second level line in theory T"),
    ("theory T\n  level higher-order\n  level higher-order\n",
     "line 3: a second level line in theory T"),
    ("morphism M\n  source BT1\n  source BT2\n", "line 3: a second source line in morphism M"),
    ("morphism M\n  target BT1\n  map + +\n  target BT1\n",
     "line 4: a second target line in morphism M"),
    ("theory T\n  level 2\n  extends\n", "line 3: extends needs a value"),
    ("morphism M\n  source   # no name\n", "line 2: source needs a value"),
    ("theory T\n  level 2\n  level\ntheory T\n", "line 3: level needs a value"),
    ("theory T\n  axiom open (= x z)\ntheory T\n", "line 1: axiom open of T is not closed"),
    # An axiom or obligation must be a well-sorted formula, reported at
    # the value's column.
    ("theory T\n  level 2\n  axiom a (+ z z)\n", "line 3: axiom a is not a formula (at position 8)\n"),
    ("theory T\n  level 2\n  axiom a (= tt z)\n", "line 3: axiom a is not a formula (at position 8)\n"),
    ("morphism M\n  obligation t decide-l2 (+ z z)\n",
     "line 2: obligation t is not a formula (at position 13)\n"),
    ("morphism M\n  obligation t model-check 5 3 (+ z z)\n",
     "line 2: obligation t is not a formula (at position 13)\n"),
    ("morphism M\n  obligation t decide-l2 (lambda x (= x x))\n",
     "line 2: obligation t is not a formula (at position 13)\n"),
])
def test_graph_file_errors_name_their_line(tmp_path, capsys, text, line):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    assert run(["check-theory", "T", "--graph", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {line}")


# Sums nested past the raised recursion limit still exit 2 with one
# line.  The limit is lowered so that the input stays small.
@pytest.mark.parametrize("argv", [
    ["eval", "(+ " * 30_000 + "z" + " z)" * 30_000],
])
def test_recursion_limit_is_one_line(capsys, monkeypatch, argv):
    monkeypatch.setattr(syntax, "_DEEP_LIMIT", 20_000)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


# A command that meets the recursion limit runs once more on a big stack,
# so wide literals and deep sums answer.
@pytest.mark.parametrize("bits", [500, 2048, 8192])
def test_wide_literals_answer(capsys, bits):
    literal = "#b" + "1" * bits
    assert run(["eval", literal]) == 0
    out, err = capsys.readouterr()
    assert int(out) == 2 ** bits - 1 and err == ""
    assert run(["recognize", literal]) == 0
    assert capsys.readouterr() == ("yes\n", "")
    assert run(["decide", f"(= {literal} {literal})"]) == 0
    assert capsys.readouterr() == ("tt\n", "")


# Over a variable, the sums and connectives compile to closures nested
# 5,000 deep, which the command's own retry covers.
@pytest.mark.parametrize("head, bottom, env, out", [
    ("+", "z", "", "0"), ("+", "x", "x=1", "5001"), ("and", "tt", "", "tt"),
], ids=["sums-z", "sums-x", "and-tt"])
def test_eval_of_5000_nested_forms_answers(capsys, head, bottom, env, out):
    expr = f"({head} " * 5000 + bottom + f" {bottom})" * 5000
    assert run(["eval", "--env", env, expr]) == 0
    assert capsys.readouterr() == (out + "\n", "")


# Each boundary inside the command's first try re-raises, so a deep
# command is retried once, by the command's own boundary, on one thread.
@pytest.mark.parametrize("argv, out", [
    (["eval", "#b" + "1" * 500], str(2 ** 500 - 1)),
    (["eval", "--env", "x=1", "(+ " * 5000 + "x" + " x)" * 5000], "5001"),
], ids=["literal-500", "sums-x-5000"])
def test_a_deep_command_starts_one_thread(capsys, monkeypatch, argv, out):
    starts, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: starts.append(thread) or start(thread))
    assert run(argv) == 0
    assert capsys.readouterr() == (out + "\n", "")
    assert len(starts) == 1


@pytest.mark.parametrize("depth", [3000, 5000])
@pytest.mark.parametrize("head, bottom, env, answer", [
    ("s", "z", "", lambda n: str(n)),
    ("s", "x", "x=7", lambda n: str(n + 7)),
    ("not", "tt", "", lambda n: "ff" if n % 2 else "tt"),
], ids=["succ-z", "succ-x", "not-tt"])
def test_eval_of_a_deep_chain_answers(capsys, depth, head, bottom, env, answer):
    # A successor chain compiles to one closure plus an offset, and a
    # negation chain to its parity; both parities are checked.
    for n in (depth, depth + 1):
        expr = f"({head} " * n + bottom + ")" * n
        assert run(["eval", "--env", env, expr]) == 0
        assert capsys.readouterr() == (answer(n) + "\n", "")


@pytest.mark.parametrize("value, out", [
    ("100000", "tt\n"),
    ("1000000000", "tt\n"),
    ("1000000001", "ff\n"),
], ids=["1e5", "1e9", "1e9+1"])
def test_decide_folds_large_environment_values(capsys, value, out):
    # Values go into the linear atoms' constants; no numeral is built.
    assert run(["decide", "--env", f"x={value}", "(exists y (= x (+ y y)))"]) == 0
    assert capsys.readouterr() == (out, "")


@pytest.mark.parametrize("command", ["eval", "decide"])
def test_env_binding_a_name_twice_is_a_parse_error(capsys, command):
    assert run([command, "--env", "x=1,x=3", "(= x x)"]) == 2
    assert capsys.readouterr() == ("", "error: x is bound twice (at position 4)\n")


def test_decide_reads_a_5000_deep_successor_chain(capsys):
    # The reader keeps open forms on a stack, not on the call stack.
    chain = "(s " * 5000 + "z" + ")" * 5000
    assert run(["decide", "--env", "x=3", f"(= x {chain})"]) == 0
    assert capsys.readouterr() == ("ff\n", "")


def _nested(head, depth, bottom):
    return f"({head} " * depth + bottom + ")" * depth


# Deep connectives under a quantifier, so their atoms stay: the decision
# either answers or is one line on stderr with exit 2, never a traceback
# or a crash.  The decision's programs are tuples that Python hashes and
# compares in C, and no deeper than the walkers that built them.
@pytest.mark.parametrize("expr, verdict", [
    (f"(exists x {_nested('and (= x (s z))', 3000, '(= x (s z))')})", "tt"),
    (f"(forall x {_nested('or (= x (s z))', 3000, '(= x (s (s z)))')})", "ff"),
    (f"(exists x {_nested('and (= x (s z))', 500, '(= x (s z))')})", "tt"),
    (f"(forall x {_nested('or (= x (s z))', 500, '(= x (s (s z)))')})", "ff"),
    (f"(forall x {_nested('not', 5000, '(= (+ x x) (s z))')})", "ff"),
    (f"(forall x {_nested('not', 5001, '(= (+ x x) (s z))')})", "tt"),
], ids=["and-3000", "or-3000", "and-500", "or-500", "not-5000", "not-5001"])
def test_decide_of_deep_input_answers_or_is_one_line(capsys, expr, verdict):
    status = run(["decide", expr])
    out, err = capsys.readouterr()
    if status == 0:
        assert (out, err) == (verdict + "\n", "")
    else:
        assert status == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["normalize", "²"], "bad numeral '²' (at position 0)"),
    (["bplus", "¹", "1"], "bad numeral '¹' (at position 0)"),
    (["eval", "--env", "x=²", "(s x)"], "bad environment entry 'x=²' (at position 0)"),
], ids=["normalize", "bplus", "eval-env"])
def test_a_digit_that_int_does_not_read_is_a_parse_error(capsys, argv, message):
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# The command line as a hand-built argparse tree, kept as the reference
# that the table-built parser and the plain-form reader are checked against.
@functools.cache
def reference_build_parser() -> argparse.ArgumentParser:
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


def _src_env():
    import biforge

    src = str(Path(biforge.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _capture(call, *args):
    """``call(*args)`` with its output caught: its result, or the status
    of the ``SystemExit`` it raised, then stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = call(*args)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def _table_fields(argv):
    fields = _read(argv)
    return fields if fields is not None else vars(_build_parser().parse_args(argv))


def _reference_fields(argv):
    return vars(reference_build_parser().parse_args(argv))


COMMANDS = [c for c in _COMMANDS if c is not None]


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_the_table_built_parser_prints_the_reference_help(command):
    argv = [command, "-h"] if command else ["-h"]
    got = _capture(_table_fields, argv)
    assert got == _capture(_reference_fields, argv)
    assert got[0] == ("exit", 0) and got[1].startswith("usage: biforge") and got[2] == ""
    if command is None:
        assert _build_parser().format_help() == reference_build_parser().format_help()


_OPTIONS = sorted({name for entry in _COMMANDS.values() for name in entry[3]})
_WORDS = ["1", "#b101", "(= z z)", "(+ x x)", "", "x y", "-1", "-", "--", "-h", "--help",
          "-x", "bt5", "tt", "2", "0", "x=1", "\u0663", " 7", "1_0", "-x y", "--out"]


def _value(rng, kw):
    """A value for an option: mostly one it takes, else any word."""
    if rng.random() < 0.25:
        return rng.choice(_WORDS)
    if "choices" in kw:
        return str(rng.choice(kw["choices"]))
    if "type" in kw:
        return str(rng.randint(-3, 300))
    return rng.choice(["x=3", "x=1,y=2", "FILE", "bt6"])


def _argv(rng):
    """A command line near the plain form: the right positionals, options
    of the command by their full names, with slips into every other form."""
    if rng.random() < 0.04:
        return rng.choice([[], ["frobnicate"], [""], ["Eval", "1"], ["-h"], ["--help"]])
    command = rng.choice(COMMANDS)
    positionals, options = _COMMANDS[command][2:]
    words = [[rng.choice(["1", "#b11", "(= z z)", "BT3", "(s z)"])]
             for _ in range(len(positionals) + rng.choice([0] * 8 + [-1, 1]))]
    for _ in range(rng.randint(0, 3)):
        name = rng.choice(list(options)) if options and rng.random() < 0.85 else rng.choice(_OPTIONS)
        kw = options.get(name, {})
        flag = "action" in kw
        r = rng.random()
        if r < 0.1:
            name = name[:rng.randint(3, len(name))]
        elif r < 0.17 and not flag:
            words.append([f"{name}={_value(rng, kw)}"])
            continue
        alone = rng.random() < (0.95 if flag else 0.05)
        words.append([name] if alone else [name, _value(rng, kw)])
    rng.shuffle(words)
    argv = [command] + [w for group in words for w in group]
    r = rng.random()
    if r < 0.03:
        argv.insert(rng.randint(1, len(argv)), rng.choice(["--", "-h", "--help"]))
    elif r < 0.06:
        argv = ["--out", "FILE"] + argv if r < 0.045 else ["--out=FILE"] + argv
    elif r < 0.08:
        argv.insert(rng.randint(0, len(argv)), rng.choice(_WORDS))
    return argv


def test_the_table_path_parses_like_the_reference():
    rng = random.Random("cli/parity")
    read = exits = 0
    for _ in range(6000):
        argv = _argv(rng)
        got = _capture(_table_fields, argv)
        assert got == _capture(_reference_fields, argv), argv
        fields = _read(argv)
        if fields is not None:
            assert fields == got[0] == _reference_fields(argv), argv
            read += 1
        exits += type(got[0]) is tuple
    # Both sides of the split are reached: the plain form and argparse's
    # errors and help.
    assert read >= 2000 and exits >= 1000


@pytest.mark.parametrize("argv, out", [
    (["decide", "--the", "bt5", "(exists y (= (s y) (s z)))"], "tt\n"),
    (["eval", "--env=x=3", "(+ x x)"], "6\n"),
    (["bplus", "--rew", "1", "1"], "#b10\n"),
    (["eval", "--", "(= z z)"], "tt\n"),
], ids=["abbreviated", "equals", "abbreviated-flag", "double-dash"])
def test_forms_only_argparse_reads_run_as_before(monkeypatch, argv, out):
    assert _read(argv) is None
    got = _capture(run, argv)
    assert got == (0, out, "")
    monkeypatch.setattr(cli, "_read", lambda argv: None)
    monkeypatch.setattr(cli, "_build_parser", reference_build_parser)
    assert _capture(run, argv) == got


def test_out_with_equals_before_the_command_writes_the_file(tmp_path):
    target = tmp_path / "result.txt"
    argv = [f"--out={target}", "bplus", "1", "1"]
    assert _read(argv) is None
    assert _capture(run, argv) == (0, "#b10\n", "")
    assert target.read_text() == "#b10\n"


def test_an_ambiguous_abbreviation_is_argparse_usage_error():
    argv = ["decide", "--e", "x=1", "(= x x)"]
    got = _capture(run, argv)
    assert got[:2] == (("exit", 2), "")
    assert "ambiguous option: --e could match --env, --expect" in got[2]
    assert got == _capture(_reference_fields, argv)


@pytest.mark.parametrize("argv, names", [
    (["--help"], ["--out", "eval", "decide", "recognize", "bplus", "btimes", "induct",
                  "check-theory", "check-morphism", "normalize"]),
    (["decide", "-h"], ["--theory", "--env", "--expect", "expr", "bt5", "bt6", "tt", "ff"]),
])
def test_help_exits_0_naming_every_command_and_option(argv, names):
    result, out, err = _capture(run, argv)
    assert (result, err) == (("exit", 0), "")
    assert all(name in out for name in names)
    assert out == _capture(_reference_fields, argv)[1]


def test_a_plain_command_imports_no_argparse():
    code = ("import sys; from biforge.cli import run; run(['bplus', '1', '1']); "
            "print('argparse' in sys.modules); run(['bplus', '--rew', '1', '1']); "
            "print('argparse' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_src_env(), timeout=60)
    assert (done.stdout, done.stderr, done.returncode) == ("#b10\nFalse\n#b10\nTrue\n", "", 0)
