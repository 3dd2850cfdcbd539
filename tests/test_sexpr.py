import random
import re

import pytest

from biforge.binum import BinNum, binnum, of_nat, to_construction
from biforge.errors import ParseError, SortError
from biforge.sexpr import (
    _CONSTANTS, _FORMS, _RESERVED, _TOKEN, _tokenize, binnum_literal, parse_binnum,
    parse_construction, to_sexpr,
)
from biforge.syntax import (
    _BINDERS, _UNARIES, Abs, And, Eq, Exists, FF, Forall, Implies, Not, Or, Plus,
    Succ, TT, Times, Var, Zero, quote_unary, sort_of,
)
from biforge.theory import parse_theory_graph

x = Var("x")


def test_parse_basic_forms():
    assert parse_construction("z") == Zero()
    assert parse_construction("(s z)") == Succ(Zero())
    assert parse_construction("(+ x z)") == Plus(x, Zero())
    assert parse_construction("(* x x)") == Times(x, x)
    assert parse_construction("tt") == TT()
    assert parse_construction("(imp tt ff)") == Implies(TT(), FF())
    assert parse_construction("(lambda x (= x z))") == Abs("x", Eq(x, Zero()))


def test_parse_a3_closure():
    got = parse_construction("(forall x (= (+ x z) x))")
    assert got == Forall("x", Eq(Plus(x, Zero()), x))


def test_parse_binary_literal():
    two = parse_construction("#b10")
    assert two == to_construction(of_nat(2))
    six = parse_construction("#b110")
    from biforge.semantics import Environment, eval_nat

    assert eval_nat(six, Environment()) == 6


def test_parse_is_whitespace_insensitive():
    a = parse_construction("(forall x (= (+ x z) x))")
    b = parse_construction("  (forall   x\n(= (+ x  z)  x)) ")
    assert a == b


def test_sort_error_after_parse():
    c = parse_construction("(s tt)")
    with pytest.raises(SortError):
        sort_of(c)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_construction("(s z))")
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse_construction("(frob x)")
    with pytest.raises(ParseError):
        parse_construction("(s z")
    with pytest.raises(ParseError):
        parse_construction("")
    with pytest.raises(ParseError):
        parse_construction("(forall (s z) tt)")
    with pytest.raises(ParseError):
        parse_construction("#b102")
    with pytest.raises(ParseError):
        parse_construction("forall")


DEEP = 5000


@pytest.mark.parametrize("text, message, position", [
    ("(s z))", "trailing input ')'", 5),
    ("(frob x)", "unknown form 'frob'", 1),
    ("(s z", "unclosed '('", 0),
    ("(s (s z", "unclosed '('", 3),
    ("", "empty input", 0),
    ("(forall (s z) tt)", "(forall ...) takes a variable and a body", 1),
    ("#b102", "bad binary literal '#b102'", 0),
    ("forall", "'forall' cannot stand alone", 0),
    (")", "unexpected ')'", 0),
    ("(", "unclosed '('", 0),
    ("(()", "a form starts with an operator name", 1),
    ("(s)", "(s ...) takes one argument", 1),
    ("(+ z)", "(+ ...) takes two arguments", 1),
    ("(s z z)", "(s ...) takes one argument", 1),
    ("(s (+ z 1x) z)", "bad identifier '1x'", 8),
    pytest.param("(s " * DEEP + "z" + ")" * (DEEP - 1), "unclosed '('", 0,
                 id="deep-unclosed"),
    pytest.param("(s " * DEEP + "1x" + ")" * DEEP, "bad identifier '1x'", 3 * DEEP,
                 id="deep-bad-identifier"),
    pytest.param("(s " * DEEP + "z z" + ")" * DEEP, "(s ...) takes one argument",
                 3 * DEEP - 2, id="deep-arity"),
])
def test_parse_error_messages_and_positions(text, message, position):
    with pytest.raises(ParseError) as err:
        parse_construction(text)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def test_nesting_depth_is_not_bounded_by_the_recursion_limit():
    assert parse_construction("(s " * DEEP + "z" + ")" * DEEP) == quote_unary(DEEP)


def test_round_trip_named_examples():
    for text in (
        "z", "tt", "ff", "(s (s z))", "(+ x (s y))",
        "(forall x (or (= x z) (exists y (= (s y) x))))",
        "(lambda x (imp (= x z) (not ff)))",
        "(and tt (or ff (= (* x x) x)))",
    ):
        assert to_sexpr(parse_construction(text)) == text


def _random_tree(rng, variables, depth, sort):
    if sort == "nat":
        r = rng.random()
        if depth <= 0 or r < 0.3:
            return rng.choice([Zero()] + [Var(v) for v in variables])
        if r < 0.55:
            return Succ(_random_tree(rng, variables, depth - 1, "nat"))
        ctor = Plus if r < 0.8 else Times
        return ctor(_random_tree(rng, variables, depth - 1, "nat"),
                    _random_tree(rng, variables, depth - 1, "nat"))
    r = rng.random()
    if depth <= 0 or r < 0.25:
        return rng.choice([TT(), FF(),
                           Eq(_random_tree(rng, variables, 0, "nat"),
                              _random_tree(rng, variables, 0, "nat"))])
    if r < 0.4:
        return Not(_random_tree(rng, variables, depth - 1, "bool"))
    if r < 0.7:
        ctor = rng.choice([And, Or, Implies])
        return ctor(_random_tree(rng, variables, depth - 1, "bool"),
                    _random_tree(rng, variables, depth - 1, "bool"))
    v = rng.choice(["x", "y", "w"])
    ctor = rng.choice([Forall, Exists])
    return ctor(v, _random_tree(rng, variables + [v], depth - 1, "bool"))


def test_round_trip_random_trees():
    rng = random.Random(0xC0DE)
    for _ in range(500):
        tree = _random_tree(rng, ["x", "y"], 3, rng.choice(["nat", "bool"]))
        assert parse_construction(to_sexpr(tree)) == tree


def test_parse_binnum():
    assert parse_binnum("#b110") == binnum([0, 1, 1])
    assert parse_binnum("6") == of_nat(6)
    assert parse_binnum("#b0") == binnum([0])
    assert parse_binnum("٣") == of_nat(3)  # a decimal digit of another script
    with pytest.raises(ParseError):
        parse_binnum("#b")
    with pytest.raises(ParseError):
        parse_binnum("sixty")


@pytest.mark.parametrize("text", ["²", "1²", "¹", "٣²"], ids=["sup2", "1-sup2", "sup1", "arabic3-sup2"])
def test_parse_binnum_reads_only_what_int_reads(text):
    # A superscript digit is a digit to str.isdigit() but not to int().
    with pytest.raises(ParseError) as err:
        parse_binnum(text)
    assert str(err.value) == f"bad numeral {text!r} (at position 0)"


def test_binnum_literal_is_canonical():
    assert binnum_literal(binnum([0, 1, 1])) == "#b110"
    assert binnum_literal(binnum([1, 0, 0])) == "#b1"
    assert binnum_literal(binnum([0, 0])) == "#b0"


def test_reader_tables_come_from_the_sort_signatures():
    from biforge.sexpr import _FORMS, _RESERVED

    assert _RESERVED == {
        "z", "tt", "ff", "s", "and", "or", "not", "imp", "=",
        "+", "*", "forall", "exists", "lambda",
    }
    assert _FORMS == {
        "s": Succ, "not": Not, "+": Plus, "*": Times, "and": And, "or": Or,
        "imp": Implies, "=": Eq, "forall": Forall, "exists": Exists, "lambda": Abs,
    }


# The tokenizer as a character loop, kept as a reference for the one
# compiled pattern that replaced it.
_REFERENCE_ATOM_CHARS = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-'+*=#")


def reference_tokenize(text: str):
    tokens: list[tuple[str, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            tokens.append((ch, i))
            i += 1
        elif ch in _REFERENCE_ATOM_CHARS:
            start = i
            while i < n and text[i] in _REFERENCE_ATOM_CHARS:
                i += 1
            tokens.append((text[start:i], start))
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as err:
        return str(err), err.position


# Atom characters, parentheses, ASCII and Unicode white space (the
# file separators \x1c-\x1f are white space to str.isspace), and
# characters that are neither (a zero-width space is not white space).
_ALPHABET = ("az09AZ_-'+*=#()" + " \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u1680\u2003\u2028\u3000"
             + "\u200b.$,é²٣\x00\U0001f600")


def test_tokenizer_matches_the_character_loop_on_random_strings():
    rng = random.Random("tokenize")
    for _ in range(3000):
        text = "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 12)))
        assert _tokens_or_error(_tokenize, text) == _tokens_or_error(reference_tokenize, text)


def test_tokenizer_skips_exactly_the_characters_str_isspace_accepts():
    for code in range(0x3100):  # every white space character is below U+3100
        text = f"(s{chr(code)}z)"
        assert _tokens_or_error(_tokenize, text) == _tokens_or_error(reference_tokenize, text)


# The reader as it was before it worked on token texts alone: it reads
# (token, offset) pairs, so every error carries its offset directly.
# Kept as a reference for the reader that looks an offset up only for
# an error.
_REFERENCE_TOKEN = re.compile(r"[()]|[A-Za-z0-9_\-'+*=#]+|(\S)")


def _reference_pairs(text):
    tokens = []
    for m in _REFERENCE_TOKEN.finditer(text):
        if m[1] is not None:
            raise ParseError(f"unexpected character {m[1]!r}", m.start())
        tokens.append((m[0], m.start()))
    return tokens


def _reference_binary_literal(token, pos):
    bits = token[2:]
    if not bits or any(b not in "01" for b in bits):
        raise ParseError(f"bad binary literal {token!r}", pos)
    return BinNum(int(bits, 2), len(bits))


def _reference_read(tokens, i):
    token, pos = tokens[i]
    if token == ")":
        raise ParseError("unexpected ')'", pos)
    if token != "(":
        return _reference_atom(token, pos), i + 1
    if i + 1 == len(tokens):
        raise ParseError("unclosed '('", pos)
    head, head_pos = tokens[i + 1]
    if head in "()":
        raise ParseError("a form starts with an operator name", head_pos)
    args, i = [], i + 2
    while i < len(tokens) and tokens[i][0] != ")":
        node, i = _reference_read(tokens, i)
        args.append(node)
    if i == len(tokens):
        raise ParseError("unclosed '('", pos)
    return _reference_form(head, head_pos, args), i + 1


def _reference_form(head, pos, args):
    ctor = _FORMS.get(head)
    if ctor is None:
        raise ParseError(f"unknown form {head!r}", pos)
    if ctor in _BINDERS:
        if len(args) != 2 or not isinstance(args[0], Var):
            raise ParseError(f"({head} ...) takes a variable and a body", pos)
        return ctor(args[0].name, args[1])
    arity = 1 if ctor in _UNARIES else 2
    if len(args) != arity:
        count = "one argument" if arity == 1 else "two arguments"
        raise ParseError(f"({head} ...) takes {count}", pos)
    return ctor(*args)


def _reference_atom(token, pos):
    if token in _CONSTANTS:
        return _CONSTANTS[token]()
    if token.startswith("#b"):
        return to_construction(_reference_binary_literal(token, pos))
    if token in _RESERVED or token.startswith("#"):
        raise ParseError(f"{token!r} cannot stand alone", pos)
    if not (token[0].isalpha() and all(ch.isalnum() or ch in "_-'" for ch in token)):
        raise ParseError(f"bad identifier {token!r}", pos)
    return Var(token)


def reference_parse(text):
    tokens = _reference_pairs(text)
    if not tokens:
        raise ParseError("empty input", 0)
    node, i = _reference_read(tokens, 0)
    if i != len(tokens):
        raise ParseError(f"trailing input {tokens[i][0]!r}", tokens[i][1])
    return node


def _outcome(parse, text):
    """A node with its repr, or an error's text and position."""
    try:
        node = parse(text)
    except ParseError as err:
        return "error", str(err), err.position
    return "node", node, repr(node)


# Tokens that make a well-formed text malformed, one fault each: an
# unbalanced parenthesis, an unknown head, a binder's variable, bad #b
# digits, a reserved word alone, a bad identifier, a stray character.
_FAULTS = ["(", ")", "(frob", "(s", "(forall (s z)", "#b102", "#b", "#x1",
           "forall", "lambda", "s", "1x", "$", "é", "(()", "z", "x"]


def _spaced(rng, tokens):
    return "".join(tok + rng.choice(["", " ", "  ", "\n"]) if tok in "()"
                   else rng.choice([" ", "\t", "\n "]) + tok + " " for tok in tokens)


def _generated_texts(rng, count):
    """Well-formed texts, half of them with a #b literal, re-spaced; most
    are first mutated by dropping, repeating or inserting a token or by
    cutting the text short."""
    for _ in range(count):
        tree = _random_tree(rng, ["x", "y"], rng.randint(0, 4), rng.choice(["nat", "bool"]))
        text = to_sexpr(tree)
        if rng.random() < 0.5:
            bits = "".join(rng.choice("01") for _ in range(rng.randint(1, 9)))
            text = text.replace("z", f"#b{bits}", 1)
        tokens = _TOKEN.findall(text)
        k = rng.randrange(len(tokens) + 1)
        r = rng.random()
        if r < 0.2:
            yield _spaced(rng, tokens)
            continue
        if r < 0.35 and len(tokens) > 1:
            del tokens[min(k, len(tokens) - 1)]
        elif r < 0.45:
            tokens.insert(k, tokens[min(k, len(tokens) - 1)])
        elif r < 0.85:
            fault = rng.choice(_FAULTS)
            tokens[k:k] = _TOKEN.findall(fault) or [fault]  # a stray character is no token
        else:
            tokens = tokens[:k]
        yield _spaced(rng, tokens)


def _shape(message):
    """An error message with its quoted token, form head and position
    left out."""
    message = re.sub(r" \(at position \d+\)$", "", message)
    return re.sub(r"^\(\S+ \.\.\.\)", "(f ...)", re.sub(r"'.*'", "'t'", message))


def test_the_reader_matches_its_reference_on_generated_texts():
    rng = random.Random("reader")
    shapes = set()
    for text in _generated_texts(rng, 4000):
        got, want = _outcome(parse_construction, text), _outcome(reference_parse, text)
        assert got == want, text
        shapes.add(want[0] if want[0] == "node" else _shape(want[1]))
    # Every outcome of the reader occurs among the generated texts.
    assert shapes == {
        "node", "empty input", "unexpected character 't'", "unexpected 't'",
        "unclosed 't'", "a form starts with an operator name", "unknown form 't'",
        "(f ...) takes one argument", "(f ...) takes two arguments",
        "(f ...) takes a variable and a body", "bad binary literal 't'",
        "'t' cannot stand alone", "bad identifier 't'", "trailing input 't'",
    }


# Each reader fault inside a graph file's axiom line is reported at its
# column in that line: the value starts at column 10 of "  axiom a ...".
@pytest.mark.parametrize("expr, message, column", [
    ("(= z  z", "unclosed '('", 10),
    ("(= z z))", "trailing input ')'", 17),
    ("(= z z)  z", "trailing input 'z'", 19),
    ("(frob z)", "unknown form 'frob'", 11),
    ("(= (s z z) z)", "(s ...) takes one argument", 14),
    ("(=  (+ z) z)", "(+ ...) takes two arguments", 15),
    ("(forall (s z) tt)", "(forall ...) takes a variable and a body", 11),
    ("(= #b102 z)", "bad binary literal '#b102'", 13),
    ("(= z  forall)", "'forall' cannot stand alone", 16),
    ("(= z $)", "unexpected character '$'", 15),
    ("(= 1x z)", "bad identifier '1x'", 13),
    ("(()", "a form starts with an operator name", 11),
    (")", "unexpected ')'", 10),
])
def test_reader_faults_in_a_graph_axiom_name_their_column(expr, message, column):
    with pytest.raises(ParseError) as err:
        parse_theory_graph(f"theory T\n  level 2\n  axiom a {expr}\n")
    assert str(err.value) == f"line 3: {message} (at position {column})"
    assert _outcome(reference_parse, expr)[1:] == (f"{message} (at position {column - 10})",
                                                   column - 10)
