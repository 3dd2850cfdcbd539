"""Reader and printer for the construction wire format.

Grammar (whitespace-insensitive):

    term     :=  z | (s term) | (+ term term) | (* term term)
              |  #b<bits>            MSB-first binary literal
              |  identifier          a variable
    formula  :=  tt | ff | (and f f) | (or f f) | (not f) | (imp f f)
              |  (= term term) | (forall v f) | (exists v f)
    abstr    :=  (lambda v f)

Printing is the exact inverse on canonical output: parse(print(c)) == c.
"""

from __future__ import annotations

import re
from typing import Optional

from .binum import BinNum, of_nat, to_construction
from .errors import ParseError
from .syntax import (
    Construction, FF, TT, Var, Zero, _BINDERS, _SIGNATURES, _UNARIES, _fold, _on_big_stack,
)

# A form's head is the label its node has in the sort signatures.
_FORMS = {label: ctor for ctor, (_, _, label, _) in _SIGNATURES.items()}
_CONSTANTS = {"z": Zero, "tt": TT, "ff": FF}
_HEAD = {ctor: head for head, ctor in (_FORMS | _CONSTANTS).items()}
_RESERVED = frozenset(_HEAD.values())

# A parenthesis or an atom; white space between tokens is skipped, and
# any other character is stray.
_TOKEN = re.compile(r"[()]|[A-Za-z0-9_\-'+*=#]+")
_STRAY = re.compile(r"[^\s()A-Za-z0-9_\-'+*=#]")
_IDENTIFIER = re.compile(r"[A-Za-z][A-Za-z0-9_\-']*")


def _tokenize(text: str):
    """Each token of ``text`` with its offset; a stray character is an error."""
    stray = _STRAY.search(text)
    if stray is not None:
        raise ParseError(f"unexpected character {stray[0]!r}", stray.start())
    return [(m[0], m.start()) for m in _TOKEN.finditer(text)]


def _read_binary_literal(token: str, pos: int) -> BinNum:
    """The numeral of a ``#b`` literal, most-significant bit first."""
    bits = token[2:]
    if not bits or bits.strip("01"):
        raise ParseError(f"bad binary literal {token!r}", pos)
    return BinNum(int(bits, 2), len(bits))


def _read(tokens: list[str], i: int):
    """One expression starting at token ``i`` of a list that has one;
    returns (node, next index).  A ParseError's position here is the
    index of the token at fault."""
    token = tokens[i]
    if token == ")":
        raise ParseError("unexpected ')'", i)
    if token != "(":
        return _atom(token, i), i + 1
    try:
        head = tokens[i + 1]
        if head in "()":
            raise ParseError("a form starts with an operator name", i + 1)
        args, j = [], i + 2
        while tokens[j] != ")":
            node, j = _read(tokens, j)
            args.append(node)
    except IndexError:  # the tokens ran out
        raise ParseError("unclosed '('", i) from None
    return _form(head, i + 1, args), j + 1


def _form(head: str, index: int, args: list) -> Construction:
    ctor = _FORMS.get(head)
    if ctor is None:
        raise ParseError(f"unknown form {head!r}", index)
    if ctor in _BINDERS:
        if len(args) != 2 or not isinstance(args[0], Var):
            raise ParseError(f"({head} ...) takes a variable and a body", index)
        return ctor(args[0].name, args[1])
    arity = 1 if ctor in _UNARIES else 2
    if len(args) != arity:
        count = "one argument" if arity == 1 else "two arguments"
        raise ParseError(f"({head} ...) takes {count}", index)
    return ctor(*args)


def _atom(token: str, index: int) -> Construction:
    if token in _CONSTANTS:
        return _CONSTANTS[token]()
    if token.startswith("#b"):
        return to_construction(_read_binary_literal(token, index))
    if token in _RESERVED or token.startswith("#"):
        raise ParseError(f"{token!r} cannot stand alone", index)
    if _IDENTIFIER.fullmatch(token) is None:
        raise ParseError(f"bad identifier {token!r}", index)
    return Var(token)


def parse_construction(text: str) -> Construction:
    """Parse one construction; trailing input is an error.  The reader
    works on token texts alone, and a token's offset is looked up only
    for an error."""
    if _STRAY.search(text) is not None:
        _tokenize(text)  # raises at the stray character
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise ParseError("empty input", 0)
    try:
        node, i = _on_big_stack(_read, tokens, 0)
        if i != len(tokens):
            raise ParseError(f"trailing input {tokens[i]!r}", i)
    except ParseError as err:  # its position is a token index
        raise ParseError(err.message, _tokenize(text)[err.position][1]) from None
    return node


def _sexpr_node(c: Construction, a: str, b: Optional[str] = None) -> str:
    head = _HEAD[type(c)]
    if b is not None:
        return f"({head} {a} {b})"
    if type(c) in _BINDERS:
        return f"({head} {c.var} {a})"
    return f"({head} {a})"


_to_sexpr = _fold(lambda c: c.name if type(c) is Var else _HEAD[type(c)], _sexpr_node)


def to_sexpr(c: Construction) -> str:
    return _to_sexpr(c)


def parse_binnum(text: str, pos: int = 0) -> BinNum:
    """A numeral argument: a ``#b`` literal or a decimal natural."""
    text = text.strip()
    if text.startswith("#b"):
        return _read_binary_literal(text, pos)
    if text.isdecimal():
        return of_nat(int(text))
    raise ParseError(f"bad numeral {text!r}", pos)


def binnum_literal(b: BinNum) -> str:
    """Canonical ``#b`` form, most-significant bit first."""
    return f"#b{b.value:b}"
