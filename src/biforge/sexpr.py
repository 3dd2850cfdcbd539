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

# A parenthesis, an atom, or (group 1) an unexpected character; white
# space between tokens is skipped.
_TOKEN = re.compile(r"[()]|[A-Za-z0-9_\-'+*=#]+|(\S)")


def _tokenize(text: str):
    tokens: list[tuple[str, int]] = []
    for m in _TOKEN.finditer(text):
        if m[1] is not None:
            raise ParseError(f"unexpected character {m[1]!r}", m.start())
        tokens.append((m[0], m.start()))
    return tokens


def _read_binary_literal(token: str, pos: int) -> BinNum:
    """The numeral of a ``#b`` literal, most-significant bit first."""
    bits = token[2:]
    if not bits or any(b not in "01" for b in bits):
        raise ParseError(f"bad binary literal {token!r}", pos)
    return BinNum(int(bits, 2), len(bits))


def _read(tokens: list[tuple[str, int]], i: int):
    """One expression starting at token ``i`` of a list that has one;
    returns (node, next index)."""
    token, pos = tokens[i]
    if token == ")":
        raise ParseError("unexpected ')'", pos)
    if token != "(":
        return _atom(token, pos), i + 1
    if i + 1 == len(tokens):
        raise ParseError("unclosed '('", pos)
    head, head_pos = tokens[i + 1]
    if head in "()":
        raise ParseError("a form starts with an operator name", head_pos)
    args, i = [], i + 2
    while i < len(tokens) and tokens[i][0] != ")":
        node, i = _read(tokens, i)
        args.append(node)
    if i == len(tokens):
        raise ParseError("unclosed '('", pos)
    return _form(head, head_pos, args), i + 1


def _form(head: str, pos: int, args: list) -> Construction:
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


def _atom(token: str, pos: int) -> Construction:
    if token in _CONSTANTS:
        return _CONSTANTS[token]()
    if token.startswith("#b"):
        return to_construction(_read_binary_literal(token, pos))
    if token in _RESERVED or token.startswith("#"):
        raise ParseError(f"{token!r} cannot stand alone", pos)
    if not (token[0].isalpha() and all(ch.isalnum() or ch in "_-'" for ch in token)):
        raise ParseError(f"bad identifier {token!r}", pos)
    return Var(token)


def parse_construction(text: str) -> Construction:
    """Parse one construction; trailing input is an error."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 0)
    node, i = _on_big_stack(_read, tokens, 0)
    if i != len(tokens):
        raise ParseError(f"trailing input {tokens[i][0]!r}", tokens[i][1])
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
