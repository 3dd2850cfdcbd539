"""The benchmark's own model of the wire-format language.

Every expected output the benchmark checks is computed here, from the
benchmark's own syntax trees, without calling into ``biforge``.  Trees
are plain tuples:

    terms     ("z",) ("var", name) ("s", t) ("+", a, b) ("*", a, b)
              ("lit", bits)          bits: MSB-first "0"/"1" string
    formulas  ("tt",) ("ff",) ("=", a, b) ("and", f, g) ("or", f, g)
              ("not", f) ("imp", f, g) ("forall", v, f) ("exists", v, f)
    predicate ("lambda", v, f)
"""

from __future__ import annotations

Z = ("z",)


def var(name):
    return ("var", name)


def succ_chain(t, k):
    for _ in range(k):
        t = ("s", t)
    return t


def text(n) -> str:
    """Input text, with ``#b`` literals kept as literals."""
    head = n[0]
    if head in ("z", "tt", "ff"):
        return head
    if head == "var":
        return n[1]
    if head == "lit":
        return "#b" + n[1]
    if head in ("forall", "exists", "lambda"):
        return f"({head} {n[1]} {text(n[2])})"
    return "(" + " ".join([head] + [text(a) for a in n[1:]]) + ")"


def expand_literal(bits: str) -> str:
    """Printed form of a ``#b`` literal once read: one ``(x + x) + d``
    layer per bit, most-significant bit innermost, high part shared."""
    t = "z"
    for b in bits:
        t = f"(+ (+ {t} {t}) {'(s z)' if b == '1' else 'z'})"
    return t


def printed(n) -> str:
    """Text the program prints for a tree it read: literals expanded."""
    head = n[0]
    if head == "lit":
        return expand_literal(n[1])
    if head in ("z", "tt", "ff"):
        return head
    if head == "var":
        return n[1]
    if head in ("forall", "exists", "lambda"):
        return f"({head} {n[1]} {printed(n[2])})"
    return "(" + " ".join([head] + [printed(a) for a in n[1:]]) + ")"


def value(t, env) -> int:
    head = t[0]
    if head == "z":
        return 0
    if head == "var":
        return env.get(t[1], 0)
    if head == "lit":
        return int(t[1], 2)
    if head == "s":
        return value(t[1], env) + 1
    if head == "+":
        return value(t[1], env) + value(t[2], env)
    if head == "*":
        return value(t[1], env) * value(t[2], env)
    raise ValueError(f"not a term: {t!r}")


def truth(f, env, bound=None) -> bool:
    """Truth under ``env``; quantifiers range over 0..bound."""
    head = f[0]
    if head == "tt":
        return True
    if head == "ff":
        return False
    if head == "=":
        return value(f[1], env) == value(f[2], env)
    if head == "not":
        return not truth(f[1], env, bound)
    if head == "and":
        return truth(f[1], env, bound) and truth(f[2], env, bound)
    if head == "or":
        return truth(f[1], env, bound) or truth(f[2], env, bound)
    if head == "imp":
        return (not truth(f[1], env, bound)) or truth(f[2], env, bound)
    if head in ("forall", "exists"):
        if bound is None:
            raise ValueError("quantifier without a bound")
        v, body = f[1], f[2]
        inner = dict(env)
        for k in range(bound + 1):
            inner[v] = k
            if truth(body, inner, bound) is (head == "exists"):
                return head == "exists"
        return head == "forall"
    raise ValueError(f"not a formula: {f!r}")


def level(n) -> int:
    """Smallest first-order language level holding every constant:
    1 for zero/successor, 2 adds +, 3 adds *.  A ``#b`` literal reads
    as nested sums, so it needs level 2."""
    head = n[0]
    if head in ("z", "tt", "ff", "var"):
        return 1
    if head == "lit":
        return 2
    own = {"+": 2, "*": 3}.get(head, 1)
    kids = n[2:] if head in ("forall", "exists", "lambda") else n[1:]
    return max([own] + [level(k) for k in kids])


def substitute(n, v, t):
    """Replace the free variable ``v``; callers never bind a variable
    of ``t`` inside ``n``, so no renaming is needed."""
    head = n[0]
    if head == "var":
        return t if n[1] == v else n
    if head in ("z", "tt", "ff", "lit"):
        return n
    if head in ("forall", "exists", "lambda"):
        return n if n[1] == v else (head, n[1], substitute(n[2], v, t))
    return (head,) + tuple(substitute(k, v, t) for k in n[1:])


def induction_text(pred) -> str:
    """Printed induction instance of ``(lambda v A)``:
    ``(A(0) and forall v. A(v) imp A(s v)) imp forall v. A(v)``."""
    _, v, body = pred
    at = lambda t: printed(substitute(body, v, t))  # noqa: E731
    x = var(v)
    return (f"(imp (and {at(Z)} (forall {v} (imp {at(x)} {at(('s', x))}))) "
            f"(forall {v} {at(x)}))")


def literal(n: int) -> str:
    """Canonical ``#b`` output form of a natural."""
    return "#b" + bin(n)[2:]


def stuck_expected(a: int, b: int) -> bool:
    """Hand-derived coverage predicate of the literal eleven-rule set:
    rewriting strips a low digit from both sides until the left side is
    one digit, and ``1 + w`` with ``w`` odd and at least 3 is covered by
    no rule."""
    if a == 0 or b == 0:
        return False
    w = b >> (a.bit_length() - 1)
    return w >= 3 and w % 2 == 1


def quantifiers(f) -> int:
    """Length of the quantifier prefix of a prenex sentence."""
    k = 0
    while f[0] in ("forall", "exists"):
        f, k = f[2], k + 1
    return k

