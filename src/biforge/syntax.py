"""Universal syntax trees for natural-number arithmetic.

A single inductive type covers all three shapes the kernel manipulates:
terms over zero / successor / sum / product / variables, first-order
formulas over those terms, and unary predicate abstractions.  Everything
downstream (evaluation, numeral transformers, recognizers, decision
procedures) works on these trees.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from .errors import NotAnAbstraction, SortError


class Sort(enum.Enum):
    """Classification returned by :func:`sort_of`.

    ``NAT`` and ``BOOL`` are the two sorts proper; ``ABS_PRED`` is the
    distinguished classification of abstraction nodes (a unary
    nat-to-bool predicate), which may only occur at the top of a tree.
    """

    NAT = "nat"
    BOOL = "bool"
    ABS_PRED = "abs-pred"


@dataclass(frozen=True, slots=True)
class Zero:
    pass


@dataclass(frozen=True, slots=True)
class Succ:
    arg: "Construction"


@dataclass(frozen=True, slots=True)
class Plus:
    lhs: "Construction"
    rhs: "Construction"


@dataclass(frozen=True, slots=True)
class Times:
    lhs: "Construction"
    rhs: "Construction"


@dataclass(frozen=True, slots=True)
class Var:
    name: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("variable names must be non-empty")


@dataclass(frozen=True, slots=True)
class TT:
    pass


@dataclass(frozen=True, slots=True)
class FF:
    pass


@dataclass(frozen=True, slots=True)
class And:
    lhs: "Construction"
    rhs: "Construction"


@dataclass(frozen=True, slots=True)
class Or:
    lhs: "Construction"
    rhs: "Construction"


@dataclass(frozen=True, slots=True)
class Not:
    arg: "Construction"


@dataclass(frozen=True, slots=True)
class Implies:
    lhs: "Construction"
    rhs: "Construction"


@dataclass(frozen=True, slots=True)
class Eq:
    lhs: "Construction"
    rhs: "Construction"


@dataclass(frozen=True, slots=True)
class Forall:
    var: str
    body: "Construction"

    def __post_init__(self):
        if not self.var:
            raise ValueError("variable names must be non-empty")


@dataclass(frozen=True, slots=True)
class Exists:
    var: str
    body: "Construction"

    def __post_init__(self):
        if not self.var:
            raise ValueError("variable names must be non-empty")


@dataclass(frozen=True, slots=True)
class Abs:
    """Unary predicate abstraction: a variable abstracted out of a formula."""

    var: str
    body: "Construction"

    def __post_init__(self):
        if not self.var:
            raise ValueError("variable names must be non-empty")


Construction = Union[
    Zero, Succ, Plus, Times, Var,
    TT, FF, And, Or, Not, Implies, Eq, Forall, Exists, Abs,
]

# The node shapes: leaves, one child (``arg``), two (``lhs``, ``rhs``),
# and binders (``var``, ``body``).
_LEAVES = frozenset((Zero, Var, TT, FF))
_UNARIES = frozenset((Succ, Not))
_BINARIES = frozenset((Plus, Times, And, Or, Implies, Eq))
_BINDERS = frozenset((Forall, Exists, Abs))


def _climb(c, base, step):
    """``base`` of the node below the chain of successors and negations
    from ``c`` down, then ``step(u, a)`` at each node ``u`` of the chain,
    innermost first: a loop, so a chain of any length is walked."""
    spine = []
    while type(c) in _UNARIES:
        spine.append(c)
        c = c.arg
    a = base(c)
    for u in reversed(spine):
        a = step(u, a)
    return a


def _fold(leaf, node):
    """The post-order walker that computes ``leaf(c)`` at a leaf and
    ``node(c, a)`` or ``node(c, a, b)`` at a compound node from the
    results ``a``, ``b`` of its children.  A binary node whose two
    children are one object has that child computed once, and then
    ``b is a``, so a shared numeral layer is walked once, and a chain of
    successors or negations is walked in a loop."""

    def walk(c):
        t = type(c)
        if t in _BINARIES:
            a = walk(c.lhs)
            return node(c, a, a if c.rhs is c.lhs else walk(c.rhs))
        if t in _UNARIES:
            if type(c.arg) not in _UNARIES:
                return node(c, walk(c.arg))
            return _climb(c, walk, node)
        if t in _BINDERS:
            return node(c, walk(c.body))
        if t in _LEAVES:
            return leaf(c)
        raise TypeError(f"not a construction: {c!r}")

    return walk


def _expect(child: Construction, want: Sort, context: str) -> None:
    got = sort_of(child)
    if got is not want:
        raise SortError(f"{context} needs a {want.value} argument, got {got.value}")


# Argument sort, result sort and printed label of each compound node.
_SIGNATURES = {
    Succ: (Sort.NAT, Sort.NAT, "s"),
    Plus: (Sort.NAT, Sort.NAT, "+"),
    Times: (Sort.NAT, Sort.NAT, "*"),
    Eq: (Sort.NAT, Sort.BOOL, "="),
    And: (Sort.BOOL, Sort.BOOL, "and"),
    Or: (Sort.BOOL, Sort.BOOL, "or"),
    Not: (Sort.BOOL, Sort.BOOL, "not"),
    Implies: (Sort.BOOL, Sort.BOOL, "imp"),
    Forall: (Sort.BOOL, Sort.BOOL, "forall"),
    Exists: (Sort.BOOL, Sort.BOOL, "exists"),
    Abs: (Sort.BOOL, Sort.ABS_PRED, "lambda"),
}
_LEAF_SORTS = {Zero: Sort.NAT, Var: Sort.NAT, TT: Sort.BOOL, FF: Sort.BOOL}


def sort_of(c: Construction) -> Sort:
    """Classify a tree as a term (NAT), a formula (BOOL) or an abstraction.

    Raises :class:`SortError` if any subtree is ill-sorted, e.g. a
    successor applied to a truth constant.  A binary node whose two
    children are one object checks that child once, and a chain of
    successors, or of negations, is checked in a loop.
    """
    t = type(c)
    if t in _LEAF_SORTS:
        return _LEAF_SORTS[t]
    if t not in _SIGNATURES:
        raise SortError(f"not a construction: {c!r}")
    want, result, label = _SIGNATURES[t]
    if t is Succ or t is Not:
        # A well-sorted chain repeats one type; the loop skips to the
        # chain's last node, which reports the innermost fault.
        a = c.arg
        while type(a) is t:
            a = a.arg
        _expect(a, want, label)
    elif t in _BINDERS:
        _expect(c.body, want, label)
    else:
        _expect(c.lhs, want, label)
        if c.rhs is not c.lhs:
            _expect(c.rhs, want, label)
    return result


def quote_unary(n: int) -> Construction:
    """The canonical unary numeral: ``n`` successors stacked on zero."""
    if n < 0:
        raise ValueError("naturals only")
    t: Construction = Zero()
    for _ in range(n):
        t = Succ(t)
    return t


def bnat(x: Construction, y: Construction) -> Construction:
    """Binary-digit building block ``(x + x) + y``.

    Nesting these encodes base-2 numerals: ``y`` is the low digit (zero
    or one as a term), ``x`` encodes the remaining digits.
    """
    _expect(x, Sort.NAT, "bnat")
    _expect(y, Sort.NAT, "bnat")
    return Plus(Plus(x, x), y)


_NO_VARS: frozenset[str] = frozenset()


def _vars_of_node(c, a, b=None):
    if b is not None:
        return a if b is a else a | b
    return a - {c.var} if type(c) in _BINDERS else a


_free_vars = _fold(lambda c: frozenset((c.name,)) if type(c) is Var else _NO_VARS, _vars_of_node)


def free_vars(c: Construction) -> frozenset[str]:
    return _free_vars(c)


def is_closed(c: Construction) -> bool:
    return not free_vars(c)


def is_abs(c: Construction) -> bool:
    return isinstance(c, Abs)


def abs_body(c: Construction) -> Construction:
    """Body of an abstraction, with the bound variable left free."""
    if not isinstance(c, Abs):
        raise NotAnAbstraction(f"abs_body needs an abstraction, got {type(c).__name__}")
    return c.body


def fresh_name(base: str, avoid: frozenset[str]) -> str:
    """Smallest numeric-suffixed variant of ``base`` not in ``avoid``."""
    k = 1
    while f"{base}{k}" in avoid:
        k += 1
    return f"{base}{k}"


def substitute(c: Construction, v: str, t: Construction) -> Construction:
    """Replace every free occurrence of ``v`` in ``c`` by the term ``t``.

    Capture-avoiding: a binder whose variable occurs free in ``t`` is
    renamed to a fresh variable before descending.
    """
    _expect(t, Sort.NAT, "substitute")
    return _subst(c, v, t, free_vars(t))


def _subst(c: Construction, v: str, t: Construction, fv_t: frozenset[str]) -> Construction:
    match c:
        case Var(w):
            return t if w == v else c
        case Zero() | TT() | FF():
            return c
        case Succ() | Not():
            return _climb(c, lambda a: _subst(a, v, t, fv_t), lambda u, a: type(u)(a))
        case Plus(l, r) | Times(l, r) | And(l, r) | Or(l, r) | Implies(l, r) | Eq(l, r):
            # equal children stay one object, so a shared numeral stays shared
            left = _subst(l, v, t, fv_t)
            return type(c)(left, left if r is l else _subst(r, v, t, fv_t))
        case Forall(w, b) | Exists(w, b) | Abs(w, b):
            ctor = type(c)
            if w == v:
                return c
            if w in fv_t and v in free_vars(b):
                w2 = fresh_name(w, free_vars(b) | fv_t | {v})
                b = _subst(b, w, Var(w2), frozenset((w2,)))
                w = w2
            return ctor(w, _subst(b, v, t, fv_t))
    raise TypeError(f"not a construction: {c!r}")


def alpha_equal(a: Construction, b: Construction) -> bool:
    """Structural equality up to consistent renaming of bound variables."""
    return _alpha(a, b, {}, {}, 0)


def _alpha(a, b, env_a, env_b, depth) -> bool:
    if type(a) is not type(b):
        return False
    match a:
        case Var(v):
            return env_a.get(v, v) == env_b.get(b.name, b.name)
        case Zero() | TT() | FF():
            return True
        case Succ(x) | Not(x):
            return _alpha(x, b.arg, env_a, env_b, depth)
        case Plus(l, r) | Times(l, r) | And(l, r) | Or(l, r) | Implies(l, r) | Eq(l, r):
            return _alpha(l, b.lhs, env_a, env_b, depth) and (
                (r is l and b.rhs is b.lhs) or _alpha(r, b.rhs, env_a, env_b, depth))
        case Forall(v, body) | Exists(v, body) | Abs(v, body):
            ea = dict(env_a)
            eb = dict(env_b)
            ea[v] = depth
            eb[b.var] = depth
            return _alpha(body, b.body, ea, eb, depth + 1)
    raise TypeError(f"not a construction: {a!r}")
