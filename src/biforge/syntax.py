"""Universal syntax trees for natural-number arithmetic.

A single inductive type covers all three shapes the kernel manipulates:
terms over zero / successor / sum / product / variables, first-order
formulas over those terms, and unary predicate abstractions.  Everything
downstream (evaluation, numeral transformers, recognizers, decision
procedures) works on these trees.
"""

from __future__ import annotations

import enum
import functools
import sys
import threading
from dataclasses import FrozenInstanceError
from typing import Union

from .errors import NotAnAbstraction, SortError


class _Record:
    """Base of the kernel's immutable value types, whose fields a
    subclass names in ``__slots__``.  At class creation the subclass
    gets an ``__init__`` that stores each field through its slot
    descriptor, then calls ``__post_init__`` where one is defined;
    ``__match_args__``; and, unless it or a base below this one defines
    ``__eq__``, a field-wise ``__eq__`` within one class and the
    matching ``__hash__``.  A class may declare ``_defaults``, a dict
    from its last fields to their default values.  Assignment and
    deletion raise FrozenInstanceError."""

    __slots__ = ()

    def __init_subclass__(cls):
        names = cls.__slots__
        defaults = cls.__dict__.get("_defaults", {})
        params = ", ".join(f"{n}=_defaults[{n!r}]" if n in defaults else n for n in names)
        own = "".join(f"self.{n}, " for n in names)
        other = "".join(f"other.{n}, " for n in names)
        init = [f"_set_{n}(self, {n})" for n in names]
        if hasattr(cls, "__post_init__"):
            init.append("self.__post_init__()")
        scope = {"_defaults": defaults} | {f"_set_{n}": getattr(cls, n).__set__ for n in names}
        exec(f"def __init__(self, {params}):\n {'; '.join(init) or 'pass'}\n"
             f"def __eq__(self, other):\n if other.__class__ is self.__class__:\n"
             f"  return ({own}) == ({other})\n return NotImplemented\n"
             f"def __hash__(self):\n return hash(({own}))\n", scope)
        cls.__init__ = scope["__init__"]
        cls.__match_args__ = names
        if cls.__eq__ is object.__eq__:
            cls.__eq__, cls.__hash__ = scope["__eq__"], scope["__hash__"]

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__slots__)

    def __copy__(self):  # an immutable value is its own copy
        return self

    def __deepcopy__(self, memo):
        return self

    def __repr__(self):
        fields = ", ".join(f"{n}={_field_repr(getattr(self, n))}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


def _field_repr(v) -> str:
    """``repr(v)``, except that an int past Python's cap on decimal
    conversion (4,300 digits by default), alone or in a tuple, is
    written in hex, where ``repr`` would raise ValueError."""
    try:
        return repr(v)
    except ValueError:
        if isinstance(v, int):
            return hex(v)
        if type(v) is tuple:
            items = ", ".join(map(_field_repr, v))
            return f"({items},)" if len(v) == 1 else f"({items})"
        raise


class _Spine(_Record):
    """Successor, negation and binary nodes.  ``==`` and ``hash`` walk
    the left spine (``arg`` or ``lhs``) in a loop, so a numeral or chain
    of any length takes no recursion, and a right child that is its
    node's left child is compared or hashed once, as the left one."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        a, b = self, other
        while a is not b:
            if type(a) is not type(b) or not isinstance(a, _Spine):
                return a == b
            if type(a) in _UNARIES:
                a, b = a.arg, b.arg
                continue
            ra, rb = a.rhs, b.rhs
            if ra is not rb and (ra is not a.lhs or rb is not b.lhs) and ra != rb:
                return False
            a, b = a.lhs, b.lhs
        return True

    def __hash__(self):
        spine, c = [], self
        while isinstance(c, _Spine):
            spine.append(c)
            c = c.arg if type(c) in _UNARIES else c.lhs
        h = hash(c)
        for u in reversed(spine):
            h = hash((h,) if type(u) in _UNARIES else (h, h if u.rhs is u.lhs else hash(u.rhs)))
        return h

    def __reduce__(self):
        # Pickled as a flat post-order list with one entry per distinct
        # node: a spine node's entry is its class and the indices of its
        # children's entries, any other child's is ``(None, child)``.  A
        # loop builds the list and one rebuilds the tree, so any depth
        # pickles and a shared child is unpickled as one object.
        index, entries, stack = {}, [], [self]
        while stack:
            c = stack.pop()
            if id(c) in index:
                continue
            t = type(c)
            kids = (c.arg,) if t in _UNARIES else (c.lhs, c.rhs) if t in _BINARIES else ()
            todo = [k for k in kids if id(k) not in index]
            if todo:
                stack += [c, *reversed(todo)]
                continue
            index[id(c)] = len(entries)
            entries.append((t, *[index[id(k)] for k in kids]) if kids else (None, c))
        return _unflatten, (entries,)


def _unflatten(entries):
    """The tree of a :meth:`_Spine.__reduce__` list."""
    built = []
    for cls, *refs in entries:
        built.append(refs[0] if cls is None else cls(*[built[i] for i in refs]))
    return built[-1]


class Sort(enum.Enum):
    """Classification returned by :func:`sort_of`.

    ``NAT`` and ``BOOL`` are the two sorts proper; ``ABS_PRED`` is the
    distinguished classification of abstraction nodes (a unary
    nat-to-bool predicate), which may only occur at the top of a tree.
    """

    NAT = "nat"
    BOOL = "bool"
    ABS_PRED = "abs-pred"


class Zero(_Record):
    __slots__ = ()


class Succ(_Spine):
    __slots__ = ("arg",)


class Plus(_Spine):
    __slots__ = ("lhs", "rhs")


class Times(_Spine):
    __slots__ = ("lhs", "rhs")


class Var(_Record):
    __slots__ = ("name",)

    def __post_init__(self):
        if not self.name:
            raise ValueError("variable names must be non-empty")


class TT(_Record):
    __slots__ = ()


class FF(_Record):
    __slots__ = ()


class And(_Spine):
    __slots__ = ("lhs", "rhs")


class Or(_Spine):
    __slots__ = ("lhs", "rhs")


class Not(_Spine):
    __slots__ = ("arg",)


class Implies(_Spine):
    __slots__ = ("lhs", "rhs")


class Eq(_Spine):
    __slots__ = ("lhs", "rhs")


class _Binder:  # a mixin, not a record, so each binder gets its own ``==``
    __slots__ = ()

    def __post_init__(self):
        if not self.var:
            raise ValueError("variable names must be non-empty")


class Forall(_Binder, _Record):
    __slots__ = ("var", "body")


class Exists(_Binder, _Record):
    __slots__ = ("var", "body")


class Abs(_Binder, _Record):
    """Unary predicate abstraction: a variable abstracted out of a formula."""

    __slots__ = ("var", "body")


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


_DEEP_LIMIT = 200_000  # the recursion limit of a retry on a big stack


def _on_big_stack(f, *args):
    """``f(*args)``; when that raises RecursionError under a lower limit,
    ``f(*args)`` once more on a thread with a 512 MiB stack under the
    recursion limit ``_DEEP_LIMIT``, whose value is returned or whose
    exception is raised, and both settings are then restored.  Every
    walker is pure, so the retry answers as an unlimited first try would
    have, and input past the raised limit still raises RecursionError.
    Inside another boundary's first try it re-raises, for that one to retry."""
    try:
        return f(*args)
    except RecursionError:
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not _on_big_stack.__code__:
            frame = frame.f_back
        if frame is not None or sys.getrecursionlimit() >= _DEEP_LIMIT:
            raise
    from concurrent.futures import ThreadPoolExecutor

    limit, size = sys.getrecursionlimit(), threading.stack_size(512 << 20)
    try:
        sys.setrecursionlimit(_DEEP_LIMIT)
        with ThreadPoolExecutor(1) as pool:
            return pool.submit(f, *args).result()
    finally:
        threading.stack_size(size)
        sys.setrecursionlimit(limit)


def _fold(leaf, node):
    """The post-order walker of constructions: ``leaf(c)`` at a leaf,
    ``node(c, a)`` or ``node(c, a, b)`` at a compound node from the
    results ``a``, ``b`` of its children.  Two children that are one
    object are walked once, and then ``b is a``.  The walk runs behind
    :func:`_on_big_stack`, so deep input answers.  :func:`substitute`
    decides at a binder before it walks the body, so it is not a fold."""

    def walk(c):
        t = type(c)
        if t in _BINARIES:
            a = walk(c.lhs)
            return node(c, a, a if c.rhs is c.lhs else walk(c.rhs))
        if t in _UNARIES:
            return node(c, walk(c.arg))
        if t in _BINDERS:
            return node(c, walk(c.body))
        if t in _LEAVES:
            return leaf(c)
        raise TypeError(f"not a construction: {c!r}")

    return functools.partial(_on_big_stack, walk)


def _expect(got: Sort, want: Sort, context: str) -> None:
    if got is not want:
        raise SortError(f"{context} needs a {want.value} argument, got {got.value}")


# Argument sort, result sort, label and language level of each compound
# node.  The label is also the head of its form in the wire format (see
# sexpr); the level is the lowest first-order language that has the node
# (see recognizers), and an abstraction, in none of them, is above all.
_SIGNATURES = {
    Succ: (Sort.NAT, Sort.NAT, "s", 1),
    Plus: (Sort.NAT, Sort.NAT, "+", 2),
    Times: (Sort.NAT, Sort.NAT, "*", 3),
    Eq: (Sort.NAT, Sort.BOOL, "=", 1),
    And: (Sort.BOOL, Sort.BOOL, "and", 1),
    Or: (Sort.BOOL, Sort.BOOL, "or", 1),
    Not: (Sort.BOOL, Sort.BOOL, "not", 1),
    Implies: (Sort.BOOL, Sort.BOOL, "imp", 1),
    Forall: (Sort.BOOL, Sort.BOOL, "forall", 1),
    Exists: (Sort.BOOL, Sort.BOOL, "exists", 1),
    Abs: (Sort.BOOL, Sort.ABS_PRED, "lambda", 4),
}
_LEAF_SORTS = {Zero: Sort.NAT, Var: Sort.NAT, TT: Sort.BOOL, FF: Sort.BOOL}


def sort_of(c: Construction) -> Sort:
    """Classify a tree as a term (NAT), a formula (BOOL) or an abstraction.

    Raises :class:`SortError` if any subtree is ill-sorted, e.g. a
    successor applied to a truth constant.  A binary node whose two
    children are one object checks that child once.
    """
    return _classify(c)[0]


def _sort_and_level(c: Construction) -> tuple[Sort, int]:
    """The sort of ``c``, as :func:`sort_of` gives it, and the highest
    language level of its nodes."""
    t = type(c)
    if t in _LEAF_SORTS:
        return _LEAF_SORTS[t], 1
    if t not in _SIGNATURES:
        raise SortError(f"not a construction: {c!r}")
    want, result, label, level = _SIGNATURES[t]
    got, below = _sort_and_level(c.lhs if t in _BINARIES else c.arg if t in _UNARIES else c.body)
    if got is not want:
        _expect(got, want, label)
    if t in _BINARIES and c.rhs is not c.lhs:
        got, right = _sort_and_level(c.rhs)
        if got is not want:
            _expect(got, want, label)
        below = right if right > below else below
    return result, level if level > below else below


_classify = functools.partial(_on_big_stack, _sort_and_level)


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
    _expect(sort_of(x), Sort.NAT, "bnat")
    _expect(sort_of(y), Sort.NAT, "bnat")
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

    Capture-avoiding and top-down: a binder of ``v`` is kept as it is,
    unwalked, and one whose variable is free in ``t`` and whose body has
    ``v`` free is renamed to a fresh variable before its body is walked.
    Children that are one object stay one object."""
    _expect(sort_of(t), Sort.NAT, "substitute")
    fv_t = free_vars(t)

    def walk(c):
        ctor = type(c)
        if ctor in _BINARIES:
            a = walk(c.lhs)
            return ctor(a, a if c.rhs is c.lhs else walk(c.rhs))
        if ctor in _UNARIES:
            return ctor(walk(c.arg))
        if ctor in _BINDERS:
            w, body = c.var, c.body
            if w == v:
                return c
            if w in fv_t and v in free_vars(body):
                w = fresh_name(w, free_vars(body) | fv_t | {v})
                body = substitute(body, c.var, Var(w))
            return ctor(w, walk(body))
        if ctor in _LEAVES:
            return t if ctor is Var and c.name == v else c
        raise TypeError(f"not a construction: {c!r}")

    return _on_big_stack(walk, c)


def alpha_equal(a: Construction, b: Construction) -> bool:
    """Structural equality up to consistent renaming of bound variables."""
    return _on_big_stack(_alpha, a, b, {}, {}, 0)


def _alpha(a, b, env_a, env_b, depth) -> bool:
    t = type(a)
    if t is not type(b):
        return False
    if t in _UNARIES:
        return _alpha(a.arg, b.arg, env_a, env_b, depth)
    if t in _BINARIES:
        return _alpha(a.lhs, b.lhs, env_a, env_b, depth) and (
            (a.rhs is a.lhs and b.rhs is b.lhs) or _alpha(a.rhs, b.rhs, env_a, env_b, depth))
    if t in _BINDERS:
        return _alpha(a.body, b.body, env_a | {a.var: depth}, env_b | {b.var: depth}, depth + 1)
    if t is Var:
        return env_a.get(a.name, a.name) == env_b.get(b.name, b.name)
    if t in _LEAVES:
        return True
    raise TypeError(f"not a construction: {a!r}")
