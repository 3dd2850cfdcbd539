"""Binary numerals and the numeral arithmetic transformers.

Two routes compute sums of numerals and are cross-checked against each
other: a direct algorithm (:func:`bplus`, and :func:`btimes` over it),
and a conditional rewrite engine (:func:`bplus_rewrite`) that applies
the eleven numeral addition rules with first-match rule order and
leftmost-innermost redex selection.  The rule set is implemented exactly
as stated, including a rule whose left-hand side duplicates an earlier
rule's; as a result the rewrite route is not complete and can report a
stuck term, which callers are expected to surface rather than hide.

A numeral is a value and a width, and the direct route computes on
both.  One walk down a numeral term's ``(v + v) + w`` layers both
recognizes it and reads its digits.
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional

from .errors import NotBnum, StuckRewrite
from .syntax import Construction, Plus, Succ, Zero, _Record


class BinDigit(enum.IntEnum):
    D0 = 0
    D1 = 1


_D0, _D1 = BinDigit.D0, BinDigit.D1


def _as_digit(d) -> BinDigit:
    """``d`` as a digit member.  Accepts what ``BinDigit(d)`` accepts,
    values equal to 0 or 1, without the enum's by-value lookup."""
    if d == 0:
        return _D0
    if d == 1:
        return _D1
    raise ValueError(f"{d!r} is not a valid BinDigit")


class BinNum(_Record):
    """The natural ``value`` written in ``width`` binary digits, at least
    one and at least its bit length; the digits above the value's own
    are most-significant zeros.  ``digits`` (the :class:`BinDigit`
    members, least-significant first) and ``len()`` are views of the two
    fields, and :func:`binnum` builds a numeral from digits.  Numerals
    compare by value via :func:`to_nat` unless structure is at stake."""

    __slots__ = ("value", "width")

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("naturals only")
        if self.width < max(1, self.value.bit_length()):
            raise ValueError(f"the value does not fit in {self.width} digits")

    def __len__(self):
        return self.width

    def __repr__(self):
        # In binary: decimal text of an int past 4,300 digits raises.
        return f"BinNum(value={self.value:#b}, width={self.width})"

    @property
    def digits(self) -> tuple[BinDigit, ...]:
        return tuple(_D1 if bit == "1" else _D0 for bit in reversed(_bits(self)))


def _bits(b: BinNum) -> str:
    """The digits of ``b`` as text, most-significant first."""
    return f"{b.value:0{b.width}b}"


_BYTE_CHAR = bytes.maketrans(b"\0\1", b"01")


def binnum(digits: Iterable[int]) -> BinNum:
    """The numeral of ``digits``, least-significant first, each 0 or 1."""
    members = [*map(_as_digit, digits)]
    if not members:
        raise ValueError("a numeral has at least one digit")
    return BinNum(int(bytes(members[::-1]).translate(_BYTE_CHAR), 2), len(members))


def _fit(v: int, width: int = 1) -> BinNum:
    """``v`` in ``width`` digits, or in as many as it needs if more."""
    return BinNum(v, max(width, v.bit_length()))


def to_nat(b: BinNum) -> int:
    """Positional value: sum of digit * 2^position from the low end."""
    return b.value


def of_nat(n: int) -> BinNum:
    """Canonical numeral for ``n``: no high zeros except for 0 itself."""
    return _fit(n)


def succ_b(b: BinNum) -> BinNum:
    return _fit(b.value + 1, b.width)


def shift(b: BinNum) -> BinNum:
    return BinNum(b.value << 1, b.width + 1)


def bplus(a: BinNum, b: BinNum) -> BinNum:
    """Sum of two numerals, defined by clauses on their digits::

        (0) + b          = b
        (1) + b          = succ b
        a + (0)          = a
        a + (1)          = succ a
        [a' d] + [b' e]  = succ^(d+e) (shift (a' + b'))

    ``[a' d]`` is a numeral of two or more digits with low digit ``d``,
    and ``succ^k`` applies :func:`succ_b` ``k`` times.  The clauses are
    tried in this order; the sum is computed on ints and keeps the width
    they give, padding included.
    """
    return _fit(a.value + b.value, max(a.width, b.width))


def btimes(a: BinNum, b: BinNum) -> BinNum:
    """Product of two numerals, defined by clauses on their digits::

        x * (0)      = (0)
        x * (1)      = x
        (0) * y      = (0)
        (1) * y      = y
        [x' 0] * y   = shift (x' * y)
        [x' 1] * y   = shift (x' * y) + y

    The clauses are tried in this order, with :func:`bplus` for the
    additions; the product is computed with one int multiplication and
    keeps the width they give, padding included.
    """
    if b.width == 1:
        return a if b.value else BinNum(0, 1)
    n, vx = a.width, a.value
    if not vx:
        return BinNum(0, n)
    # The clauses read x from its top digit down.  Its t high zeros give
    # t zeros; its top one digit then gives y's width, or t + 1 if that
    # is more; each lower digit shifts once.  A sum widens the result
    # beyond that only where its value needs the digits.
    t = n - vx.bit_length()
    return _fit(vx * b.value, (b.width if t == 0 else max(t + 1, b.width)) + n - 1 - t)


def normalize(b: BinNum) -> BinNum:
    """Drop most-significant zeros, keeping at least one digit."""
    return _fit(b.value)


# ---------------------------------------------------------------------------
# Bridging numerals and constructions.

_ZERO = Zero()
_ONE = Succ(Zero())


_new = object.__new__
_set_lhs, _set_rhs = Plus.lhs.__set__, Plus.rhs.__set__


def to_construction(b: BinNum) -> Construction:
    """Quote a numeral as nested ``(x + x) + digit`` terms.

    Builds the nodes directly: every layer is well-sorted by
    construction, so the checked :func:`biforge.syntax.bnat` round would
    only re-walk the shared subterm.  ``Plus`` has no ``__post_init__``,
    so storing its two slots is all that ``Plus(lhs, rhs)`` would do.
    """
    term: Construction = _ZERO
    for bit in _bits(b):
        inner = _new(Plus)
        _set_lhs(inner, term)
        _set_rhs(inner, term)
        term = _new(Plus)
        _set_lhs(term, inner)
        _set_rhs(term, _ONE if bit == "1" else _ZERO)
    return term


def _read(c: Construction) -> tuple[bytearray, Optional[Construction]]:
    """Walk ``(v + v) + w`` layers from the top: the digits read, least-
    significant first, as the ASCII bits ``0``/``1``, and None when ``c``
    is a numeral term, else the first node that breaks the grammar.  A
    digit term is zero or the successor of zero; the type tests are
    exact, as records of different classes are unequal and Zero has no
    fields."""
    bits = bytearray()
    while True:
        if not isinstance(c, Plus):
            return bits, c
        inner = c.lhs
        if not isinstance(inner, Plus):
            return bits, inner
        v1, v2, w = inner.lhs, inner.rhs, c.rhs
        if v1 is not v2 and v1 != v2:
            return bits, inner
        if type(w) is Zero:
            bits.append(48)
        elif type(w) is Succ and type(w.arg) is Zero:
            bits.append(49)
        else:
            return bits, w
        if type(v1) is Zero:
            return bits, None
        c = v1


def _read_or_raise(c: Construction, what: str) -> bytearray:
    bits, stop = _read(c)
    if stop is not None:
        # Names the node instead of printing the term: a shared numeral
        # DAG prints in time and space exponential in its digit count.
        raise NotBnum(f"{what}: {type(stop).__name__} node at digit {len(bits)}")
    return bits


def is_bnum(c: Construction) -> bool:
    """Recognize binary-numeral terms: ``(v + v) + w`` with ``w`` a digit
    term and ``v`` either zero or itself a numeral term."""
    return _read(c)[1] is None


def from_construction(c: Construction) -> BinNum:
    bits = _read_or_raise(c, "not a binary-numeral term")
    return BinNum(int(bits[::-1], 2), len(bits))


# ---------------------------------------------------------------------------
# The conditional rewrite engine for numeral addition.
#
# A rule gets the operands of a redex ``a + b`` and returns None, the
# sum, or ``(u, v, *after)``: the sum is ``u + v`` followed by each step
# of ``after`` in turn, a step being the ``(1)`` numeral term (add one)
# or a digit term (put a layer with that low digit on top).  The first
# rule in stated order that fires on a redex depends only on the shapes
# of its operands, so the engine picks it from a table derived from that
# order; the first stuck redex aborts the rewrite.

_ZERO2 = Plus(Plus(_ZERO, _ZERO), _ZERO)   # the (0) numeral term
_ONE2 = Plus(Plus(_ZERO, _ZERO), _ONE)     # the (1) numeral term
_TWO2 = Plus(Plus(_ONE2, _ONE2), _ZERO)    # the (10) numeral term


# Every operand a rule sees is a numeral term: bplus_rewrite checks both
# operands on entry, and each rule's output reduces to a numeral term
# again.  So an operand always splits, its digit term is zero or a
# successor, and its high part ``v`` is a numeral term exactly when
# ``type(v) is not Zero``; the guards test that in O(1) instead of
# walking ``v``.

def _split_bnat(c: Construction):
    """High part and digit of the numeral term ``(v + v) + w``."""
    return c.lhs.lhs, _D1 if type(c.rhs) is Succ else _D0


def _is_single(c: Construction, digit_type: type) -> bool:
    """Whether the numeral term ``c`` has one digit, whose term is of
    ``digit_type``: ``c == _ZERO2`` for Zero, ``c == _ONE2`` for Succ."""
    return type(c.rhs) is digit_type and type(c.lhs.lhs) is Zero


def _rule_right_zero(a, b):
    return a if _is_single(b, Zero) else None


def _rule_left_zero(a, b):
    return b if _is_single(a, Zero) else None


def _rule_one_one(a, b):
    return _TWO2 if _is_single(a, Succ) and _is_single(b, Succ) else None


def _one_rule(one_left: bool, d: BinDigit, carry: bool):
    """The rule for ``[u d] + (1)``, or ``(1) + [u d]`` when ``one_left``:
    ``[u 1]`` without a carry, ``[u+(1) 0]`` with one."""
    def rule(a, b):
        one, other = (a, b) if one_left else (b, a)
        if not _is_single(one, Succ):
            return None
        high, e = _split_bnat(other)
        if e is not d or type(high) is Zero:
            return None
        return (high, _ONE2, _ZERO) if carry else Plus(Plus(high, high), _ONE)

    return rule


def _binary_rule(da: BinDigit, db: BinDigit, carry: bool):
    def rule(a, b):
        (u, d), (v, e) = _split_bnat(a), _split_bnat(b)
        if d is not da or e is not db or type(u) is Zero or type(v) is Zero:
            return None
        if carry:
            return u, v, _ONE2, _ZERO
        return u, v, _ONE if da != db else _ZERO

    return rule


_RULES = (
    _rule_right_zero,                      # u + (0) = u
    _rule_left_zero,                       # (0) + u = u
    _rule_one_one,                         # (1) + (1) = (10)
    _one_rule(False, _D0, carry=False),    # [u 0] + (1) = [u 1]
    _one_rule(False, _D1, carry=True),     # [u 1] + (1) = [u+(1) 0]
    _one_rule(True, _D0, carry=False),     # (1) + [u 0] = [u 1]
    # Stated with the same left-hand side as the previous rule, so it
    # never fires under first-match order and _FIRST_RULE never chooses
    # it; kept for rule-set fidelity.
    _one_rule(True, _D0, carry=True),      # (1) + [u 0] = [u+(1) 0]
    _binary_rule(_D0, _D0, carry=False),   # [u 0] + [v 0] = [u+v 0]
    _binary_rule(_D0, _D1, carry=False),   # [u 0] + [v 1] = [u+v 1]
    _binary_rule(_D1, _D0, carry=False),   # [u 1] + [v 0] = [u+v 1]
    _binary_rule(_D1, _D1, carry=True),    # [u 1] + [v 1] = [(u+v)+(1) 0]
)

# One numeral term of each operand shape, by index: (0), (1), [u 0], [u 1].
_SHAPES = (_ZERO2, _ONE2, _TWO2, Plus(Plus(_ONE2, _ONE2), _ONE))

# At ``4 * i + j``, the index in _RULES of the first rule in stated order
# that fires on operands of shapes i and j (every guard reads only the
# shapes), or None for (1) + [u 1], which no rule covers.  The shadowed
# rule 7 is never chosen.
_FIRST_RULE = tuple(
    next((i for i, rule in enumerate(_RULES) if rule(a, b) is not None), None)
    for a in _SHAPES for b in _SHAPES
)


def _literal(c: Construction) -> str:
    """The ``#b`` text of the numeral term ``c``, high zeros kept."""
    return "#b" + _read(c)[0][::-1].decode()


def _reduce(a: Construction, b: Construction) -> Construction:
    """Rewrite the redex ``a + b`` to a numeral term, innermost first.
    Each redex's rule is looked up in ``_FIRST_RULE`` by its operands'
    shapes, and read from ``_RULES`` at call time."""
    steps: list[Construction] = []  # waiting steps, the next one last
    while True:
        i = _FIRST_RULE[(type(a.lhs.lhs) is not Zero) << 3 | (type(a.rhs) is Succ) << 2
                        | (type(b.lhs.lhs) is not Zero) << 1 | (type(b.rhs) is Succ)]
        if i is None:
            raise StuckRewrite(Plus(a, b), f"(bplus {_literal(a)} {_literal(b)})")
        out = _RULES[i](a, b)
        if type(out) is tuple:
            a, b = out[0], out[1]
            steps += out[:1:-1]  # the steps after ``u + v``, the next one last
            continue
        while steps and steps[-1] is not _ONE2:
            inner = _new(Plus)
            _set_lhs(inner, out)
            _set_rhs(inner, out)
            out = _new(Plus)
            _set_lhs(out, inner)
            _set_rhs(out, steps.pop())
        if not steps:
            return out
        a, b = out, steps.pop()


def bplus_rewrite(a: Construction, b: Construction) -> Construction:
    """Add two numeral terms by conditional rewriting.

    Each redex is rewritten by the first rule, in stated order, that
    fires on its operands' shapes, taken from a table derived from that
    order; the shadowed rule 7 is never chosen.  Raises
    :class:`StuckRewrite` when the rule set covers no redex; the
    exception's ``term`` is the stuck redex ``Plus(x, y)``, kept as a
    completeness counterexample.  The result is not read again: every
    rule's output reduces to a numeral term, as the rule-soundness test
    shows on symbolic operands of each shape pair.
    """
    _read_or_raise(a, "left operand is not a numeral term")
    _read_or_raise(b, "right operand is not a numeral term")
    return _reduce(a, b)
