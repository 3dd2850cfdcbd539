"""Binary numerals and the numeral arithmetic transformers.

Two routes compute sums of numerals and are cross-checked against each
other: a direct algorithm (:func:`bplus`, a ripple-carry loop over both
digit tuples, with :func:`btimes` a shift-and-add loop over it), and a
conditional rewrite engine (:func:`bplus_rewrite`) that applies the
eleven numeral addition rules with first-match rule order and
leftmost-innermost redex selection.  The rule set is implemented exactly
as stated, including a rule whose left-hand side duplicates an earlier
rule's; as a result the rewrite route is not complete and can report a
stuck term, which callers are expected to surface rather than hide.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .errors import NotBnum, StuckRewrite
from .syntax import Construction, Plus, Succ, Zero


class BinDigit(enum.IntEnum):
    D0 = 0
    D1 = 1


_DIGIT_OF = (BinDigit.D0, BinDigit.D1)
_D0, _D1 = _DIGIT_OF
_MEMBERS_ONLY = {BinDigit}


def _as_digit(d) -> BinDigit:
    """``d`` as a digit member.  Accepts what ``BinDigit(d)`` accepts,
    values equal to 0 or 1, without the enum's by-value lookup."""
    if d == 0:
        return _D0
    if d == 1:
        return _D1
    raise ValueError(f"{d!r} is not a valid BinDigit")


@dataclass(frozen=True)
class BinNum:
    """Non-empty digit sequence, least-significant digit first.

    Most-significant zeros are legal: numerals compare by value via
    :func:`to_nat` unless structure is explicitly at stake.
    """

    digits: tuple[BinDigit, ...]

    def __post_init__(self):
        if not self.digits:
            raise ValueError("a numeral has at least one digit")
        digits = tuple(self.digits)
        # The kernel emits members only; other digits are checked and
        # replaced by members.
        if {*map(type, digits)} != _MEMBERS_ONLY:
            digits = tuple(map(_as_digit, digits))
        object.__setattr__(self, "digits", digits)

    def __len__(self):
        return len(self.digits)


def binnum(digits: Iterable[int]) -> BinNum:
    return BinNum(tuple(digits))


# Raw-tuple helpers carry the loops; public operations wrap them.  They
# return exactly the digit tuples of the clause-by-clause recursions in
# the docstrings of :func:`bplus` and :func:`btimes`, padding included.

def _succ(d: tuple[BinDigit, ...]) -> tuple[BinDigit, ...]:
    for i, digit in enumerate(d):
        if not digit:
            return (_D0,) * i + (_D1,) + d[i + 1:]
    return (_D0,) * len(d) + (_D1,)


def _shift(d: tuple[BinDigit, ...]) -> tuple[BinDigit, ...]:
    return (_D0,) + d


def _bplus(a: tuple[BinDigit, ...], b: tuple[BinDigit, ...]) -> tuple[BinDigit, ...]:
    # Ripple carry while both operands have more than one digit left;
    # the leftover single digit and the carry are then added to the other
    # operand's remaining digits by successor steps.
    low = []
    carry = 0
    last = min(len(a), len(b)) - 1
    for i in range(last):
        total = a[i] + b[i] + carry
        low.append(_DIGIT_OF[total & 1])
        carry = total >> 1
    if len(a) - last == 1:
        steps, high = a[last] + carry, b[last:]
    else:
        steps, high = b[last] + carry, a[last:]
    for _ in range(steps):
        high = _succ(high)
    return (*low, *high)


def _btimes(x: tuple[BinDigit, ...], y: tuple[BinDigit, ...]) -> tuple[BinDigit, ...]:
    if len(y) == 1:
        return x if y[0] else (_D0,)
    product = y if x[-1] else (_D0,)
    for digit in reversed(x[:-1]):
        product = _shift(product)
        if digit:
            product = _bplus(product, y)
    return product


def to_nat(b: BinNum) -> int:
    """Positional value: sum of digit * 2^position from the low end."""
    value = 0
    for d in reversed(b.digits):
        value = value + value + d
    return int(value)


def of_nat(n: int) -> BinNum:
    """Canonical numeral for ``n``: no high zeros except for 0 itself."""
    if n < 0:
        raise ValueError("naturals only")
    if n == 0:
        return BinNum((_D0,))
    digits = []
    while n:
        digits.append(_DIGIT_OF[n & 1])
        n >>= 1
    return BinNum(tuple(digits))


def succ_b(b: BinNum) -> BinNum:
    return BinNum(_succ(b.digits))


def shift(b: BinNum) -> BinNum:
    return BinNum(_shift(b.digits))


def bplus(a: BinNum, b: BinNum) -> BinNum:
    """Sum of two numerals, defined by clauses on their digits::

        (0) + b          = b
        (1) + b          = succ b
        a + (0)          = a
        a + (1)          = succ a
        [a' d] + [b' e]  = succ^(d+e) (shift (a' + b'))

    ``[a' d]`` is a numeral of two or more digits with low digit ``d``,
    and ``succ^k`` applies :func:`succ_b` ``k`` times.  The clauses are
    tried in this order and are computed by one ripple-carry loop; the
    result keeps the shape they give, padding included.
    """
    return BinNum(_bplus(a.digits, b.digits))


def btimes(a: BinNum, b: BinNum) -> BinNum:
    """Product of two numerals, defined by clauses on their digits::

        x * (0)      = (0)
        x * (1)      = x
        (0) * y      = (0)
        (1) * y      = y
        [x' 0] * y   = shift (x' * y)
        [x' 1] * y   = shift (x' * y) + y

    The clauses are tried in this order and are computed by one
    shift-and-add loop over ``x`` from its top digit down, with
    :func:`bplus` for the additions.
    """
    return BinNum(_btimes(a.digits, b.digits))


def normalize(b: BinNum) -> BinNum:
    """Drop most-significant zeros, keeping at least one digit."""
    digits = list(b.digits)
    while len(digits) > 1 and digits[-1] == BinDigit.D0:
        digits.pop()
    return BinNum(tuple(digits))


# ---------------------------------------------------------------------------
# Bridging numerals and constructions.

_ZERO = Zero()
_ONE = Succ(Zero())


def to_construction(b: BinNum) -> Construction:
    """Quote a numeral as nested ``(x + x) + digit`` terms.

    Builds the nodes directly: every layer is well-sorted by
    construction, so the checked :func:`biforge.syntax.bnat` round would
    only re-walk the shared subterm.
    """
    term: Optional[Construction] = None
    for d in reversed(b.digits):
        digit = _ONE if d else _ZERO
        high = term if term is not None else _ZERO
        term = Plus(Plus(high, high), digit)
    assert term is not None
    return term


def is_bnum(c: Construction) -> bool:
    """Recognize binary-numeral terms: ``(v + v) + w`` with ``w`` a digit
    term and ``v`` either zero or itself a numeral term."""
    while True:
        if not isinstance(c, Plus):
            return False
        inner = c.lhs
        if not isinstance(inner, Plus):
            return False
        v1, v2, w = inner.lhs, inner.rhs, c.rhs
        if v1 is not v2 and v1 != v2:
            return False
        if w != _ZERO and w != _ONE:
            return False
        if v1 == _ZERO:
            return True
        c = v1


def from_construction(c: Construction) -> BinNum:
    if not is_bnum(c):
        raise NotBnum(f"not a binary-numeral term: {c!r}")
    digits: list[BinDigit] = []
    node = c
    while True:
        high = node.lhs.lhs
        low = node.rhs
        digits.append(BinDigit.D1 if low == _ONE else BinDigit.D0)
        if high == _ZERO:
            return BinNum(tuple(digits))
        node = high


# ---------------------------------------------------------------------------
# The conditional rewrite engine for numeral addition.
#
# Mixed terms interleave pending additions and digit skeletons whose high
# part is still being rewritten.  Rules fire on additions whose operands
# are plain constructions, tried in their stated order; the first stuck
# redex aborts the whole rewrite.

@dataclass(frozen=True)
class _Add:
    lhs: "RewriteTerm"
    rhs: "RewriteTerm"


@dataclass(frozen=True)
class _Digit:
    high: "RewriteTerm"
    low: Construction  # zero or one term


RewriteTerm = Union[_Add, _Digit, Construction]

_ZERO2 = Plus(Plus(_ZERO, _ZERO), _ZERO)   # the (0) numeral term
_ONE2 = Plus(Plus(_ZERO, _ZERO), _ONE)     # the (1) numeral term
_TWO2 = Plus(Plus(_ONE2, _ONE2), _ZERO)    # the (10) numeral term


def _split_bnat(c: Construction):
    """High part and digit of a ``(v + v) + w`` node, else None."""
    match c:
        case Plus(Plus(v1, v2), w) if v1 == v2 and (w == _ZERO or w == _ONE):
            return v1, w
    return None


def _rule_right_zero(a, b):
    if b == _ZERO2 and is_bnum(a):
        return a
    return None


def _rule_left_zero(a, b):
    if a == _ZERO2 and is_bnum(b):
        return b
    return None


def _rule_one_one(a, b):
    if a == _ONE2 and b == _ONE2:
        return _TWO2
    return None


def _rule_even_plus_one(a, b):
    if b != _ONE2:
        return None
    parts = _split_bnat(a)
    if parts and parts[1] == _ZERO and is_bnum(parts[0]):
        return Plus(Plus(parts[0], parts[0]), _ONE)
    return None


def _rule_odd_plus_one(a, b):
    if b != _ONE2:
        return None
    parts = _split_bnat(a)
    if parts and parts[1] == _ONE and is_bnum(parts[0]):
        return _Digit(_Add(parts[0], _ONE2), _ZERO)
    return None


def _rule_one_plus_even(a, b):
    if a != _ONE2:
        return None
    parts = _split_bnat(b)
    if parts and parts[1] == _ZERO and is_bnum(parts[0]):
        return Plus(Plus(parts[0], parts[0]), _ONE)
    return None


def _rule_one_plus_even_carry(a, b):
    # Stated with the same left-hand side as _rule_one_plus_even, so it
    # never fires under first-match order; kept for rule-set fidelity.
    if a != _ONE2:
        return None
    parts = _split_bnat(b)
    if parts and parts[1] == _ZERO and is_bnum(parts[0]):
        return _Digit(_Add(parts[0], _ONE2), _ZERO)
    return None


def _binary_rule(da: Construction, db: Construction, carry: bool):
    def rule(a, b):
        pa = _split_bnat(a)
        pb = _split_bnat(b)
        if not pa or not pb or pa[1] != da or pb[1] != db:
            return None
        if not (is_bnum(pa[0]) and is_bnum(pb[0])):
            return None
        total = _Add(pa[0], pb[0])
        if carry:
            return _Digit(_Add(total, _ONE2), _ZERO)
        return _Digit(total, _ONE if (da == _ONE) != (db == _ONE) else _ZERO)

    return rule


_RULES = (
    _rule_right_zero,           # u + (0) = u
    _rule_left_zero,            # (0) + u = u
    _rule_one_one,              # (1) + (1) = (10)
    _rule_even_plus_one,        # [u 0] + (1) = [u 1]
    _rule_odd_plus_one,         # [u 1] + (1) = [u+(1) 0]
    _rule_one_plus_even,        # (1) + [u 0] = [u 1]
    _rule_one_plus_even_carry,  # shadowed duplicate of the previous rule
    _binary_rule(_ZERO, _ZERO, carry=False),   # [u 0] + [v 0] = [u+v 0]
    _binary_rule(_ZERO, _ONE, carry=False),    # [u 0] + [v 1] = [u+v 1]
    _binary_rule(_ONE, _ZERO, carry=False),    # [u 1] + [v 0] = [u+v 1]
    _binary_rule(_ONE, _ONE, carry=True),      # [u 1] + [v 1] = [(u+v)+(1) 0]
)


def _render(t: RewriteTerm) -> str:
    from .sexpr import to_sexpr  # deferred: sexpr imports this module

    match t:
        case _Add(l, r):
            return f"(bplus {_render(l)} {_render(r)})"
        case _Digit(h, low):
            return f"(digit {_render(h)} {to_sexpr(low)})"
        case _:
            return to_sexpr(t)


def _reduce(t: RewriteTerm) -> Construction:
    match t:
        case _Add(l, r):
            lhs = _reduce(l)
            rhs = _reduce(r)
            for rule in _RULES:
                out = rule(lhs, rhs)
                if out is not None:
                    return _reduce(out)
            raise StuckRewrite(_Add(lhs, rhs), _render(_Add(lhs, rhs)))
        case _Digit(h, low):
            high = _reduce(h)
            return Plus(Plus(high, high), low)
        case _:
            return t


def bplus_rewrite(a: Construction, b: Construction) -> Construction:
    """Add two numeral terms by conditional rewriting.

    Raises :class:`StuckRewrite` when the rule set covers no redex; the
    stuck term is preserved on the exception as a completeness
    counterexample.
    """
    if not is_bnum(a):
        raise NotBnum(f"left operand is not a numeral term: {a!r}")
    if not is_bnum(b):
        raise NotBnum(f"right operand is not a numeral term: {b!r}")
    result = _reduce(_Add(a, b))
    if not is_bnum(result):
        raise StuckRewrite(result, _render(result))
    return result
