"""Language-membership checks for the three first-order levels.

Level 1 is the language of zero and successor, level 2 adds the sum,
level 3 adds the product.  Logical connectives, equality, quantifiers
and variables belong to every level; abstractions to none.
"""

from __future__ import annotations

import enum

from .errors import SortError
from .syntax import (
    Abs, And, Construction, Eq, Exists, FF, Forall, Implies, Not, Or,
    Plus, Sort, Succ, TT, Times, Var, Zero, abs_body, is_abs, sort_of,
)


class LangLevel(enum.IntEnum):
    L1 = 1
    L2 = 2
    L3 = 3


# The lowest level whose language has each nonlogical binary constant.
_LEVEL_OF = {Plus: LangLevel.L2, Times: LangLevel.L3}


def _constants_within(level: LangLevel, c: Construction) -> bool:
    match c:
        case Zero() | Var(_) | TT() | FF():
            return True
        case Succ(a) | Not(a):
            return _constants_within(level, a)
        case Plus(l, r) | Times(l, r) | And(l, r) | Or(l, r) | Implies(l, r) | Eq(l, r):
            if level < _LEVEL_OF.get(type(c), LangLevel.L1):
                return False
            return _constants_within(level, l) and (r is l or _constants_within(level, r))
        case Forall(_, b) | Exists(_, b):
            return _constants_within(level, b)
        case Abs(_, _):
            return False
    raise TypeError(f"not a construction: {c!r}")


def is_fo(level: LangLevel, c: Construction) -> bool:
    """True iff ``c`` is a well-sorted first-order term or formula whose
    nonlogical constants all belong to ``level``."""
    try:
        sort = sort_of(c)
    except SortError:
        return False
    if sort is Sort.ABS_PRED:
        return False
    return _constants_within(level, c)


def is_fo_abs(level: LangLevel, c: Construction) -> bool:
    """True iff ``c`` is an abstraction whose body is first-order at ``level``."""
    return is_abs(c) and is_fo(level, abs_body(c))
