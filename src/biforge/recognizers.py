"""Language-membership checks for the three first-order levels.

Level 1 is the language of zero and successor, level 2 adds the sum,
level 3 adds the product.  Logical connectives, equality, quantifiers
and variables belong to every level; abstractions to none.
"""

from __future__ import annotations

import enum

from .errors import SortError
from .syntax import (
    Abs, Construction, Plus, Times, _fold, abs_body, is_abs, sort_of,
)


class LangLevel(enum.IntEnum):
    L1 = 1
    L2 = 2
    L3 = 3


# The lowest level whose language has each nonlogical binary constant;
# an abstraction is in no level's language, so it sits above them all.
_LEVEL_OF = {Plus: LangLevel.L2, Times: LangLevel.L3, Abs: LangLevel.L3 + 1}


def _node_level(c, a, b=LangLevel.L1):
    return max(a, b, _LEVEL_OF.get(type(c), LangLevel.L1))


# The lowest level whose language holds every constant of a tree.
_level_of = _fold(lambda c: LangLevel.L1, _node_level)


def is_fo(level: LangLevel, c: Construction) -> bool:
    """True iff ``c`` is a well-sorted first-order term or formula whose
    nonlogical constants all belong to ``level``."""
    try:
        sort_of(c)
    except SortError:
        return False
    return _level_of(c) <= level


def is_fo_abs(level: LangLevel, c: Construction) -> bool:
    """True iff ``c`` is an abstraction whose body is first-order at ``level``."""
    return is_abs(c) and is_fo(level, abs_body(c))
