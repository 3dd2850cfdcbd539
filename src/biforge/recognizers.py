"""Language-membership checks for the three first-order levels.

Level 1 is the language of zero and successor, level 2 adds the sum,
level 3 adds the product.  Logical connectives, equality, quantifiers
and variables belong to every level; abstractions to none.
"""

from __future__ import annotations

import enum

from .errors import NotAnAbstraction, SortError
from .syntax import Construction, Sort, _classify, abs_body


class LangLevel(enum.IntEnum):
    L1 = 1
    L2 = 2
    L3 = 3


def is_fo(level: LangLevel, c: Construction) -> bool:
    """True iff ``c`` is a well-sorted first-order term or formula whose
    nonlogical constants all belong to ``level``."""
    try:
        return _classify(c)[1] <= level
    except SortError:
        return False


def is_fo_abs(level: LangLevel, c: Construction) -> bool:
    """True iff ``c`` is an abstraction whose body is a first-order formula at ``level``."""
    try:
        sort, used = _classify(abs_body(c))
    except (NotAnAbstraction, SortError):
        return False
    return sort is Sort.BOOL and used <= level
