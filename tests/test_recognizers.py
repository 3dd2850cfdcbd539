import random

import pytest

from biforge.binum import of_nat, to_construction
from biforge.errors import SortError
from biforge.recognizers import LangLevel, is_fo, is_fo_abs
from biforge.syntax import (
    Abs, And, Eq, Exists, FF, Forall, Implies, Not, Or, Plus, Succ, TT, Times,
    Sort, Var, Zero, _classify, _fold, sort_of, substitute,
)
from .conftest import random_matrix, random_term

x = Var("x")

L1, L2, L3 = LangLevel.L1, LangLevel.L2, LangLevel.L3


def test_is_fo_levels():
    a1 = Forall("x", Not(Eq(Succ(x), Zero())))
    assert is_fo(L1, a1)
    with_times = Eq(Times(x, x), x)
    assert not is_fo(L2, with_times)
    assert is_fo(L3, with_times)
    assert not is_fo(L2, Abs("x", TT()))
    assert not is_fo(L1, Eq(Plus(x, Zero()), x))


def test_is_fo_rejects_ill_sorted():
    assert not is_fo(L3, Succ(TT()))


def test_is_fo_accepts_terms():
    assert is_fo(L1, Succ(x))
    assert is_fo(L2, Plus(x, Succ(Zero())))


def test_is_fo_abs():
    pred = Abs("x", Eq(Plus(x, Zero()), x))
    assert is_fo_abs(L2, pred)
    assert not is_fo_abs(L2, TT())
    assert not is_fo_abs(L1, pred)
    assert not is_fo_abs(L2, Abs("x", Eq(Times(x, x), x)))


def test_is_fo_abs_needs_a_formula_body():
    for body in (Plus(x, x), x, Succ(Zero()), Abs("y", TT()), Succ(TT())):
        pred = Abs("x", body)
        with pytest.raises(SortError):
            sort_of(pred)
        assert not any(is_fo_abs(level, pred) for level in (L1, L2, L3))


def test_is_fo_abs_is_a_well_sorted_abstraction_at_its_level(rng):
    for _ in range(300):
        body = (random_matrix if rng.random() < 0.5 else random_term)(rng, ["x", "y"], 3)
        pred = Abs("x", body)
        for level in (L1, L2, L3):
            expected = sort_of(body) is Sort.BOOL and is_fo(level, body)
            assert is_fo_abs(level, pred) is expected


def test_monotonicity(rng):
    for _ in range(300):
        c = random_matrix(rng, ["x", "y"], 2)
        if is_fo(L1, c):
            assert is_fo(L2, c)
        if is_fo(L2, c):
            assert is_fo(L3, c)


def test_stable_under_substitution(rng):
    for _ in range(200):
        c = random_matrix(rng, ["x", "y"], 2)
        t = Plus(Var("y"), Succ(Zero()))
        assert is_fo(L2, c)
        assert is_fo(L2, substitute(c, "x", t))


def test_numeral_terms_are_level_two():
    for n in range(64):
        assert is_fo(L2, to_construction(of_nat(n)))


# The level walk as a second fold over the tree, kept as a reference for
# the level that the sort walk now yields.
_REFERENCE_LEVEL_OF = {Plus: LangLevel.L2, Times: LangLevel.L3, Abs: LangLevel.L3 + 1}


def _reference_node_level(c, a, b=LangLevel.L1):
    return max(a, b, _REFERENCE_LEVEL_OF.get(type(c), LangLevel.L1))


reference_level_of = _fold(lambda c: LangLevel.L1, _reference_node_level)


def reference_is_fo(level, c):
    try:
        sort_of(c)
    except SortError:
        return False
    return reference_level_of(c) <= level


_NODES = [Succ, Not, Plus, Times, Eq, And, Or, Implies, Forall, Exists, Abs]


def random_tree(rng, depth):
    """Any tree of the fifteen node kinds, well-sorted or not, with
    shared children and mixed chains of successors and negations."""
    if depth <= 0 or rng.random() < 0.2:
        return rng.choice([Zero(), TT(), FF(), Var("x")])
    ctor = rng.choice(_NODES)
    if ctor in (Succ, Not):
        c = random_tree(rng, depth - 1)
        for _ in range(rng.randint(1, 4)):
            c = rng.choice([Succ, Not, ctor])(c)
        return c
    if ctor in (Forall, Exists, Abs):
        return ctor("x", random_tree(rng, depth - 1))
    left = random_tree(rng, depth - 1)
    return ctor(left, left if rng.random() < 0.3 else random_tree(rng, depth - 1))


def test_sort_walk_level_matches_the_reference_fold():
    rng = random.Random("levels")
    seen = set()
    for _ in range(4000):
        c = random_tree(rng, rng.randint(0, 5))
        try:
            sort = sort_of(c)
        except SortError as err:
            with pytest.raises(SortError) as again:
                _classify(c)
            assert str(again.value) == str(err)
        else:
            assert _classify(c) == (sort, reference_level_of(c))
            seen.add(reference_level_of(c))
        for level in LangLevel:
            assert is_fo(level, c) == reference_is_fo(level, c)
    assert seen == {1, 2, 3, 4}
