"""The immutable record types: syntax nodes, linear terms, atoms and
formulas, elimination records, numerals, evaluation strategies, and
theory, morphism and report records.

Records of one class compare and hash field by field, records of two
classes are unequal, the repr is ``Name(field=value, ...)``, assignment
and deletion raise ``FrozenInstanceError``, and copies and pickles are
equal records of the same class.
"""

import copy
import pickle
import sys
import time
from dataclasses import FrozenInstanceError

import pytest

from biforge import (
    FF, TT, Abs, And, BinNum, Divides, Elimination, Eq, EqZero, Exists,
    Forall, Implies, LinearTerm, LtZero, Not, Or, Plus, Succ, Times, Var,
    Zero, binnum,
)
from biforge.recognizers import LangLevel
from biforge.semantics import Bounded, QuantifierFree
from biforge.sexpr import parse_construction
from biforge.presburger import QAnd, QAtom, QExists, QFalse, QForall, QOr, QTrue
from biforge.theory import (
    AXIOMS, BiformTheory, DecideL2, Morphism, Obligation, RandomizedModelCheck,
    Report, ReportEntry, SchemaKind, Transformer,
)

x = Var("x")
t = LinearTerm.make({"x": 2}, 1)
ob = Obligation("plus-zero", AXIOMS["plus-zero"], RandomizedModelCheck(5, 3))
entry = ReportEntry("plus-zero", "decide-l2", False, "not a level-2 sentence")

SAMPLES = [
    Zero(), Succ(x), Plus(x, Zero()), Times(x, x), x, TT(), FF(),
    And(TT(), FF()), Or(TT(), TT()), Not(FF()), Implies(TT(), FF()),
    Eq(x, Succ(x)), Forall("x", TT()), Exists("y", FF()),
    Abs("x", Eq(x, Zero())),
    t, EqZero(t), LtZero(t), Divides(3, t), QTrue(), QFalse(),
    QAtom(EqZero(t)), QAnd(QTrue(), QFalse()), QOr(QTrue(), QTrue()),
    QForall("x", QTrue()), QExists("x", QFalse()), Elimination("x", (t,), 2),
    binnum([1, 0, 1]),
    QuantifierFree(), Bounded(3), Transformer("bplus", "pi3"),
    BiformTheory("T", LangLevel.L2, ("BT1",), (("plus-zero", AXIOMS["plus-zero"]),),
                 (SchemaKind.INDUCTION_L2,), (Transformer("bplus", "pi3"),)),
    DecideL2(), RandomizedModelCheck(5, 3), ob,
    Morphism("M", "BT2", "BT7", (("+", "+"),), (ob,), (SchemaKind.INDUCTION_L1,)),
    entry, Report("check", (entry, entry)),
]


def ids(record):
    return type(record).__name__


def rebuilt(record):
    return type(record)(*(getattr(record, f) for f in record.__match_args__))


@pytest.mark.parametrize("record", SAMPLES, ids=ids)
def test_equal_fields_in_one_class_compare_and_hash_equal(record):
    twin = rebuilt(record)
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)


@pytest.mark.parametrize("a, b", [
    (Zero(), TT()), (TT(), FF()), (QTrue(), QFalse()),
    (Succ(TT()), Not(TT())),
    (Plus(x, x), Times(x, x)), (And(TT(), FF()), Or(TT(), FF())),
    (And(TT(), FF()), Implies(TT(), FF())), (Plus(x, x), Eq(x, x)),
    (Forall("x", TT()), Exists("x", TT())), (Forall("x", TT()), Abs("x", TT())),
    (EqZero(t), LtZero(t)), (QAnd(QTrue(), QTrue()), QOr(QTrue(), QTrue())),
    (QForall("x", QTrue()), QExists("x", QTrue())),
])
def test_records_of_two_classes_with_equal_fields_are_unequal(a, b):
    assert a != b and b != a
    assert not a == b


def test_fields_compare_in_order():
    assert Plus(x, Zero()) != Plus(Zero(), x)
    assert Forall("x", TT()) != Forall("y", TT())
    assert LinearTerm((("x", 1),), 2) != LinearTerm((("x", 2),), 1)
    assert Plus(x, Zero()) != (x, Zero())


@pytest.mark.parametrize("record, text", [
    (Plus(Zero(), Zero()), "Plus(lhs=Zero(), rhs=Zero())"),
    (Forall("x", Not(TT())), "Forall(var='x', body=Not(arg=TT()))"),
    (Var("x"), "Var(name='x')"),
    (Divides(3, t), "Divides(d=3, term=LinearTerm(coeffs=(('x', 2),), const=1))"),
    (QAnd(QTrue(), QAtom(LtZero(t))),
     "QAnd(lhs=QTrue(), rhs=QAtom(atom=LtZero(term=LinearTerm(coeffs=(('x', 2),), const=1))))"),
    (Elimination("x", (t,), 2),
     "Elimination(var='x', tests=(LinearTerm(coeffs=(('x', 2),), const=1),), delta=2)"),
    (binnum([1, 0]), "BinNum(value=0b1, width=2)"),
], ids=lambda v: type(v).__name__ if not isinstance(v, str) else "")
def test_repr_names_every_field(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", SAMPLES, ids=ids)
def test_assignment_and_deletion_raise(record):
    for name in record.__match_args__ + ("other",):
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)


@pytest.mark.parametrize("record", SAMPLES, ids=ids)
def test_copies_and_pickles_are_equal_records(record):
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert twin == record and hash(twin) == hash(record)


def test_deepcopy_keeps_a_shared_child_shared():
    layer = Plus(Plus(x, x), Succ(Zero()))
    twin = copy.deepcopy(layer)
    assert twin == layer and twin.lhs.lhs is twin.lhs.rhs


def test_constructors_take_fields_by_keyword_and_run_their_checks():
    assert Plus(lhs=x, rhs=Zero()) == Plus(x, Zero())
    assert Divides(term=t, d=3) == Divides(3, t)
    assert BinNum(width=2, value=1) == binnum([1, 0])
    for build in (lambda: Var(""), lambda: Forall("", TT()), lambda: Abs("", TT()),
                  lambda: Divides(0, t), lambda: BinNum(value=1, width=0), lambda: Bounded(-1),
                  lambda: RandomizedModelCheck(0, 3)):
        with pytest.raises(ValueError):
            build()


def test_declared_defaults_fill_only_the_last_fields():
    assert ReportEntry("s", "m", True) == ReportEntry("s", "m", True, "")
    assert BiformTheory("T", None, (), ()).schemas == ()
    assert BiformTheory(name="T", level=None, extends=(), axioms=()).transformers == ()
    assert Morphism("M", "A", "B", (), ()).schema_obligations == ()
    for build in (lambda: ReportEntry("s", "m"), lambda: Obligation("a", TT()),
                  lambda: Morphism("M", "A", "B", ())):
        with pytest.raises(TypeError):
            build()


def test_class_patterns_match_by_position_and_keyword():
    match Plus(Succ(x), Zero()):
        case Plus(Succ(Var(name)), rhs=Zero()):
            assert name == "x"
        case _:
            pytest.fail("no case matched")
    match Divides(3, t):
        case Divides(d, LinearTerm(coeffs, const=1)):
            assert (d, coeffs) == (3, (("x", 2),))
        case _:
            pytest.fail("no case matched")
    match QAnd(QTrue(), QForall("x", QFalse())):
        case QAnd(QTrue(), QForall(var="x", body=QFalse())):
            pass
        case _:
            pytest.fail("no case matched")
    match binnum([0, 1]):
        case BinNum(value, width=2):
            assert value == 2
        case _:
            pytest.fail("no case matched")


def test_a_2048_bit_literal_copies_and_pickles_in_linear_time():
    # Copies are the record itself; a pickle is a flat list of distinct
    # nodes, so no layer costs a frame and a shared child stays shared.
    literal = parse_construction("#b" + "10" * 1024)
    for make in (copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            twin = make(literal)
            best = min(best, time.perf_counter() - start)
        assert twin == literal and hash(twin) == hash(literal)
        assert twin.lhs.lhs is twin.lhs.rhs
        assert best < 0.1
    assert copy.deepcopy(literal) is literal


# Binder chains five times the recursion limit deep, built in a loop:
# ==, !=, hash and pickling walk them on the big-stack retry, as every
# other walker does, and copies are the record itself.
def _binders(kinds, bottom, innermost="x"):
    depth = 5 * sys.getrecursionlimit()
    c = kinds[0](innermost, bottom)
    for k in range(1, depth):
        kind = kinds[k % len(kinds)]
        c = kind(c) if kind is Not else kind("x", c)
    return c


CHAINS = {
    "forall": [Forall], "exists": [Exists], "abs": [Abs],
    "binder-not-binder": [Forall, Not, Exists, Not],
}


@pytest.mark.parametrize("kinds", CHAINS.values(), ids=CHAINS.keys())
def test_deep_binder_chains_compare_hash_copy_and_pickle(kinds):
    a, b = _binders(kinds, Eq(x, Zero())), _binders(kinds, Eq(x, Zero()))
    assert a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    twin = pickle.loads(pickle.dumps(a))
    assert type(twin) is type(a) and twin == a and hash(twin) == hash(a)
    assert copy.copy(a) is a and copy.deepcopy(a) is a


def test_deep_binder_chains_that_differ_in_the_innermost_variable_are_unequal():
    a, b = _binders([Forall], Eq(x, Zero())), _binders([Forall], Eq(x, Zero()), "y")
    assert a != b and not a == b


def test_a_literal_under_a_deep_binder_unpickles_with_its_shared_child_shared():
    literal = parse_construction("#b" + "10" * 64)
    twin = pickle.loads(pickle.dumps(_binders([Exists, Not], Eq(x, literal))))
    while type(twin) is not Eq:
        twin = twin.arg if type(twin) is Not else twin.body
    assert twin.rhs == literal and twin.rhs.lhs.lhs is twin.rhs.lhs.rhs


def test_an_int_past_the_decimal_cap_is_written_in_hex():
    # repr(int) raises ValueError past Python's decimal conversion cap
    # (4,300 digits by default); a record writes such an int in hex and
    # keeps the decimal text of every int the cap allows.
    def written(v):
        try:
            return str(v)
        except ValueError:
            return hex(v)

    for big in (10 ** 4299, 10 ** 5000, -(10 ** 5000)):
        assert repr(LinearTerm.make({"x": 1}, big)) == (
            f"LinearTerm(coeffs=(('x', 1),), const={written(big)})")
        assert repr(LinearTerm.make({"x": big, "y": 2}, 3)) == (
            f"LinearTerm(coeffs=(('x', {written(big)}), ('y', 2)), const=3)")
        assert repr(LinearTerm.make({"x": big}, 3)) == (
            f"LinearTerm(coeffs=(('x', {written(big)}),), const=3)")
