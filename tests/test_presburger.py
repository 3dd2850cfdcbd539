import pytest

from biforge.errors import LanguageError, SortError
from biforge.presburger import (
    Divides, EqZero, LinearTerm, QAtom, QExists, QFalse, QForall, QTrue,
    TruthValue, _mk_div, bounded_oracle, cooper_eliminate, decide_bt5,
    decide_bt6, decide_bt6_with_bound, eliminate_quantifiers, evaluate,
    linearize, negate, q_and, q_or,
)
from biforge.semantics import Environment
from biforge.syntax import (
    Eq, Exists, Forall, Not, Or, Plus, Succ, Times, Var, Zero, quote_unary,
)
from .conftest import random_sentence

x = Var("x")
y = Var("y")

TT_, FF_ = TruthValue.TRUE, TruthValue.FALSE


def test_linearize_cancellation():
    f = linearize(Eq(Plus(x, Zero()), x))
    assert f == QTrue()  # x - x + 0 folds to the true constant


def test_linearize_succ_chain():
    f = linearize(Eq(Succ(x), Zero()))
    assert f == QAtom(EqZero(LinearTerm.make({"x": 1}, 1)))


def test_linearize_rejects_products():
    with pytest.raises(LanguageError):
        linearize(Eq(Times(x, x), x))


def test_linearize_preserves_quantifiers():
    f = linearize(Forall("x", Exists("y", Eq(x, y))))
    assert isinstance(f, QForall)
    assert isinstance(f.body, QExists)


def test_negate_round_trips(rng):
    for _ in range(100):
        s = random_sentence(rng, 2)
        f = linearize(s)
        assert eliminate_quantifiers(negate(negate(f))) == eliminate_quantifiers(f)


def test_cooper_explicit_witness():
    # exists y with y = x + 1: always true over the naturals
    matrix = QAtom(EqZero(LinearTerm.make({"y": 1, "x": -1}, -1)))
    residue = cooper_eliminate("y", matrix)
    for vx in range(21):
        assert evaluate(residue, {"x": vx})


def test_cooper_no_witness():
    # exists y with y + 1 = 0: impossible over the naturals
    matrix = QAtom(EqZero(LinearTerm.make({"y": 1}, 1)))
    residue = cooper_eliminate("y", matrix)
    assert residue == QFalse()


def test_cooper_agrees_with_oracle_on_single_exists(rng):
    # single existential around a random matrix, compared pointwise
    from .conftest import random_matrix

    for _ in range(200):
        body = random_matrix(rng, ["x", "y"], 2)
        sentence = Exists("y", body)
        residue = cooper_eliminate("y", linearize(body))
        for vx in range(6):
            want = bounded_oracle(sentence, Environment({"x": vx}), 64)
            got = evaluate(residue, {"x": vx})
            assert got == want


def test_divisibility_atoms_survive_nesting():
    # exists y. x = y + y  (x is even), then quantify x universally: false
    even = Exists("y", Eq(x, Plus(y, y)))
    assert decide_bt6(even, Environment({"x": 4})) is TT_
    assert decide_bt6(even, Environment({"x": 5})) is FF_
    assert decide_bt6(Forall("x", Exists("y", Eq(x, Plus(y, y))))) is FF_
    assert decide_bt6(Forall("x", Exists("y", Or(Eq(x, Plus(y, y)), Eq(x, Succ(Plus(y, y))))))) is TT_


def test_decide_bt6_named_sentences():
    a3 = Forall("x", Eq(Plus(x, Zero()), x))
    assert decide_bt6(a3) is TT_
    a7 = Forall("x", Or(Eq(x, Zero()), Exists("y", Eq(Succ(y), x))))
    assert decide_bt6(a7) is TT_
    assert decide_bt6(Exists("y", Eq(Succ(y), Zero()))) is FF_


def test_decide_bt6_gates():
    with pytest.raises(SortError):
        decide_bt6(Succ(Zero()))
    with pytest.raises(LanguageError):
        decide_bt6(Eq(Times(x, x), x), Environment())


def test_decide_bt5():
    assert decide_bt5(Forall("x", Not(Eq(Succ(x), Zero())))) is TT_
    assert decide_bt5(Forall("x", Exists("y", Eq(y, Succ(x))))) is TT_
    assert decide_bt5(Forall("x", Eq(Succ(Succ(x)), x))) is FF_
    with pytest.raises(LanguageError):
        decide_bt5(Forall("x", Eq(Plus(x, Zero()), x)))


def test_bounded_oracle_bound_sensitivity():
    f = Exists("x", Eq(x, quote_unary(7)))
    e = Environment()
    assert bounded_oracle(f, e, 5) is False
    assert bounded_oracle(f, e, 7) is True


def test_environment_locality():
    f = Exists("y", Eq(y, Plus(x, x)))
    a = decide_bt6(f, Environment({"x": 3, "unrelated": 17}))
    b = decide_bt6(f, Environment({"x": 3}))
    assert a == b
    closed = Forall("x", Eq(Plus(x, Zero()), x))
    assert decide_bt6(closed, Environment({"x": 9})) == decide_bt6(closed)


def test_totality_and_duality(rng):
    for _ in range(300):
        s = random_sentence(rng)
        verdict = decide_bt6(s)
        assert verdict in (TT_, FF_)
        assert decide_bt6(Not(s)) is not verdict


def test_oracle_agreement_with_sufficiency_bound(rng):
    checked = 0
    for _ in range(300):
        s = random_sentence(rng)
        verdict, bound = decide_bt6_with_bound(s)
        if bound is None or bound > 64:
            continue
        checked += 1
        assert (verdict is TT_) == bounded_oracle(s, Environment(), bound)
    assert checked >= 100  # the generator must actually exercise the check


def test_elimination_is_identity_on_quantifier_free(rng):
    from .conftest import random_matrix

    for _ in range(100):
        f = linearize(random_matrix(rng, ["x", "y"], 2))
        assert eliminate_quantifiers(f) == f


def test_smart_constructors():
    t = QAtom(EqZero(LinearTerm.make({"x": 1}, 0)))
    assert q_and(QTrue(), t) == t
    assert q_and(QFalse(), t) == QFalse()
    assert q_or(QTrue(), t) == QTrue()
    assert q_or(QFalse(), t) == t


def test_divides_validation():
    with pytest.raises(ValueError):
        Divides(0, LinearTerm.constant(1))


def test_divisibility_atoms_reduce_by_their_gcd():
    # 4 | 2x + 2 is 2 | x + 1; 2 | 2x always holds.
    assert _mk_div(4, LinearTerm.make({"x": 2}, 2)) == QAtom(Divides(2, LinearTerm.make({"x": 1}, 1)))
    assert _mk_div(2, LinearTerm.make({"x": 2}, 0)) == QTrue()


@pytest.mark.parametrize("decide, name, language", [
    (decide_bt5, "decide_bt5", "0 and successor"),
    (decide_bt6, "decide_bt6", "0, successor and +"),
    (decide_bt6_with_bound, "decide_bt6", "0, successor and +"),
])
def test_decide_error_messages(decide, name, language):
    with pytest.raises(SortError) as err:
        decide(Succ(Zero()))
    assert str(err.value) == f"{name} needs a formula"
    with pytest.raises(LanguageError) as err:
        decide(Eq(Times(x, x), x))
    assert str(err.value) == f"{name} needs a first-order formula over {language}"
