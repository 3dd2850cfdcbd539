import pytest

from biforge.errors import ParseError, QuantifierEncountered, SortError
from biforge.semantics import (
    Bounded, Environment, QUANTIFIER_FREE, compile_bool, eval_bool, eval_nat,
    override, parse_environment,
)
from biforge.syntax import (
    And, Eq, Exists, Forall, Implies, Not, Or, Plus, Succ, Times, Var, Zero,
)
from .conftest import random_matrix, random_sentence

x = Var("x")
y = Var("y")


def test_eval_nat_basics():
    e = Environment()
    assert eval_nat(Succ(Succ(Zero())), e) == 2
    e = Environment({"x": 3, "y": 4})
    assert eval_nat(Plus(x, Succ(y)), e) == 8
    assert eval_nat(Plus(x, Succ(y)), e) == eval_nat(Succ(Plus(x, y)), e)
    assert eval_nat(Times(x, y), e) == 12


def test_eval_nat_binary_literal():
    from biforge.sexpr import parse_construction

    # 101 in binary, by positional weights: 1*4 + 0*2 + 1*1
    assert eval_nat(parse_construction("#b101"), Environment()) == 5


def test_eval_nat_rejects_formulas():
    with pytest.raises(SortError):
        eval_nat(Eq(Zero(), Zero()), Environment())


def test_eval_bool_basics():
    e = Environment()
    assert eval_bool(Eq(Zero(), Succ(Zero())), e, QUANTIFIER_FREE) is False
    assert eval_bool(Forall("x", Eq(Plus(x, Zero()), x)), e, Bounded(5)) is True
    assert eval_bool(Exists("y", Eq(Succ(y), Zero())), e, Bounded(100)) is False


def test_quantifier_free_strategy_refuses_binders():
    with pytest.raises(QuantifierEncountered):
        eval_bool(Forall("x", Eq(x, x)), Environment(), QUANTIFIER_FREE)


def test_override():
    e = Environment()
    assert override(e, "x", 3)["x"] == 3
    assert override(override(e, "x", 3), "x", 5)["x"] == 5
    assert override(e, "x", 3)["y"] == 0


def test_environment_literals():
    e = parse_environment("x=3, y=4")
    assert e["x"] == 3 and e["y"] == 4 and e["w"] == 0
    assert parse_environment("")["anything"] == 0
    with pytest.raises(ParseError):
        parse_environment("x=")
    with pytest.raises(ParseError, match="x is bound twice") as twice:
        parse_environment("x=1, y=2, x=3")
    assert twice.value.position == 9
    with pytest.raises(ValueError):
        Environment({"x": -1})


def test_de_morgan(rng):
    for _ in range(500):
        p = random_matrix(rng, ["x", "y"], 2)
        q = random_matrix(rng, ["x", "y"], 2)
        e = Environment({"x": rng.randint(0, 3), "y": rng.randint(0, 3)})
        assert eval_bool(Not(And(p, q)), e) == eval_bool(Or(Not(p), Not(q)), e)


def test_axiom_suite_in_standard_model():
    e = Environment()
    for vx in range(51):
        ex = e.override("x", vx)
        assert eval_bool(Not(Eq(Succ(x), Zero())), ex)
        assert eval_bool(Eq(Plus(x, Zero()), x), ex)
        assert eval_bool(Eq(Times(x, Zero()), Zero()), ex)
        for vy in range(51):
            exy = ex.override("y", vy)
            assert eval_bool(Implies(Eq(Succ(x), Succ(y)), Eq(x, y)), exy)
            assert eval_bool(Eq(Plus(x, Succ(y)), Succ(Plus(x, y))), exy)
            assert eval_bool(Eq(Times(x, Succ(y)), Plus(Times(x, y), x)), exy)


def test_predecessor_axiom_bounded():
    body = Or(Eq(x, Zero()), Exists("y", Eq(Succ(y), x)))
    for vx in range(51):
        assert eval_bool(body, Environment({"x": vx}), Bounded(51))


def test_bound_monotonicity():
    witness_at_7 = Exists("x", Eq(x, Succ(Succ(Succ(Succ(Succ(Succ(Succ(Zero())))))))))
    e = Environment()
    assert not eval_bool(witness_at_7, e, Bounded(5))
    assert eval_bool(witness_at_7, e, Bounded(7))
    for b in range(8, 20):
        assert eval_bool(witness_at_7, e, Bounded(b))
    falsified_at_7 = Forall("x", Not(Eq(x, Succ(Succ(Succ(Succ(Succ(Succ(Succ(Zero()))))))))))
    assert eval_bool(falsified_at_7, e, Bounded(5))
    assert not eval_bool(falsified_at_7, e, Bounded(7))
    for b in range(8, 20):
        assert not eval_bool(falsified_at_7, e, Bounded(b))


def _brute(f, env, bound):
    """Truth of a prenex formula with each quantifier a Python loop over
    0..bound and the matrix compiled quantifier-free."""
    if type(f) in (Forall, Exists):
        verdicts = (_brute(f.body, {**env, f.var: k}, bound) for k in range(bound + 1))
        return all(verdicts) if type(f) is Forall else any(verdicts)
    return compile_bool(f)(dict(env))


def test_bounded_quantifiers_return_bools_and_agree_with_loops(rng):
    # One scan serves both quantifiers and compares the body's verdict
    # with ``is``, which is exact only if every truth function returns a
    # bool object; the verdicts are those of looping over the bound.
    bound = Bounded(3)
    envs = [{}, {"x": 1}, {"x": 3, "y": 2, "w": 0}]
    for _ in range(200):
        sentence = random_sentence(rng)
        verdict = compile_bool(sentence, bound)({})
        assert type(verdict) is bool
        assert verdict == _brute(sentence, {}, 3)
        matrix = random_matrix(rng, ["x", "y", "w"], 3)
        for quantified in (Forall("x", matrix), Exists("y", matrix), Not(Exists("w", matrix)),
                           And(matrix, Forall("y", matrix)), Implies(sentence, matrix),
                           Or(matrix, sentence)):
            holds = compile_bool(quantified, bound)
            for env in envs:
                scope = dict(env)
                assert type(holds(scope)) is bool
                assert scope == env
        for env in envs:
            for q in (Forall, Exists):
                assert compile_bool(q("x", matrix), bound)(dict(env)) == _brute(
                    q("x", matrix), env, 3)
