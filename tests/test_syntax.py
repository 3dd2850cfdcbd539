import pytest

from biforge.errors import NotAnAbstraction, SortError
from biforge.presburger import linearize
from biforge.recognizers import LangLevel, is_fo
from biforge.semantics import Environment, eval_bool, eval_nat, Bounded
from biforge.sexpr import to_sexpr
from biforge.syntax import (
    Abs, And, Eq, Exists, FF, Forall, Implies, Not, Plus, Sort, Succ, TT,
    Var, Zero, abs_body, alpha_equal, bnat, free_vars, is_abs, is_closed,
    quote_unary, sort_of, substitute,
)
from .conftest import random_matrix, random_term

x = Var("x")
y = Var("y")


def test_sort_of_terms_and_formulas():
    assert sort_of(Succ(Zero())) is Sort.NAT
    assert sort_of(Eq(Zero(), Succ(Zero()))) is Sort.BOOL
    assert sort_of(Abs("x", Eq(x, Zero()))) is Sort.ABS_PRED


def test_sort_of_rejects_ill_sorted_children():
    with pytest.raises(SortError):
        sort_of(Succ(TT()))
    with pytest.raises(SortError):
        sort_of(And(Zero(), TT()))
    with pytest.raises(SortError):
        sort_of(Forall("x", Succ(Zero())))
    # abstractions are not terms or formulas
    with pytest.raises(SortError):
        sort_of(Succ(Abs("x", TT())))


def test_quote_unary():
    assert quote_unary(0) == Zero()
    assert quote_unary(2) == Succ(Succ(Zero()))
    t = quote_unary(5)
    for _ in range(5):
        assert isinstance(t, Succ)
        t = t.arg
    assert t == Zero()


def test_quote_unary_evaluates_to_its_index():
    e = Environment()
    for n in range(65):
        assert eval_nat(quote_unary(n), e) == n


def test_bnat_expansion():
    assert bnat(Zero(), Zero()) == Plus(Plus(Zero(), Zero()), Zero())
    one = Succ(Zero())
    assert bnat(Zero(), one) == Plus(Plus(Zero(), Zero()), one)
    two = bnat(bnat(Zero(), one), Zero())
    assert two == Plus(Plus(Plus(Plus(Zero(), Zero()), one), Plus(Plus(Zero(), Zero()), one)), Zero())
    with pytest.raises(SortError):
        bnat(TT(), Zero())


def test_free_vars():
    assert free_vars(x) == {"x"}
    assert free_vars(Forall("x", Eq(x, Zero()))) == frozenset()
    got = free_vars(Implies(Eq(x, Zero()), Exists("x", Eq(x, y))))
    assert got == {"x", "y"}


def test_is_closed():
    assert is_closed(Forall("x", Eq(x, x)))
    assert not is_closed(Eq(x, Zero()))


def test_abs_queries():
    pred = Abs("x", Eq(x, Zero()))
    assert is_abs(pred)
    assert not is_abs(TT())
    assert abs_body(pred) == Eq(x, Zero())
    with pytest.raises(NotAnAbstraction):
        abs_body(TT())


def test_substitute_basic():
    assert substitute(Eq(x, Zero()), "x", Succ(Zero())) == Eq(Succ(Zero()), Zero())
    closed = Forall("x", Eq(x, x))
    assert substitute(closed, "x", Zero()) == closed
    with pytest.raises(SortError):
        substitute(Eq(x, Zero()), "x", TT())


def test_substitute_renames_to_avoid_capture():
    # replacing x by a term mentioning y must not let the binder grab it
    formula = Exists("y", Eq(y, x))
    result = substitute(formula, "x", Succ(y))
    assert isinstance(result, Exists)
    assert result.var != "y"
    assert result.body == Eq(Var(result.var), Succ(y))
    # check both sides agree semantically over all small environments
    for vx in range(4):
        for vy in range(4):
            e = Environment({"x": vx, "y": vy})
            direct = eval_bool(result, e, Bounded(12))
            expected = eval_bool(formula, e.override("x", eval_nat(Succ(y), e)), Bounded(12))
            assert direct == expected


def test_substitution_preserves_well_sortedness(rng):
    for _ in range(200):
        c = random_matrix(rng, ["x", "y"], 2)
        t = random_term(rng, ["y"], 2)
        sort_before = sort_of(c)
        assert sort_of(substitute(c, "x", t)) is sort_before


def test_free_vars_equation(rng):
    for _ in range(300):
        c = random_matrix(rng, ["x", "y", "w"], 2)
        t = random_term(rng, ["y", "w"], 2)
        got = free_vars(substitute(c, "x", t))
        base = free_vars(c) - {"x"}
        expect = base | free_vars(t) if "x" in free_vars(c) else base
        assert got == expect


def test_substitution_semantics_lemma(rng):
    # quantifier-free formulas: replacing then evaluating agrees with
    # evaluating under the overridden environment
    for _ in range(300):
        c = random_matrix(rng, ["x", "y"], 2)
        t = random_term(rng, ["x", "y"], 1)
        e = Environment({"x": rng.randint(0, 7), "y": rng.randint(0, 7)})
        lhs = eval_bool(substitute(c, "x", t), e)
        rhs = eval_bool(c, e.override("x", eval_nat(t, e)))
        assert lhs == rhs


def test_alpha_equal():
    a = Forall("x", Eq(x, Zero()))
    b = Forall("y", Eq(y, Zero()))
    assert alpha_equal(a, b)
    assert not alpha_equal(a, Forall("y", Eq(Var("w"), Zero())))
    assert alpha_equal(Abs("x", Eq(x, y)), Abs("w", Eq(Var("w"), y)))
    assert not alpha_equal(Abs("x", Eq(x, y)), Abs("w", Eq(Var("w"), Var("v"))))
    # structural equality stays literal
    assert a != b


# Successor and negation chains are walked in a loop, so their depth is
# not bounded by the interpreter's recursion limit.
DEPTH = 10_000


def _nots(c, n=DEPTH):
    for _ in range(n):
        c = Not(c)
    return c


@pytest.mark.parametrize("chain", [
    quote_unary(DEPTH),
    _nots(TT()),
    Eq(x, quote_unary(DEPTH)),
    _nots(Eq(Succ(x), y)),
], ids=["succ", "not", "eq-succ", "not-eq"])
def test_walkers_answer_on_deep_chains(chain):
    sort = sort_of(chain)
    assert is_fo(LangLevel.L1, chain)
    text = to_sexpr(chain)
    assert text.count("(") == text.count(")") >= DEPTH
    grounded = substitute(chain, "x", quote_unary(DEPTH))
    assert free_vars(grounded) == free_vars(chain) - {"x"}
    assert sort_of(grounded) is sort
    if sort is Sort.BOOL:
        linearize(grounded)


def test_deep_chains_report_the_innermost_sort_fault():
    deep_succ = TT()
    for _ in range(DEPTH):
        deep_succ = Succ(deep_succ)
    with pytest.raises(SortError) as err:
        sort_of(deep_succ)
    assert str(err.value) == "s needs a nat argument, got bool"
    with pytest.raises(SortError) as err:
        sort_of(_nots(Zero()))
    assert str(err.value) == "not needs a bool argument, got nat"
    # A chain that changes type faults where it changes.
    with pytest.raises(SortError) as err:
        sort_of(_nots(Succ(quote_unary(DEPTH))))
    assert str(err.value) == "not needs a bool argument, got nat"


@pytest.mark.parametrize("bottom, inner, outer", [
    (Zero(), Not, Succ), (TT(), Succ, Not), (TT(), Not, Succ), (Zero(), Succ, Not),
], ids=["not-over-z", "s-over-tt", "s-over-not", "not-over-s"])
def test_alternating_chains_report_the_innermost_sort_fault(bottom, inner, outer):
    def chain(n):
        c = bottom
        for k in range(n):
            c = (inner if k % 2 == 0 else outer)(c)
        return c

    with pytest.raises(SortError) as short:
        sort_of(chain(3))
    with pytest.raises(SortError) as long:
        sort_of(chain(3000))
    assert str(long.value) == str(short.value)


def test_alpha_equal_walks_deep_chains_in_a_loop():
    n = 5000

    def succs(c):
        for _ in range(n):
            c = Succ(c)
        return c

    assert alpha_equal(quote_unary(n), quote_unary(n))
    assert alpha_equal(_nots(TT(), n), _nots(TT(), n))
    assert not alpha_equal(succs(x), succs(y))
    assert not alpha_equal(_nots(TT(), n), _nots(FF(), n))
    assert alpha_equal(Forall("x", Eq(succs(x), y)), Forall("w", Eq(succs(Var("w")), y)))
