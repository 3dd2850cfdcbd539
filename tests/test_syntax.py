import random
import sys
import threading
import time

import pytest

from biforge.binum import BinNum, to_construction
from biforge.errors import NotAnAbstraction, SortError
from biforge.presburger import linearize
from biforge.recognizers import LangLevel, is_fo
from biforge.semantics import Environment, eval_bool, eval_nat, Bounded
from biforge.sexpr import to_sexpr
import biforge.syntax as syntax
from biforge.syntax import (
    Abs, And, Eq, Exists, FF, Forall, Implies, Not, Or, Plus, Sort, Succ, TT,
    Times, Var, Zero, _BINARIES, _BINDERS, _UNARIES, _expect, _fold, _on_big_stack, abs_body,
    alpha_equal, bnat, fresh_name, free_vars, is_abs, is_closed, quote_unary,
    sort_of, substitute,
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


def _bottom(n):
    """The thread and the recursion limit ``n`` calls down."""
    return (threading.current_thread(), sys.getrecursionlimit()) if n == 0 else _bottom(n - 1)


def test_a_retry_on_the_big_stack_restores_the_limit_and_the_stack_size(monkeypatch):
    monkeypatch.setattr(syntax, "_DEEP_LIMIT", 20_000)
    settings = sys.getrecursionlimit(), threading.stack_size()
    assert _on_big_stack(_bottom, 10) == (threading.current_thread(), settings[0])
    thread, limit = _on_big_stack(_bottom, 10_000)
    assert thread is not threading.current_thread() and limit == 20_000
    assert (sys.getrecursionlimit(), threading.stack_size()) == settings
    with pytest.raises(RecursionError):
        _on_big_stack(_bottom, 30_000)
    assert (sys.getrecursionlimit(), threading.stack_size()) == settings


def test_a_boundary_on_the_deep_thread_raises_without_a_second_thread():
    main, calls = threading.current_thread(), []

    def fail():
        calls.append(threading.current_thread())
        raise RecursionError("too deep")

    def outer():
        if threading.current_thread() is main:
            raise RecursionError  # the first try: retried on the deep thread
        return _on_big_stack(fail)

    with pytest.raises(RecursionError, match="too deep"):
        _on_big_stack(outer)
    assert len(calls) == 1 and calls[0] is not main


def test_a_boundary_inside_another_first_try_leaves_the_retry_to_it():
    main, calls = threading.current_thread(), []

    def inner():
        if threading.current_thread() is main:
            raise RecursionError
        return "deep"

    def outer():
        calls.append(threading.current_thread())
        return _on_big_stack(inner)

    assert _on_big_stack(outer) == "deep"
    assert len(calls) == 2 and calls[0] is main and calls[1] is not main


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


# The earlier substitution and alpha-equivalence walkers, which matched
# on node shape and recursed by hand, kept as the references that
# ``substitute`` and ``alpha_equal`` must agree with.
def _reference_climb(c, base, step):
    spine = []
    while type(c) in _UNARIES:
        spine.append(c)
        c = c.arg
    a = base(c)
    for u in reversed(spine):
        a = step(u, a)
    return a


def reference_substitute(c, v, t):
    _expect(sort_of(t), Sort.NAT, "substitute")
    return _reference_subst(c, v, t, free_vars(t))


def _reference_subst(c, v, t, fv_t):
    match c:
        case Var(w):
            return t if w == v else c
        case Zero() | TT() | FF():
            return c
        case Succ() | Not():
            return _reference_climb(
                c, lambda a: _reference_subst(a, v, t, fv_t), lambda u, a: type(u)(a))
        case Plus(l, r) | Times(l, r) | And(l, r) | Or(l, r) | Implies(l, r) | Eq(l, r):
            left = _reference_subst(l, v, t, fv_t)
            return type(c)(left, left if r is l else _reference_subst(r, v, t, fv_t))
        case Forall(w, b) | Exists(w, b) | Abs(w, b):
            ctor = type(c)
            if w == v:
                return c
            if w in fv_t and v in free_vars(b):
                w2 = fresh_name(w, free_vars(b) | fv_t | {v})
                b = _reference_subst(b, w, Var(w2), frozenset((w2,)))
                w = w2
            return ctor(w, _reference_subst(b, v, t, fv_t))
    raise TypeError(f"not a construction: {c!r}")


def reference_alpha_equal(a, b):
    return _reference_alpha(a, b, {}, {}, 0)


def _reference_alpha(a, b, env_a, env_b, depth):
    while type(a) in _UNARIES and type(b) is type(a):
        a, b = a.arg, b.arg
    if type(a) is not type(b):
        return False
    match a:
        case Var(v):
            return env_a.get(v, v) == env_b.get(b.name, b.name)
        case Zero() | TT() | FF():
            return True
        case Plus(l, r) | Times(l, r) | And(l, r) | Or(l, r) | Implies(l, r) | Eq(l, r):
            return _reference_alpha(l, b.lhs, env_a, env_b, depth) and (
                (r is l and b.rhs is b.lhs) or _reference_alpha(r, b.rhs, env_a, env_b, depth))
        case Forall(v, body) | Exists(v, body) | Abs(v, body):
            ea = dict(env_a)
            eb = dict(env_b)
            ea[v] = depth
            eb[b.var] = depth
            return _reference_alpha(body, b.body, ea, eb, depth + 1)
    raise TypeError(f"not a construction: {a!r}")


# The corpus's names: substituting for one of them, with a term that
# mentions others, meets binders of the substituted name (shadowing),
# binders of a name the term mentions (capture), and names that
# ``fresh_name`` has to step past.
NAMES = ("x", "y", "w", "x1", "y1")
CHAIN = 5 * sys.getrecursionlimit()


def _literal(rng):
    value = rng.randrange(1, 256)
    return to_construction(BinNum(value, value.bit_length() + rng.randint(0, 2)))


def _corpus_term(rng, depth):
    r = rng.random()
    if depth <= 0 or r < 0.3:
        t = Var(rng.choice(NAMES)) if rng.random() < 0.7 else Zero()
    elif r < 0.45:
        t = _literal(rng)
    elif r < 0.55:
        a = _corpus_term(rng, depth - 1)
        t = rng.choice((Plus, Times))(a, a)
    else:
        t = rng.choice((Plus, Times))(_corpus_term(rng, depth - 1), _corpus_term(rng, depth - 1))
    for _ in range(rng.randint(0, 2)):
        t = Succ(t)
    return t


def _corpus_formula(rng, depth):
    r = rng.random()
    if depth <= 0 or r < 0.25:
        return Eq(_corpus_term(rng, 2), _corpus_term(rng, 2))
    if r < 0.55:
        return rng.choice((Forall, Exists))(rng.choice(NAMES), _corpus_formula(rng, depth - 1))
    if r < 0.65:
        return Not(_corpus_formula(rng, depth - 1))
    ctor = rng.choice((And, Or, Implies))
    a = _corpus_formula(rng, depth - 1)
    return ctor(a, a if rng.random() < 0.2 else _corpus_formula(rng, depth - 1))


def _deep(wrap, c, n=CHAIN):
    for _ in range(n):
        c = wrap(c)
    return c


def _corpus(seed, n=300):
    """``(c, v, t)`` substitution cases: random formulas and
    abstractions, then chains of successors and negations five times
    the recursion limit, under binders that shadow or capture."""
    rng = random.Random(seed)
    cases = []
    for _ in range(n):
        c = _corpus_formula(rng, 4)
        if rng.random() < 0.2:
            c = Abs(rng.choice(NAMES), c)
        cases.append((c, rng.choice(NAMES), _corpus_term(rng, 2)))
    lit = _literal(rng)
    deep_eq = Eq(_deep(Succ, x), Plus(lit, y))
    cases += [
        (_deep(Succ, x), "x", lit),
        (_deep(Not, deep_eq), "x", Succ(y)),
        (Forall("y", _deep(Not, deep_eq)), "x", Succ(y)),
        (Exists("x", _deep(Not, deep_eq)), "x", Succ(y)),
        (Abs("y", _deep(Succ, Eq(Var("y1"), _deep(Succ, x)), 3)), "x", Plus(y, Var("y1"))),
        (Forall("y", And(_deep(Not, Exists("x", deep_eq)), deep_eq)), "x", y),
    ]
    return cases


def _shape(c):
    """Every node of ``c`` in pre-order, as its type with, at a binary
    node, whether its two children are one object and, at a binder, its
    variable's name; a loop, so chains of any depth are listed."""
    out, stack = [], [c]
    while stack:
        c = stack.pop()
        t = type(c)
        if t in _BINARIES:
            out.append((t, c.lhs is c.rhs))
            stack += [c.lhs] if c.lhs is c.rhs else [c.rhs, c.lhs]
        elif t in _UNARIES:
            out.append((t,))
            stack.append(c.arg)
        elif t in _BINDERS:
            out.append((t, c.var))
            stack.append(c.body)
        else:
            out.append((t, c))
    return out


def _outcome(f, *args):
    try:
        return True, f(*args)
    except Exception as err:  # the exception's type and text are compared
        return False, (type(err), str(err))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_substitute_agrees_with_the_reference(seed):
    def binders(c):
        return [n[1] for n in _shape(c) if n[0] in _BINDERS]

    renamed = 0
    for c, v, t in _corpus(seed):
        want = reference_substitute(c, v, t)
        got = substitute(c, v, t)
        assert got == want
        assert _shape(got) == _shape(want)
        renamed += binders(got) != binders(c)
    assert renamed > 0  # the corpus meets capture


def _plant(c, k, junk):
    """``c`` with its ``k``-th leaf in walk order replaced by ``junk``."""
    seen = []

    def leaf(u):
        seen.append(u)
        return junk if len(seen) == k + 1 else u

    def node(u, a, b=None):
        if type(u) in _BINARIES:  # ``b`` may be the planted None
            return type(u)(a, b)
        return type(u)(u.var, a) if type(u) in _BINDERS else type(u)(a)

    return _fold(leaf, node)(c)


def _binds_over(c, v, junk):
    """Whether ``junk`` lies below a binder of ``v`` in ``c``."""
    stack = [(c, False)]
    while stack:
        c, under = stack.pop()
        if c is junk:
            return under
        t = type(c)
        if t in _BINARIES:
            stack += [(c.lhs, under), (c.rhs, under)]
        elif t in _UNARIES:
            stack.append((c.arg, under))
        elif t in _BINDERS:
            stack.append((c.body, under or c.var == v))
    return False


@pytest.mark.parametrize("junk", [7, "x", None, (Zero(),)], ids=["int", "str", "none", "tuple"])
def test_substitute_rejects_non_constructions_like_the_reference(junk):
    rng = random.Random(17)
    shadowed = 0
    for c, v, t in _corpus(5, 150):
        planted = _plant(c, rng.randrange(8), junk)
        want = _outcome(reference_substitute, planted, v, t)
        assert _outcome(substitute, planted, v, t) == want
        # A binder of ``v`` is returned without a look below it.
        shadowed += want[0] and _binds_over(planted, v, junk)
    assert shadowed > 0
    assert _outcome(substitute, Eq(x, y), "x", junk) == _outcome(
        reference_substitute, Eq(x, y), "x", junk)


@pytest.mark.parametrize("names", [["y"] * 22, [f"y{i}" for i in range(22)]],
                         ids=["one-name", "distinct"])
def test_nested_capturing_binders_are_walked_once(names):
    # Every binder captures: its variable is free in ``t`` and ``x`` is
    # free in its body.  A binder decided after its body was walked would
    # walk the body again once renamed: 2^22 walks here, some tens of
    # seconds, where one walk per binder takes about a millisecond.
    t = Succ(Var(names[0]))
    for w in names[1:]:
        t = Plus(t, Var(w))
    c = Eq(x, x)
    for w in reversed(names):
        c = Forall(w, c)
    start = time.perf_counter()
    got = substitute(c, "x", t)
    assert time.perf_counter() - start < 2
    want = reference_substitute(c, "x", t)
    assert got == want and _shape(got) == _shape(want)
    assert all(n[1] not in names for n in _shape(got) if n[0] is Forall)


def _variant(c):
    """``c`` with every binder renamed by the reference substitution."""
    def node(u, a, b=None):
        if b is not None:
            return type(u)(a, b)
        if type(u) not in _BINDERS:
            return type(u)(a)
        w = u.var + "r"
        return type(u)(w, _reference_subst(a, u.var, Var(w), frozenset((w,))))

    return _fold(lambda u: u, node)(c)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_alpha_equal_agrees_with_the_reference(seed):
    cases = _corpus(seed)
    rng = random.Random(seed)
    verdicts = set()
    for c, v, t in cases:
        for other in (c, _variant(c), substitute(c, v, t), rng.choice(cases)[0]):
            # a node with one shared child against one with two children
            lopsided = (And(c, c), And(c, other))
            for a, b in ((c, other), (other, c), lopsided, lopsided[::-1]):
                want = _outcome(reference_alpha_equal, a, b)
                assert _outcome(alpha_equal, a, b) == want
                verdicts.add(want)
    assert verdicts == {(True, True), (True, False)}
    for junk in (7, "x", None):
        planted = _plant(cases[0][0], 0, junk)
        for a, b in ((planted, planted), (planted, cases[0][0]), (junk, junk)):
            assert _outcome(alpha_equal, a, b) == _outcome(reference_alpha_equal, a, b)
