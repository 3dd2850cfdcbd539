"""Walks over shared numeral layers.

A ``#b`` literal and ``to_construction`` build each ``(v + v) + d``
layer with one object for both halves, so a k-bit numeral has about 3k
distinct nodes but about 3 * 2^k tree positions.  Every walker visits a
shared child once; these tests pin the cost, the values, and that
rebuilding walkers keep the halves shared.  Most walkers are callbacks
of one post-order fold; property tests check them on generated trees of
all fifteen node kinds, and the last tests pin which of two faults in
one input a post-order walk reports.
"""

import random
import time

import pytest

from biforge import (
    FF, TT, Abs, And, Environment, Eq, Exists, Forall, Implies, LangLevel,
    LanguageError, Not, Or, Plus, Sort, SortError, Succ, Times, TruthValue,
    Var, Zero, alpha_equal, decide_bt6, eval_nat, free_vars, is_fo,
    parse_construction, sort_of, substitute, to_sexpr, translate,
)

SWAP = (("+", "*"), ("*", "+"))


def literal(bits: str):
    return parse_construction("#b" + bits)


def control(bits: str, base=None):
    """The same layers as ``literal(bits)``, but every pair of equal
    halves is two distinct objects: a tree with no sharing."""
    if not bits:
        return Zero() if base is None else base
    digit = Succ(Zero()) if bits[-1] == "1" else Zero()
    return Plus(Plus(control(bits[:-1], base), control(bits[:-1], base)), digit)


def shared_over(bits: str, base):
    """Shared layers over an arbitrary base term instead of zero."""
    term = base
    for b in bits:
        term = Plus(Plus(term, term), Succ(Zero()) if b == "1" else Zero())
    return term


def layers(c):
    """The ``(v + v)`` node of every layer, from the top down; after
    ``translate`` with ``SWAP`` the layers are products."""
    found = []
    while isinstance(c, (Plus, Times)) and isinstance(c.lhs, (Plus, Times)):
        found.append(c.lhs)
        c = c.lhs.lhs
    return found


def walks(c):
    """Every walker once on ``c``, by name."""
    return {
        "sort_of": lambda: sort_of(c),
        "is_fo": lambda: is_fo(LangLevel.L2, c),
        "free_vars": lambda: free_vars(c),
        "eval_nat": lambda: eval_nat(c, Environment()),
        "alpha_equal": lambda: alpha_equal(c, c),
        "substitute": lambda: substitute(c, "x", Zero()),
        "translate": lambda: translate(c, SWAP),
        "decide_bt6": lambda: decide_bt6(Eq(c, c)),
    }


@pytest.mark.parametrize("name", sorted(walks(Zero())))
def test_walker_is_linear_on_a_16_bit_literal(name):
    walk = walks(literal("1" * 16))[name]
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        walk()
        best = min(best, time.perf_counter() - start)
    # A tree walk of the 2^16-leaf expansion takes 0.1-5 s.
    assert best < 0.05, f"{name} took {best * 1e3:.1f} ms"


@pytest.mark.parametrize("bits", ["1" * 200, "10" * 100, "1" + "0" * 199])
def test_walkers_at_200_bits_give_the_right_values(bits):
    c = literal(bits)
    value = int(bits, 2)
    assert sort_of(c) is Sort.NAT
    assert is_fo(LangLevel.L2, c)
    assert not is_fo(LangLevel.L1, c)
    assert free_vars(c) == frozenset()
    assert eval_nat(c, Environment()) == value
    assert alpha_equal(c, c)
    assert decide_bt6(Eq(c, c)) is TruthValue.TRUE
    assert decide_bt6(Eq(c, Succ(c))) is TruthValue.FALSE


def test_walkers_over_a_variable_at_200_bits():
    bits = "1101" * 50
    c = shared_over(bits, Var("x"))
    assert free_vars(c) == {"x"}
    assert eval_nat(c, Environment({"x": 3})) == 3 * 2 ** 200 + int(bits, 2)
    grounded = substitute(c, "x", literal("11"))
    assert free_vars(grounded) == frozenset()
    assert eval_nat(grounded, Environment()) == 3 * 2 ** 200 + int(bits, 2)


@pytest.mark.parametrize("bits", ["1011", "11111111", "10000001"])
def test_control_tree_gets_the_same_answers(bits):
    shared, tree = literal(bits), control(bits)
    assert tree == shared
    assert all(node.lhs is not node.rhs for node in layers(tree))
    expected = walks(shared)
    for name, walk in walks(tree).items():
        assert walk() == expected[name](), name
    assert alpha_equal(shared, tree) and alpha_equal(tree, shared)
    assert to_sexpr(tree) == to_sexpr(shared)
    env = Environment({"x": 5})
    over_var = shared_over(bits, Var("x"))
    assert eval_nat(over_var, env) == eval_nat(control(bits, Var("x")), env)
    assert substitute(over_var, "x", Succ(Zero())) == substitute(
        control(bits, Var("x")), "x", Succ(Zero()))


def test_substitute_and_translate_keep_the_halves_shared():
    bits = "1" * 200
    c = shared_over(bits, Var("x"))
    for rebuilt in (
        substitute(c, "x", literal("101")),
        translate(c, SWAP),
        translate(literal(bits), (("+", "+"),)),
    ):
        found = layers(rebuilt)
        assert len(found) >= 200
        assert all(node.lhs is node.rhs for node in found)
    assert eval_nat(substitute(c, "x", Zero()), Environment()) == int(bits, 2)


def test_to_sexpr_of_a_10_bit_literal_is_the_expanded_text():
    bits = "1100101101"
    text = "z"
    for b in bits:
        text = f"(+ (+ {text} {text}) {'(s z)' if b == '1' else 'z'})"
    c = literal(bits)
    assert to_sexpr(c) == text
    assert to_sexpr(control(bits)) == text
    assert parse_construction(text) == c


# ---------------------------------------------------------------------------
# Properties of the folded walkers on generated trees.

NAMES = ("x", "y", "w")
BINARIES = (Plus, Times, And, Or, Implies, Eq)


def constructions():
    """Well-sorted terms, formulas and abstractions, and unsorted trees
    of all fifteen node kinds; some binary nodes have one shared child."""
    st = pytest.importorskip("hypothesis").strategies

    def grow(leaves, unaries, binaries, binders):
        def extend(kids):
            options = [
                st.builds(lambda k, l, r: k(l, r), st.sampled_from(binaries), kids, kids),
                st.builds(lambda k, c: k(c, c), st.sampled_from(binaries), kids),
                st.builds(lambda k, c: k(c), st.sampled_from(unaries), kids),
            ]
            if binders:
                options.append(st.builds(lambda k, v, c: k(v, c), st.sampled_from(binders),
                                         st.sampled_from(NAMES), kids))
            return st.one_of(options)

        return st.recursive(leaves, extend, max_leaves=8)

    variables = st.sampled_from(NAMES).map(Var)
    terms = grow(st.builds(Zero) | variables, (Succ,), (Plus, Times), ())
    atoms = (st.builds(TT) | st.builds(FF) | st.builds(Eq, terms, terms)
             | terms.map(lambda t: Eq(t, t)))
    formulas = grow(atoms, (Not,), (And, Or, Implies), (Forall, Exists))
    unsorted = grow(st.builds(Zero) | st.builds(TT) | st.builds(FF) | variables,
                    (Succ, Not), BINARIES, (Forall, Exists, Abs))
    return st.one_of(terms, formulas, formulas.map(lambda f: Abs("x", f)), unsorted)


def for_all_constructions(check):
    hypothesis = pytest.importorskip("hypothesis")
    # Derandomized, so every run checks the same trees; generation speed
    # depends on the host's load, so it is not a health check here.
    settings = hypothesis.settings(
        max_examples=50, derandomize=True, database=None, deadline=None,
        suppress_health_check=[hypothesis.HealthCheck.too_slow])
    settings(hypothesis.given(constructions())(check))()


def distinct_nodes(c):
    found, stack = {}, [c]
    while stack:
        node = stack.pop()
        if id(node) not in found:
            found[id(node)] = node
            stack += [getattr(node, f) for f in ("arg", "lhs", "rhs", "body") if hasattr(node, f)]
    return list(found.values())


def shared_pairs_kept(a, b, seen=None):
    """``a == b`` node for node, and each binary node of ``a`` whose
    children are one object has the same in ``b``."""
    seen = set() if seen is None else seen
    if (id(a), id(b)) in seen:
        return True
    seen.add((id(a), id(b)))
    if type(a) is not type(b):
        return False
    if type(a) in BINARIES:
        if a.lhs is a.rhs and b.lhs is not b.rhs:
            return False
        return shared_pairs_kept(a.lhs, b.lhs, seen) and shared_pairs_kept(a.rhs, b.rhs, seen)
    for field in ("arg", "body"):
        if hasattr(a, field):
            return shared_pairs_kept(getattr(a, field), getattr(b, field), seen)
    return a == b


def test_to_sexpr_round_trips_through_the_reader():
    def check(c):
        assert parse_construction(to_sexpr(c)) == c

    for_all_constructions(check)


def test_translate_there_and_back_rebuilds_an_equal_shared_tree():
    # SWAP is its own inverse and, unlike an identity map, is not skipped:
    # both translations rebuild, and shared children stay shared in each.
    def check(c):
        assert shared_pairs_kept(c, translate(translate(c, SWAP), SWAP))

    for_all_constructions(check)


def test_substituting_zero_removes_exactly_that_variable():
    def check(c):
        for v in NAMES:
            assert free_vars(substitute(c, v, Zero())) == free_vars(c) - {v}

    for_all_constructions(check)


def test_is_fo_is_monotone_in_the_level_and_rejects_abstractions():
    def check(c):
        accepted = [is_fo(level, c) for level in LangLevel]
        assert accepted == sorted(accepted)
        if any(type(node) is Abs for node in distinct_nodes(c)):
            assert not any(accepted)

    for_all_constructions(check)


def unshared(c):
    """An equal tree built apart: no node object of ``c`` is reused."""
    if type(c) is str:
        return c
    return type(c)(*(unshared(getattr(c, f)) for f in c.__match_args__))


def field_wise_equal(a, b):
    """Equality of records: one class, and equal fields in order."""
    if type(a) is not type(b):
        return False
    if type(a) is str:
        return a == b
    return all(field_wise_equal(getattr(a, f), getattr(b, f)) for f in a.__match_args__)


def test_equality_and_hash_agree_with_field_wise_equality():
    def check(c):
        twin = unshared(c)
        assert twin == c and hash(twin) == hash(c)
        nodes = distinct_nodes(c) + distinct_nodes(twin)
        for a in nodes:
            for b in nodes:
                assert (a == b) is field_wise_equal(a, b)
                assert (a != b) is not (a == b)
                if a == b:
                    assert hash(a) == hash(b)

    for_all_constructions(check)


BITS_2048 = "1" + "".join(random.Random(2048).choice("01") for _ in range(2047))


def test_literals_parsed_apart_compare_and_hash_in_linear_time():
    a, b = literal(BITS_2048), literal(BITS_2048)
    assert a is not b
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        assert a == b
        assert hash(a) == hash(b)
        best = min(best, time.perf_counter() - start)
    # A tree walk of the 2^2048-leaf expansion would never end; a walk
    # that recurses per layer meets the recursion limit and answers on
    # its one big-stack retry.
    assert best < 0.050


@pytest.mark.parametrize("flip", [-1, 0], ids=["low", "high"])
def test_literals_that_differ_in_one_digit_are_unequal(flip):
    bits = list(BITS_2048)
    bits[flip] = "1" if bits[flip] == "0" else "0"
    other = literal("".join(bits))
    assert other != literal(BITS_2048)
    assert not other == literal(BITS_2048)


# ---------------------------------------------------------------------------
# Error precedence.  A post-order walk reports the first fault it meets
# below before one above; an input with one fault reports it as before.

ONE_FAULT = [
    (lambda: sort_of(parse_construction("(+ z (s tt))")), SortError,
     "s needs a nat argument, got bool"),
    (lambda: eval_nat(parse_construction("(+ z tt)"), Environment()), SortError,
     "eval_nat needs a term, got TT"),
    (lambda: eval_nat(parse_construction("(s (not z))"), Environment()), SortError,
     "eval_nat needs a term, got Not"),
    (lambda: translate(parse_construction("(= (s x) z)"), (("S", "+"),)), LanguageError,
     "'S' maps to '+', which has the wrong arity"),
    (lambda: translate(parse_construction("(= (s x) z)"), (("0", "S"),)), LanguageError,
     "'0' maps to 'S', which has the wrong arity"),
]

TWO_FAULTS = [
    # sort_of is not a fold: it checks the left operand's sort before
    # walking the right operand.
    (lambda: sort_of(parse_construction("(+ tt (s tt))")), SortError,
     "+ needs a nat argument, got bool"),
    # The fold meets the leaf tt before the node (and tt ff) above it.
    (lambda: eval_nat(parse_construction("(+ z (and tt ff))"), Environment()), SortError,
     "eval_nat needs a term, got TT"),
    (lambda: eval_nat(parse_construction("(forall x (= x x))"), Environment()), SortError,
     "eval_nat needs a term, got Eq"),
    # The leaf z maps through 0 before the node (s z) maps through S.
    (lambda: translate(parse_construction("(= (s z) z)"), (("S", "+"), ("0", "S"))), LanguageError,
     "'0' maps to 'S', which has the wrong arity"),
]


@pytest.mark.parametrize("call, error, message", ONE_FAULT + TWO_FAULTS)
def test_error_precedence(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
