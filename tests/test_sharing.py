"""Walks over shared numeral layers.

A ``#b`` literal and ``to_construction`` build each ``(v + v) + d``
layer with one object for both halves, so a k-bit numeral has about 3k
distinct nodes but about 3 * 2^k tree positions.  Every walker visits a
shared child once; these tests pin the cost, the values, and that
rebuilding walkers keep the halves shared.
"""

import time

import pytest

from biforge import (
    Environment, Eq, LangLevel, Plus, Sort, Succ, Times, TruthValue, Var, Zero,
    alpha_equal, decide_bt6, eval_nat, free_vars, is_fo, parse_construction,
    sort_of, substitute, to_sexpr, translate,
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
