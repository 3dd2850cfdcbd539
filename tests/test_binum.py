import copy
import itertools
import pickle
import random
import sys
import time

import pytest

from biforge import binum
from biforge.binum import (
    BinDigit, BinNum, binnum, bplus, bplus_rewrite, btimes,
    from_construction, is_bnum, normalize, of_nat, shift, succ_b,
    to_construction, to_nat,
)
from biforge.errors import NotBnum, StuckRewrite
from biforge.presburger import TruthValue, decide_bt6
from biforge.semantics import Environment, eval_nat
from biforge.sexpr import binnum_literal, parse_binnum
from biforge.syntax import Eq, Forall, Plus, Succ, Times, TT, Var, Zero, _Record, substitute

D0, D1 = BinDigit.D0, BinDigit.D1


def all_numerals(max_len):
    for length in range(1, max_len + 1):
        for bits in itertools.product((0, 1), repeat=length):
            yield binnum(bits)


def test_binnum_validation():
    with pytest.raises(ValueError):
        binnum(())
    assert len(binnum([0, 1, 1])) == 3
    for bad in ([2], [-1], ["1"], [1, 0, 2]):
        with pytest.raises(ValueError):
            binnum(bad)


def test_binnum_accepts_what_bindigit_accepts():
    for value in (0, 1, True, False, 1.0, 0.0, BinDigit.D1, "0", None, 0.5):
        try:
            expected = (BinDigit(value),)
        except ValueError:
            with pytest.raises(ValueError):
                binnum([value])
        else:
            got = binnum([value]).digits
            assert got == expected and type(got[0]) is BinDigit


def digits_are_members(n: BinNum) -> bool:
    return all(type(d) is BinDigit for d in n.digits)


def test_a_numeral_needs_a_natural_value_and_room_for_it():
    for value, width in ((-1, 1), (0, 0), (1, 0), (4, 2), (2 ** 2048, 2048)):
        with pytest.raises(ValueError):
            BinNum(value, width)
    assert BinNum(4, 3) == of_nat(4) and BinNum(0, 5) == binnum([0] * 5)


def numerals_of_any_width():
    """A value of up to 2,048 bits in a width from its bit length up to
    2,048 digits, so high zeros included."""
    st = pytest.importorskip("hypothesis").strategies
    values = st.integers(0, 2048).flatmap(lambda k: st.integers(0, 2 ** k - 1))
    return values.flatmap(
        lambda v: st.integers(max(1, v.bit_length()), 2048).map(lambda w: BinNum(v, w)))


def test_value_and_width_agree_with_every_view():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=200, derandomize=True, database=None, deadline=None,
                         suppress_health_check=[hypothesis.HealthCheck.too_slow])
    @hypothesis.given(numerals_of_any_width())
    def check(b):
        digits = b.digits
        assert len(b) == len(digits) == b.width
        assert all(type(d) is BinDigit and d == b.value >> i & 1 for i, d in enumerate(digits))
        assert binnum(digits) == b
        assert from_construction(to_construction(b)) == b
        assert to_nat(b) == b.value
        for twin in (copy.copy(b), copy.deepcopy(b), pickle.loads(pickle.dumps(b))):
            assert type(twin) is BinNum and twin == b and hash(twin) == hash(b)
        assert parse_binnum(binnum_literal(b)) == normalize(b)

    check()


def test_to_nat():
    assert to_nat(binnum([0])) == 0
    assert to_nat(binnum([1])) == 1
    assert to_nat(binnum([0, 1])) == 2


def test_of_nat():
    assert of_nat(0) == binnum([0])
    assert of_nat(1) == binnum([1])
    assert of_nat(6) == binnum([0, 1, 1])
    for n in range(300):
        assert to_nat(of_nat(n)) == n


def test_succ_b():
    assert succ_b(binnum([0])) == binnum([1])
    assert succ_b(binnum([1])) == binnum([0, 1])
    assert succ_b(binnum([1, 1])) == binnum([0, 0, 1])


def test_shift():
    assert shift(binnum([1])) == binnum([0, 1])
    assert shift(binnum([0])) == binnum([0, 0])
    assert to_nat(shift(binnum([1, 1]))) == 6


def test_bplus_anchors():
    assert bplus(binnum([1]), binnum([1])) == binnum([0, 1])
    b = binnum([0, 1, 1])
    assert to_nat(bplus(b, binnum([0]))) == to_nat(b)
    assert to_nat(bplus(of_nat(13), of_nat(29))) == 42


def test_btimes_anchors():
    a = binnum([1, 0, 1])
    assert btimes(a, binnum([0])) == binnum([0])
    assert btimes(a, binnum([1])) == a
    assert to_nat(btimes(of_nat(6), of_nat(7))) == 42


def test_normalize():
    assert normalize(binnum([1, 0])) == binnum([1])
    assert normalize(binnum([0, 0])) == binnum([0])
    assert normalize(binnum([0, 1])) == binnum([0, 1])
    for b in all_numerals(6):
        assert to_nat(normalize(b)) == to_nat(b)
        assert normalize(normalize(b)) == normalize(b)


def test_of_nat_to_nat_is_normalize():
    for b in all_numerals(8):
        assert of_nat(to_nat(b)) == normalize(b)


def test_coherence_small():
    # exhaustive at <= 12 digits lives in the acceptance suite
    for b in all_numerals(8):
        assert to_nat(succ_b(b)) == to_nat(b) + 1
        assert to_nat(shift(b)) == 2 * to_nat(b)


def test_to_construction_anchors():
    zero2 = Plus(Plus(Zero(), Zero()), Zero())
    one2 = Plus(Plus(Zero(), Zero()), Succ(Zero()))
    assert to_construction(binnum([0])) == zero2
    assert to_construction(binnum([1])) == one2
    assert to_construction(binnum([0, 1])) == Plus(Plus(one2, one2), Zero())


def test_is_bnum():
    assert is_bnum(to_construction(binnum([0])))
    assert not is_bnum(Var("x"))
    assert not is_bnum(Zero())
    assert is_bnum(to_construction(of_nat(6)))
    # low digit beyond one breaks the grammar
    two = Succ(Succ(Zero()))
    assert not is_bnum(Plus(Plus(Zero(), Zero()), two))


def test_construction_round_trip():
    assert from_construction(to_construction(of_nat(9))) == of_nat(9)
    with pytest.raises(NotBnum):
        from_construction(TT())
    for b in all_numerals(7):
        assert from_construction(to_construction(b)) == b


def test_to_construction_evaluates_to_value():
    e = Environment()
    for b in all_numerals(7):
        assert eval_nat(to_construction(b), e) == to_nat(b)


def test_rewrite_anchors():
    one = to_construction(binnum([1]))
    two = to_construction(binnum([0, 1]))
    zero = to_construction(binnum([0]))
    assert bplus_rewrite(one, one) == two
    assert bplus_rewrite(two, zero) == two
    with pytest.raises(NotBnum):
        bplus_rewrite(Var("x"), one)


def expected_stuck(a: int, b: int) -> bool:
    """Coverage gap of the literal rule set, derived by hand: rewriting
    strips one low digit from both sides until the left operand is a
    single digit; the remaining uncovered redex is 1 + w with w odd and
    at least 3."""
    if a == 0 or b == 0:
        return False
    k = a.bit_length() - 1
    w = b >> k
    return w >= 3 and w % 2 == 1


def test_rewrite_agrees_with_direct_or_sticks():
    for a in range(32):
        for b in range(32):
            ta = to_construction(of_nat(a))
            tb = to_construction(of_nat(b))
            try:
                result = from_construction(bplus_rewrite(ta, tb))
                stuck = False
                assert to_nat(result) == a + b
            except StuckRewrite:
                stuck = True
            assert stuck == expected_stuck(a, b), (a, b)


def test_rewrite_on_noncanonical_inputs():
    one = to_construction(binnum([1]))
    # non-canonical zero: the one-plus-even rule still covers it
    double_zero = to_construction(binnum([0, 0]))
    assert to_nat(from_construction(bplus_rewrite(one, double_zero))) == 1
    got = from_construction(bplus_rewrite(double_zero, double_zero))
    assert to_nat(got) == 0
    # non-canonical three keeps the same coverage gap as canonical three
    padded_three = to_construction(binnum([1, 1, 0]))
    with pytest.raises(StuckRewrite):
        bplus_rewrite(one, padded_three)


def test_rewrite_of_a_400_bit_sum_is_not_quadratic():
    # With a walk of the high part in every rule guard this took 60-80 ms.
    rng = random.Random(400)
    va = rng.getrandbits(400) | 1 << 399
    vb = rng.getrandbits(400) | 1 << 399
    a, b = to_construction(of_nat(va)), to_construction(of_nat(vb))
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        result = bplus_rewrite(a, b)
        best = min(best, time.perf_counter() - start)
    assert to_nat(from_construction(result)) == va + vb
    assert best < 0.03, f"{best * 1e3:.1f} ms"


def test_rewrite_of_2048_bit_operands_answers_in_linear_time():
    # Every step waits on a list, not on the call stack.
    ones = to_construction(binnum([1] * 2048))
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        result = bplus_rewrite(ones, ones)
        best = min(best, time.perf_counter() - start)
    assert from_construction(result) == binnum([0] + [1] * 2048)
    assert best < 0.25, f"{best * 1e3:.1f} ms"


# The engine as it was when rules returned terms of pending additions
# and digit layers, reduced by recursion; kept to pin the loop to it.

class _Add(_Record):
    __slots__ = ("lhs", "rhs")


class _Digit(_Record):
    __slots__ = ("high", "low")


_Z, _S = Zero(), Succ(Zero())
_REF_ZERO, _REF_ONE, _REF_TWO = (to_construction(binnum(d)) for d in ([0], [1], [0, 1]))


def _reference_one_rule(one_left, d, carry):
    def rule(a, b):
        one, other = (a, b) if one_left else (b, a)
        high = other.lhs.lhs
        if one != _REF_ONE or other.rhs != d or high == _Z:
            return None
        return _Digit(_Add(high, _REF_ONE), _Z) if carry else Plus(Plus(high, high), _S)
    return rule


def _reference_binary_rule(da, db, carry):
    def rule(a, b):
        u, v = a.lhs.lhs, b.lhs.lhs
        if a.rhs != da or b.rhs != db or u == _Z or v == _Z:
            return None
        if carry:
            return _Digit(_Add(_Add(u, v), _REF_ONE), _Z)
        return _Digit(_Add(u, v), _S if da != db else _Z)
    return rule


_REFERENCE_RULES = (
    lambda a, b: a if b == _REF_ZERO else None,
    lambda a, b: b if a == _REF_ZERO else None,
    lambda a, b: _REF_TWO if a == _REF_ONE and b == _REF_ONE else None,
    _reference_one_rule(False, _Z, False),
    _reference_one_rule(False, _S, True),
    _reference_one_rule(True, _Z, False),
    _reference_one_rule(True, _Z, True),
    _reference_binary_rule(_Z, _Z, False),
    _reference_binary_rule(_Z, _S, False),
    _reference_binary_rule(_S, _Z, False),
    _reference_binary_rule(_S, _S, True),
)


def _reference_literal(c):
    return "#b" + "".join(str(int(d)) for d in reversed(from_construction(c).digits))


def _reference_reduce(t):
    match t:
        case _Add(l, r):
            lhs, rhs = _reference_reduce(l), _reference_reduce(r)
            for rule in _REFERENCE_RULES:
                out = rule(lhs, rhs)
                if out is not None:
                    return _reference_reduce(out)
            rendered = f"(bplus {_reference_literal(lhs)} {_reference_literal(rhs)})"
            raise StuckRewrite(_Add(lhs, rhs), rendered)
        case _Digit(h, low):
            high = _reference_reduce(h)
            return Plus(Plus(high, high), low)
    return t


def reference_bplus_rewrite(a, b):
    from_construction(a), from_construction(b)
    result = _reference_reduce(_Add(a, b))
    assert is_bnum(result)
    return result


SIX_DIGIT_TERMS = [to_construction(n) for n in all_numerals(6)]


def test_rewrite_matches_the_recursive_reference_on_all_six_digit_pairs():
    # 126 numerals of 1-6 digits, high zeros included: 15,876 pairs.
    for a in SIX_DIGIT_TERMS:
        for b in SIX_DIGIT_TERMS:
            try:
                expected = reference_bplus_rewrite(a, b)
            except StuckRewrite as err:
                with pytest.raises(StuckRewrite) as stuck:
                    bplus_rewrite(a, b)
                assert stuck.value.rendered == err.rendered
                assert stuck.value.term == Plus(err.term.lhs, err.term.rhs)
            else:
                assert bplus_rewrite(a, b) == expected, (a, b)


def test_rule_census_on_all_six_digit_pairs(monkeypatch):
    # How often each rule fires, in stated order; the shadowed seventh
    # rule never does.
    fired = [0] * len(binum._RULES)

    def counting(i, rule):
        def wrapped(a, b):
            out = rule(a, b)
            fired[i] += out is not None
            return out
        return wrapped

    monkeypatch.setattr(binum, "_RULES", tuple(counting(i, r) for i, r in enumerate(binum._RULES)))
    stuck = 0
    for a in SIX_DIGIT_TERMS:
        for b in SIX_DIGIT_TERMS:
            try:
                bplus_rewrite(a, b)
            except StuckRewrite:
                stuck += 1
    assert fired == [5334, 5865, 3912, 11127, 10998, 1302, 0, 13908, 13908, 13908, 13908]
    assert stuck == 1302


# The engine's rule table, derived apart from it: operand shapes by
# index are (0), (1), [u 0] and [u 1], and the table holds, at
# ``4 * i + j``, the index in ``_RULES`` of the first rule that fires on
# a redex of shapes i and j, or None.

def _term_shape(n: BinNum) -> int:
    return 2 * (len(n) > 1) + n.digits[0]


def _value_shape(n: int) -> int:
    return n if n < 2 else 2 + n % 2


def _predicted_stuck(table, a: int, b: int) -> bool:
    """Whether rewriting ``a + b``, canonical numerals, meets a redex the
    table covers with no rule: the rule it names is followed on values,
    through the redexes of the rule's stated right-hand side, innermost
    first.  Every result of a canonical redex is canonical again."""
    i = table[4 * _value_shape(a) + _value_shape(b)]
    u, v = a >> 1, b >> 1
    if i is None:
        return True
    if i == 4:  # [u 1] + (1) = [u+(1) 0]
        return _predicted_stuck(table, u, 1)
    if i == 6:  # (1) + [u 0] = [u+(1) 0]
        return _predicted_stuck(table, v, 1)
    if i in (7, 8, 9):  # [u d] + [v e] = [u+v d+e]
        return _predicted_stuck(table, u, v)
    if i == 10:  # [u 1] + [v 1] = [(u+v)+(1) 0]
        return _predicted_stuck(table, u, v) or _predicted_stuck(table, u + v, 1)
    return False  # the other rules give the sum at once


def check_first_rule_table(table):
    numerals = list(all_numerals(4))
    first = {}  # shape pair -> the first rules seen on its operand pairs
    for a in numerals:
        for b in numerals:
            ta, tb = to_construction(a), to_construction(b)
            i = next((i for i, rule in enumerate(binum._RULES) if rule(ta, tb) is not None), None)
            first.setdefault(4 * _term_shape(a) + _term_shape(b), set()).add(i)
    assert all(len(seen) == 1 for seen in first.values()), first
    assert tuple(first[k].pop() for k in range(16)) == table
    assert [k for k in range(16) if table[k] is None] == [4 * 1 + 3]  # (1) + [u 1]
    assert 6 not in table  # rule 7, shadowed by rule 6
    predicted = {(a, b) for a in range(64) for b in range(64) if _predicted_stuck(table, a, b)}
    assert predicted == {(a, b) for a in range(64) for b in range(64) if expected_stuck(a, b)}


def test_the_first_rule_table_is_the_stated_order_probed_on_every_operand_shape():
    check_first_rule_table(binum._FIRST_RULE)
    last_first = tuple(
        next((i for i in reversed(range(len(binum._RULES)))
              if binum._RULES[i](a, b) is not None), None)
        for a in binum._SHAPES for b in binum._SHAPES
    )
    with pytest.raises(AssertionError):
        check_first_rule_table(last_first)


# The soundness half: each rule closure the engine runs, run on symbolic
# operands of every shape pair, its output read as ``_reduce`` consumes
# it, and ``output = a + b`` decided for all u and w by the kernel's own
# decision procedure.  Each tuple output's recursive sum has shorter
# operands, so with the coverage table above this is a proof by
# induction on digit count: on numeral operands ``bplus_rewrite`` meets
# ``(1) + [u 1]`` or returns a numeral term whose value is the sum.

def _symbolic(shape: int, high: Var):
    """The numeral term of ``shape``: (0), (1), ``[high 0]`` or ``[high 1]``."""
    if shape < 2:
        return binum._SHAPES[shape]
    return layer(high, Succ(Zero()) if shape == 3 else Zero())


def _read_output(out):
    """A rule's output as the construction ``_reduce`` makes of it: the
    sum ``u + v``, then ``+ (1)`` for each ``(1)`` step and a new layer
    for each digit term."""
    if type(out) is not tuple:
        return out
    acc = Plus(out[0], out[1])
    for step in out[2:]:
        acc = Plus(acc, step) if step is binum._ONE2 else layer(acc, step)
    return acc


def _is_numeral_output(out) -> bool:
    """Whether ``out``, with numeral terms put for u and w, is a numeral
    term, or a tuple of two numeral terms and steps that are ``(1)`` or
    digit terms: then, by induction, the rewrite's result is one."""
    def numeral(c):
        for v, n in (("u", 3), ("w", 2)):
            c = substitute(c, v, to_construction(of_nat(n)))
        return is_bnum(c)

    if type(out) is not tuple:
        return numeral(out)
    steps_ok = all(s is binum._ONE2 or s == Zero() or s == Succ(Zero()) for s in out[2:])
    return numeral(out[0]) and numeral(out[1]) and steps_ok


def rule_verdicts(rules) -> dict:
    """``(rule index, shape i, shape j)`` to the decided truth of the
    rule's output equal to ``a + b`` on operands of shapes i and j, the
    shape pairs read off ``_FIRST_RULE``, for each rule that fires; a
    rule whose output is no numeral term is ``None``."""
    verdicts = {}
    for k in range(len(binum._FIRST_RULE)):
        i, j = divmod(k, 4)
        a, b = _symbolic(i, Var("u")), _symbolic(j, Var("w"))
        for n, rule in enumerate(rules):
            out = rule(a, b)
            if out is None:
                continue
            claim = Forall("u", Forall("w", Eq(_read_output(out), Plus(a, b))))
            verdicts[n, i, j] = decide_bt6(claim) if _is_numeral_output(out) else None
    return verdicts


def check_rules_sound(rules):
    verdicts = rule_verdicts(rules)
    # Rules 1 and 2 fire on four shape pairs each, the others on one;
    # the shadowed rule 7 is false where it would fire: 1 + 2u != 2u + 2.
    assert sorted(n for n, _, _ in verdicts) == [0] * 4 + [1] * 4 + list(range(2, 11))
    assert {key: v for key, v in verdicts.items() if v is not TruthValue.TRUE} == {
        (6, 1, 2): TruthValue.FALSE}
    for k, n in enumerate(binum._FIRST_RULE):
        assert n is None or verdicts[(n, *divmod(k, 4))] is TruthValue.TRUE


def test_the_rules_are_sound_by_the_kernels_own_decision():
    check_rules_sound(binum._RULES)
    # A planted wrong rule 9, [u 0] + [v 1] = [u+v 0], is caught ...
    wrong = list(binum._RULES)
    wrong[8] = lambda a, b: None if (out := binum._RULES[8](a, b)) is None else (*out[:2], Zero())
    assert rule_verdicts(wrong)[8, 2, 3] is TruthValue.FALSE
    with pytest.raises(AssertionError):
        check_rules_sound(wrong)
    # ... and so is a rule whose output has the right value but is no
    # numeral term, which bplus_rewrite no longer reads again: u + (0)
    # left as the redex itself.
    unreduced = list(binum._RULES)
    unreduced[0] = lambda a, b: None if binum._RULES[0](a, b) is None else Plus(a, b)
    assert rule_verdicts(unreduced)[0, 2, 0] is None
    with pytest.raises(AssertionError):
        check_rules_sound(unreduced)


def test_rewrite_matches_the_recursive_reference_beyond_six_digits():
    # 300 pairs of 7-128 digits, high zeros included.
    rng = random.Random(128)
    stuck = 0
    for _ in range(300):
        a, b = (BinNum(rng.getrandbits(w), w) for w in (rng.randint(7, 128), rng.randint(7, 128)))
        ta, tb = to_construction(a), to_construction(b)
        try:
            expected = reference_bplus_rewrite(ta, tb)
        except StuckRewrite as err:
            stuck += 1
            with pytest.raises(StuckRewrite) as info:
                bplus_rewrite(ta, tb)
            assert info.value.rendered == err.rendered
            assert info.value.term == Plus(err.term.lhs, err.term.rhs)
        else:
            assert bplus_rewrite(ta, tb) == expected, (a, b)
    assert 0 < stuck < 300, stuck


def test_meaning_formulas_small():
    for a in all_numerals(5):
        va = to_nat(a)
        for b in all_numerals(5):
            vb = to_nat(b)
            assert to_nat(bplus(a, b)) == va + vb
            assert to_nat(btimes(a, b)) == va * vb


# The clause-by-clause recursions that define the kernel's results,
# digit tuple for digit tuple.  The kernel computes them with loops.

def ref_succ(d):
    if d[0] == 0:
        return (1,) + d[1:]
    if len(d) == 1:
        return (0, 1)
    return (0,) + ref_succ(d[1:])


def ref_bplus(a, b):
    if a == (0,):
        return b
    if a == (1,):
        return ref_succ(b)
    if len(b) == 1:
        return a if b == (0,) else ref_succ(a)
    low = (0,) + ref_bplus(a[1:], b[1:])
    if a[0] and b[0]:
        return ref_succ(ref_succ(low))
    if a[0] or b[0]:
        return ref_succ(low)
    return low


def ref_btimes(x, y):
    if y == (0,):
        return (0,)
    if y == (1,):
        return x
    if x == (0,):
        return (0,)
    if x == (1,):
        return y
    if x[0] == 0:
        return (0,) + ref_btimes(x[1:], y)
    return ref_bplus((0,) + ref_btimes(x[1:], y), y)


def test_kernel_matches_recursion_exhaustively():
    numerals = list(all_numerals(7))
    for a in numerals:
        got = succ_b(a)
        assert got.digits == ref_succ(a.digits) and digits_are_members(got)
        for b in numerals:
            got = bplus(a, b)
            assert got.digits == ref_bplus(a.digits, b.digits), (a, b)
            assert digits_are_members(got)
            got = btimes(a, b)
            assert got.digits == ref_btimes(a.digits, b.digits), (a, b)
            assert digits_are_members(got)


def random_numeral(rng, max_len):
    return binnum(rng.randrange(2) for _ in range(rng.randint(1, max_len)))


def test_kernel_matches_recursion_on_random_long_numerals():
    rng = random.Random(20240)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 5000))
    try:
        for _ in range(60):
            a, b = random_numeral(rng, 400), random_numeral(rng, 400)
            got = bplus(a, b)
            assert got.digits == ref_bplus(a.digits, b.digits)
            assert digits_are_members(got)
            a, b = random_numeral(rng, 200), random_numeral(rng, 200)
            got = btimes(a, b)
            assert got.digits == ref_btimes(a.digits, b.digits)
            assert digits_are_members(got)
    finally:
        sys.setrecursionlimit(limit)


def test_kernel_is_not_bounded_by_the_recursion_limit():
    rng = random.Random(7)
    a = binnum([1] * 10_000)
    b = binnum([rng.randrange(2) for _ in range(9_999)] + [1])
    assert to_nat(bplus(a, b)) == to_nat(a) + to_nat(b)
    assert to_nat(succ_b(a)) == 2 ** 10_000
    x = binnum([1] * 2_000)
    y = binnum([rng.randrange(2) for _ in range(1_999)] + [1])
    product = btimes(x, y)
    assert to_nat(product) == (2 ** 2_000 - 1) * to_nat(y)
    assert digits_are_members(product)
    assert digits_are_members(of_nat(to_nat(y)))



# The recognizer as it was first written, kept as a reference for the
# single walk: dataclass equality against the digit terms, and a second
# walk to read the digits once the term is recognized.

REF_ZERO, REF_ONE = Zero(), Succ(Zero())


def ref_is_bnum(c):
    while True:
        if not isinstance(c, Plus):
            return False
        inner = c.lhs
        if not isinstance(inner, Plus):
            return False
        v1, v2, w = inner.lhs, inner.rhs, c.rhs
        if v1 is not v2 and v1 != v2:
            return False
        if w != REF_ZERO and w != REF_ONE:
            return False
        if v1 == REF_ZERO:
            return True
        c = v1


def ref_from_construction(c):
    if not ref_is_bnum(c):
        raise NotBnum("not a binary-numeral term")
    digits = []
    node = c
    while True:
        high = node.lhs.lhs
        low = node.rhs
        digits.append(BinDigit.D1 if low == REF_ONE else BinDigit.D0)
        if high == REF_ZERO:
            return binnum(digits)
        node = high


def layer(high, digit):
    return Plus(Plus(high, high), digit)


def near_misses():
    """Terms that are numerals only in part, and numerals built without
    sharing, each also one and two numeral layers down."""
    two = Succ(Succ(Zero()))
    bare = [Zero(), Succ(Zero()), Var("x"), Times(Zero(), Zero())]
    for b in all_numerals(3):
        t = to_construction(b)
        bare += [
            Succ(t),
            # unshared but equal halves
            Plus(Plus(to_construction(b), to_construction(b)), Zero()),
            Plus(Plus(t, Plus(t.lhs, t.rhs)), Succ(Zero())),
            # unequal halves
            Plus(Plus(t, to_construction(shift(b))), Zero()),
            Plus(Plus(t, Zero()), Zero()),
            # a digit that is no digit term
            layer(t, two),
            layer(t, Var("x")),
            layer(t, t),
            # an inner node that is no sum
            Plus(Times(t, t), Zero()),
            Plus(Succ(t), Succ(Zero())),
            Plus(t, Zero()),
        ]
    bare += [layer(Zero(), two), layer(Zero(), Var("x")), Plus(Times(Zero(), Zero()), Zero())]
    for t in bare:
        yield t
        yield layer(t, Zero())
        yield layer(layer(t, Succ(Zero())), Zero())


def test_recognizer_matches_reference():
    terms = [to_construction(b) for b in all_numerals(8)]
    terms += near_misses()
    accepted = 0
    for c in terms:
        verdict = ref_is_bnum(c)
        assert is_bnum(c) == verdict, c
        if verdict:
            accepted += 1
            got = from_construction(c)
            assert got.digits == ref_from_construction(c).digits, c
            assert digits_are_members(got)
        else:
            with pytest.raises(NotBnum):
                from_construction(c)
    assert 510 < accepted < len(terms)


def test_not_bnum_messages_are_bounded():
    # The operand is a DAG of 18 shared layers: printing it as a tree
    # takes megabytes.
    numeral = to_construction(of_nat(2 ** 18 - 1))
    one = to_construction(binnum([1]))
    deep = Plus(Plus(Zero(), Zero()), Succ(Succ(Zero())))
    for _ in range(18):
        deep = layer(deep, Succ(Zero()))
    for call in (
        lambda: from_construction(Succ(numeral)),
        lambda: bplus_rewrite(Succ(numeral), one),
        lambda: bplus_rewrite(one, Succ(numeral)),
        lambda: from_construction(deep),
        lambda: bplus_rewrite(deep, numeral),
    ):
        start = time.perf_counter()
        with pytest.raises(NotBnum) as info:
            call()
        assert time.perf_counter() - start < 0.1
        assert len(str(info.value)) < 200
    assert str(info.value) == "left operand is not a numeral term: Succ node at digit 18"


def test_kernel_at_a_hundred_thousand_digits():
    rng = random.Random(100_000)
    vx = rng.getrandbits(100_000) | 1 << 99_999
    vy = rng.getrandbits(99_999) | 1 << 99_998
    x, y = of_nat(vx), of_nat(vy)
    assert x.digits == tuple(int(ch) for ch in reversed(bin(vx)[2:]))
    assert digits_are_members(x) and len(y) == 99_999
    assert to_nat(x) == vx and to_nat(y) == vy
    padded = binnum(y.digits + (0,) * 1_000)
    assert to_nat(padded) == vy and of_nat(to_nat(padded)) == y
    product = btimes(x, y)
    assert to_nat(product) == vx * vy
    assert len(product) == (vx * vy).bit_length()
    assert digits_are_members(product)
    total = bplus(x, padded)
    assert to_nat(total) == vx + vy and len(total) == len(padded)


# The quote loop, the reader and the rewrite guards skip layers of the
# kernel: the quote stores Plus slots without calling Plus, the reader
# keeps ASCII bits, and a guard tests the split of its operand instead
# of comparing it with the (0)/(1) numeral terms.  These pin each to
# the walk it replaced.

def ref_to_construction(b):
    """The quote as written with ``Plus(...)``, on the kernel's leaves."""
    term = binum._ZERO
    for bit in reversed(b.digits):
        term = Plus(Plus(term, term), binum._ONE if bit else binum._ZERO)
    return term


def test_the_quote_loop_has_no_post_init_to_skip():
    # to_construction builds Plus nodes with object.__new__ and the slot
    # setters; a __post_init__ would run in Plus(...) and not there.
    assert not hasattr(Plus, "__post_init__")


def test_the_quote_equals_a_plus_built_reference():
    rng = random.Random(2048)
    numerals = [*all_numerals(8)]
    numerals += [binnum(rng.randrange(2) for _ in range(rng.randint(1, 2048)))
                 for _ in range(200)]
    for b in numerals:
        # Compared into bools: a failing assert would print the terms,
        # which as trees have 2**len(b) leaves.
        got, want = to_construction(b), ref_to_construction(b)
        same = got == want and pickle.dumps(got) == pickle.dumps(want)
        assert same, b
        node, shared = got, []
        while type(node) is Plus:
            shared.append(type(node.lhs) is Plus and node.lhs.lhs is node.lhs.rhs)
            node = node.lhs.lhs
        assert type(node) is Zero and shared == [True] * len(b), b


def test_one_digit_guards_agree_with_equality():
    for b in all_numerals(8):
        t = to_construction(b)
        verdicts = (binum._is_single(t, Zero), binum._is_single(t, Succ))
        assert verdicts == (t == binum._ZERO2, t == binum._ONE2), b
        digit = binum._split_bnat(t)[1]
        assert digit is b.digits[0], b


def ref_read(c):
    """The reader that kept a list of digit members."""
    digits = []
    while True:
        if not isinstance(c, Plus):
            return digits, c
        inner = c.lhs
        if not isinstance(inner, Plus):
            return digits, inner
        v1, v2, w = inner.lhs, inner.rhs, c.rhs
        if v1 is not v2 and v1 != v2:
            return digits, inner
        if type(w) is Zero:
            digits.append(D0)
        elif type(w) is Succ and type(w.arg) is Zero:
            digits.append(D1)
        else:
            return digits, w
        if type(v1) is Zero:
            return digits, None
        c = v1


def ref_not_bnum_text(c, what):
    digits, stop = ref_read(c)
    return None if stop is None else f"{what}: {type(stop).__name__} node at digit {len(digits)}"


def planted_breaks(bits):
    """For each layer of the numeral term of ``bits`` (most-significant
    first), the term with that layer replaced by a near miss."""
    plants = {
        "outer node no sum": lambda v, w: Times(Plus(v, v), w),
        "inner node no sum": lambda v, w: Plus(Times(v, v), w),
        "unequal halves": lambda v, w: Plus(Plus(v, Plus(Plus(v, v), w)), w),
        "equal unshared halves": lambda v, w: Plus(Plus(v, unshared_twin(v)), w),
        "bad digit term": lambda v, w: Plus(Plus(v, v), Succ(Succ(w))),
        "digit term a variable": lambda v, w: Plus(Plus(v, v), Var("x")),
    }
    for name, plant in plants.items():
        for at in range(len(bits)):
            term = Zero()
            for i, bit in enumerate(bits):
                w = Succ(Zero()) if bit == "1" else Zero()
                term = plant(term, w) if i == at else Plus(Plus(term, term), w)
            yield f"{name} at {at}", term


def unshared_twin(c):
    """A numeral term equal to ``c`` (or zero) that is another object."""
    return Zero() if type(c) is Zero else ref_to_construction(from_construction(c))


def test_a_break_at_any_layer_raises_the_reference_text():
    rng = random.Random(64)
    bits = "1" + "".join(rng.choice("01") for _ in range(63))
    value = int(bits, 2)
    partner = to_construction(of_nat(value ^ (1 << 62)))
    accepted = 0
    for name, c in planted_breaks(bits):
        text = ref_not_bnum_text(c, "not a binary-numeral term")
        recognized = is_bnum(c)
        assert recognized == (text is None), name
        if text is None:
            accepted += 1
            assert from_construction(c) == of_nat(value), name
            total = from_construction(bplus_rewrite(c, partner))
            assert to_nat(total) == value + (value ^ (1 << 62)), name
            continue
        with pytest.raises(NotBnum) as info:
            from_construction(c)
        assert str(info.value) == text, name
        for left, right, what in ((c, partner, "left"), (partner, c, "right")):
            with pytest.raises(NotBnum) as info:
                bplus_rewrite(left, right)
            assert str(info.value) == ref_not_bnum_text(
                c, f"{what} operand is not a numeral term"), name
    assert accepted == 64
