import hashlib
import random
from math import gcd, lcm
from typing import Iterator, Union

import pytest

from biforge import presburger
from biforge.binum import of_nat, to_construction
from biforge.errors import LanguageError, SortError
from biforge.presburger import (
    Divides, Elimination, EqZero, LinearTerm, LtZero, QAnd, QAtom,
    QExists, QFalse, QForall, QFormula, QOr, QTrue, TruthValue, _F, _T, _Table,
    _and, _atom, _compile, _decide, _formula, _gather, _or, _or_all,
    _program, bounded_oracle, cooper_eliminate, decide_bt5, decide_bt6,
    decide_bt6_with_bound, _linearize, eliminate_quantifiers, evaluate,
    linearize, negate, sufficiency_bound,
)
from biforge.recognizers import LangLevel
from biforge.semantics import Environment, eval_bool
from biforge.sexpr import parse_construction
from biforge.syntax import (
    FF, TT, And, Eq, Exists, Forall, Implies, Not, Or, Plus, Succ, Times, Var,
    Zero, _fold, free_vars, quote_unary, substitute,
)
from .conftest import random_matrix, random_sentence
from .test_acceptance import _sentence_corpus

x = Var("x")
y = Var("y")

TT_, FF_ = TruthValue.TRUE, TruthValue.FALSE


# ---------------------------------------------------------------------------
# Linear-term arithmetic and record-level formula helpers that only these
# tests use: the kernel works on programs over an atom table and builds
# records only at its public boundary.

LinearAtom = Union[EqZero, LtZero, Divides]


def constant(k: int) -> LinearTerm:
    return LinearTerm((), k)


def variable(v: str, coeff: int = 1) -> LinearTerm:
    return LinearTerm.make({v: coeff}, 0)


def coeff(t: LinearTerm, v: str) -> int:
    return dict(t.coeffs).get(v, 0)


def drop(t: LinearTerm, v: str) -> LinearTerm:
    return LinearTerm(tuple(p for p in t.coeffs if p[0] != v), t.const)


def add(a: LinearTerm, b: LinearTerm) -> LinearTerm:
    d = dict(a.coeffs)
    for v, c in b.coeffs:
        d[v] = d.get(v, 0) + c
    return LinearTerm.make(d, a.const + b.const)


def scale(t: LinearTerm, k: int) -> LinearTerm:
    if k == 0:
        return LinearTerm((), 0)
    return LinearTerm(tuple((v, c * k) for v, c in t.coeffs), t.const * k)


def sub(a: LinearTerm, b: LinearTerm) -> LinearTerm:
    return add(a, scale(b, -1))


def neg(t: LinearTerm) -> LinearTerm:
    return scale(t, -1)


def shift(t: LinearTerm, k: int) -> LinearTerm:
    return LinearTerm(t.coeffs, t.const + k)


_TRUE, _FALSE = QTrue(), QFalse()


def q_and(l: QFormula, r: QFormula) -> QFormula:
    if type(l) is QFalse or type(r) is QFalse:
        return _FALSE
    if type(l) is QTrue:
        return r
    if type(r) is QTrue:
        return l
    return QAnd(l, r)


def q_or(l: QFormula, r: QFormula) -> QFormula:
    if type(l) is QTrue or type(r) is QTrue:
        return _TRUE
    if type(l) is QFalse:
        return r
    if type(r) is QFalse:
        return l
    return QOr(l, r)


def gather_records(cls, f: QFormula, seen: set, out: list) -> None:
    """The parts of ``f`` under nested ``cls`` nodes, each part not in
    ``seen`` added to it and to ``out``."""
    if type(f) is cls:
        gather_records(cls, f.lhs, seen, out)
        gather_records(cls, f.rhs, seen, out)
    elif f not in seen:
        seen.add(f)
        out.append(f)


def q_or_all(parts: list[QFormula]) -> QFormula:
    """Disjunction with constant folding, flattening and duplicate
    elimination, built balanced."""
    seen: set = set()
    flat: list[QFormula] = []
    for p in parts:
        gather_records(QOr, p, seen, flat)
    kept = [p for p in flat if type(p) is not QFalse]
    if any(type(p) is QTrue for p in kept):
        return _TRUE
    if not kept:
        return _FALSE
    while len(kept) > 1:
        kept = [QOr(*kept[i:i + 2]) if i + 1 < len(kept) else kept[i]
                for i in range(0, len(kept), 2)]
    return kept[0]


def record_atom(d: int, coeffs: tuple, g: int, k: int) -> QFormula:
    """``d | t``, or ``t < 0`` when ``d`` is 0, as a record: folded to a
    constant when ground, else divided by ``gcd(d, g, k)``."""
    if not coeffs:
        return _TRUE if (k % d == 0 if d else k < 0) else _FALSE
    g = gcd(d, g, k)
    if g == d:
        return _TRUE
    if g > 1:
        coeffs, k = tuple((u, c // g) for u, c in coeffs), k // g
    t = LinearTerm(coeffs, k)
    return QAtom(Divides(d // g, t) if d else LtZero(t))


def reference_negate(f: QFormula) -> QFormula:
    """Negation-normal-form complement, walked on records."""
    match f:
        case QAtom(LtZero(t) | EqZero(t) | Divides(_, t) as a):
            cs, k = t.coeffs, t.const
            g = gcd(*(c for _, c in cs))
            if type(a) is Divides:
                return q_or_all([record_atom(a.d, cs, g, k + r) for r in range(1, a.d)])
            minus = tuple((u, -c) for u, c in cs)
            if type(a) is LtZero:
                return record_atom(0, minus, g, -1 - k)
            return q_or(record_atom(0, cs, g, k), record_atom(0, minus, g, -k))
        case QOr(l, r):
            return q_and(reference_negate(l), reference_negate(r))
        case QAnd(l, r):
            return q_or(reference_negate(l), reference_negate(r))
        case QTrue():
            return _FALSE
        case QFalse():
            return _TRUE
        case QForall(v, body):
            return QExists(v, reference_negate(body))
        case QExists(v, body):
            return QForall(v, reference_negate(body))
    raise TypeError(f"not a formula: {f!r}")


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


def test_linearize_keeps_the_truth_of_each_connective_under_negation(rng):
    # Negation swaps and/or and flips the left side of imp; checked on
    # every connective under both polarities against direct evaluation.
    for _ in range(300):
        c = random_matrix(rng, ["x", "y"], 3)
        for f in (c, Not(c)):
            lin = linearize(f)
            for vx in range(3):
                for vy in range(3):
                    env = {"x": vx, "y": vy}
                    assert evaluate(lin, env) == eval_bool(f, Environment(env))


def test_a_wide_disjunction_stays_within_the_recursion_limit():
    # _or_all builds a balanced tree, so each walker over a 3,000-wide
    # residue recurses about a dozen levels deep, not 3,000.
    def parts():
        return [QAtom(EqZero(LinearTerm.make({"x": 1, "y": -1}, -k))) for k in range(3000)]

    table = _Table()
    programs = [_program(p, table) for p in parts()]
    assert programs == list(range(3000))
    program = _or_all([programs[0], _F, *programs, *reversed(programs)])
    flat, depth, leftmost = [], 0, program
    _gather(program, set(), flat)
    while type(leftmost) is tuple:
        leftmost, depth = leftmost[1], depth + 1
    assert flat == programs and depth == 12
    wide, again = _formula(program, table), q_or_all(parts())
    assert wide == again and hash(wide) == hash(again) and repr(wide) == repr(again)
    assert evaluate(wide, {"x": 2999, "y": 0}) and not evaluate(wide, {"x": 0, "y": 1})
    assert evaluate(negate(wide), {"x": 0, "y": 1})
    residue = cooper_eliminate("x", wide)
    assert residue == cooper_eliminate("x", again)
    assert evaluate(residue, {"y": 5}) and not evaluate(residue, {"y": -3000})


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
    # Atoms 0 and 1 are programs of their own, apart from the constants:
    # True == 1 and hash(True) == hash(1), so True and False could not be.
    table = _Table()
    zero, one = table[0, (("x", 1),), 0], table[0, (("y", 1),), 0]
    assert (zero, one) == (0, 1)
    for t in (zero, one):
        assert _and(_T, t) == _and(t, _T) == t and _and(_F, t) is _and(t, _F) is _F
        assert _or(_T, t) is _or(t, _T) is _T and _or(_F, t) == _or(t, _F) == t
        assert _and(t, t) == ("&", t, t) and _or(t, t) == ("|", t, t)
    assert _or_all([one, zero, _F, one]) == ("|", one, zero) and _or_all([one, _T]) is _T
    assert _or_all([zero, _F, one, _T]) is _T and _or_all([_F, _F]) is _F and _or_all([]) is _F
    t = QAtom(EqZero(LinearTerm.make({"x": 1}, 0)))
    assert q_and(QTrue(), t) == t
    assert q_and(QFalse(), t) == QFalse()
    assert q_or(QTrue(), t) == QTrue()
    assert q_or(QFalse(), t) == t


def _mk_lt(t: LinearTerm) -> QFormula:
    return record_atom(0, t.coeffs, gcd(*(c for _, c in t.coeffs)), t.const)


def _mk_div(d: int, t: LinearTerm) -> QFormula:
    return record_atom(d, t.coeffs, gcd(*(c for _, c in t.coeffs)), t.const)


def test_divides_validation():
    with pytest.raises(ValueError):
        Divides(0, constant(1))


def test_divisibility_atoms_reduce_by_their_gcd():
    # 4 | 2x + 2 is 2 | x + 1; 2 | 2x always holds.
    table = _Table()
    assert table.atoms[_atom(4, (("x", 2),), 2, 2, table)] == (2, (("x", 1),), 1)
    assert _atom(2, (("x", 2),), 2, 0, table) is _T and len(table) == 1
    assert _mk_div(4, LinearTerm.make({"x": 2}, 2)) == QAtom(Divides(2, LinearTerm.make({"x": 1}, 1)))
    assert _mk_div(2, LinearTerm.make({"x": 2}, 0)) == QTrue()


def test_the_atom_of_a_key_is_the_record_atom():
    # Each atom the kernel keys, folded or reduced, is the record atom of
    # the same operands, and one key is one index.
    rng = random.Random("atom")
    table = _Table()
    for _ in range(3000):
        cs = tuple((u, c) for u in "wxy" if rng.random() < 0.6 and (c := rng.randint(-6, 6)))
        d, k = rng.choice([0, 0, rng.randint(1, 12)]), rng.randint(-30, 30)
        g = gcd(*(c for _, c in cs))
        p = _atom(d, cs, g, k, table)
        assert _formula(p, table) == record_atom(d, cs, g, k)
        assert p in (_T, _F) or table[table.atoms[p]] == p
    assert len(table) == len(table.atoms) == len(set(table.atoms))


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


# ---------------------------------------------------------------------------
# Reference elimination: the per-branch substitution that
# ``cooper_eliminate`` replaced, rebuilding every atom once per test point
# and period step, over the matrix walks the kernel used before it
# compiled the matrix.  The kernel must give equal residues and records.

def _atoms(f: QFormula) -> Iterator[LinearAtom]:
    match f:
        case QAtom(a):
            yield a
        case QAnd(l, r) | QOr(l, r):
            yield from _atoms(l)
            yield from _atoms(r)
        case QTrue() | QFalse():
            return
        case _:
            raise AssertionError("quantifier inside a matrix")


def _map_atoms(fn, f: QFormula) -> QFormula:
    """``f`` with each atom replaced by ``fn`` of it, folded.  A
    conjunction stops at a false conjunct and a disjunction at a true
    one, so ``fn`` must have no side effects."""
    match f:
        case QAtom(a):
            return fn(a)
        case QAnd(l, r):
            l = _map_atoms(fn, l)
            return l if isinstance(l, QFalse) else q_and(l, _map_atoms(fn, r))
        case QOr(l, r):
            l = _map_atoms(fn, l)
            return l if isinstance(l, QTrue) else q_or(l, _map_atoms(fn, r))
        case QTrue() | QFalse():
            return f
        case _:
            raise AssertionError("quantifier inside a matrix")


def _lower_equality(atom: LinearAtom, v: str) -> QFormula:
    # t = 0 becomes t - 1 < 0 and -t - 1 < 0, but only where v occurs.
    if isinstance(atom, EqZero) and coeff(atom.term, v):
        t = atom.term
        return q_and(_mk_lt(shift(t, -1)), _mk_lt(shift(neg(t), -1)))
    return QAtom(atom)


def _substitute_test(atom, v, b, j):
    c = coeff(atom.term, v)
    if c == 0:
        return QAtom(atom)
    t = add(drop(atom.term, v), scale(shift(b, j), c))
    if isinstance(atom, LtZero):
        return _mk_lt(t)
    if isinstance(atom, Divides):
        return _mk_div(atom.d, t)
    raise AssertionError("equalities must be lowered before substitution")


def _unify_coefficient(atom: LinearAtom, v: str, m: int) -> QFormula:
    c = coeff(atom.term, v)
    # With m == 1 only a divisibility atom with coefficient -1 changes.
    if c == 0 or m == 1 and (c > 0 or isinstance(atom, LtZero)):
        return QAtom(atom)
    k = m // abs(c)
    sign = 1 if c > 0 else -1
    t = add(drop(scale(atom.term, k), v), variable(v, sign))
    if isinstance(atom, LtZero):
        return QAtom(LtZero(t))
    if isinstance(atom, Divides):
        return QAtom(Divides(atom.d * k, t if sign > 0 else neg(t)))
    raise AssertionError("equalities must be lowered before coefficient unification")


def reference_cooper_eliminate(v, matrix, _record=None):
    if isinstance(matrix, QOr):
        flat = []
        gather_records(QOr, matrix, set(), flat)
        return q_or_all([reference_cooper_eliminate(v, part, _record) for part in flat])
    matrix = _map_atoms(lambda a: _lower_equality(a, v), matrix)
    matrix = q_and(matrix, QAtom(LtZero(shift(variable(v, -1), -1))))
    if isinstance(matrix, (QTrue, QFalse)):
        if _record is not None:
            _record.append(Elimination(v, (), 1))
        return matrix
    coefficients = {abs(coeff(a.term, v)) for a in _atoms(matrix) if coeff(a.term, v)}
    m = lcm(*coefficients) if coefficients else 1
    matrix = _map_atoms(lambda a: _unify_coefficient(a, v, m), matrix)
    if m > 1:
        matrix = q_and(matrix, QAtom(Divides(m, variable(v))))
    lowers, moduli = [], [1]
    for atom in _atoms(matrix):
        c = coeff(atom.term, v)
        if c == 0:
            continue
        if isinstance(atom, LtZero) and c == -1:
            lowers.append(drop(atom.term, v))
        elif isinstance(atom, Divides):
            moduli.append(atom.d)
    delta = lcm(*moduli)
    tests = sorted(set(lowers), key=lambda t: (t.coeffs, t.const))
    branches = []
    for b in tests:
        for j in range(1, delta + 1):
            branches.append(_map_atoms(lambda a, _b=b, _j=j: _substitute_test(a, v, _b, _j), matrix))
    if _record is not None:
        _record.append(Elimination(v, tuple(tests), delta))
    return q_or_all(branches)


def prenex_corpus(seed, q, depth, count):
    """``count`` closed prenex sentences of ``q`` quantifiers over x, y,
    w, u with matrices of the given depth."""
    rng = random.Random(seed)
    names = ["x", "y", "w", "u"][:q]
    out = []
    for _ in range(count):
        body = random_matrix(rng, names, depth)
        for v in reversed(names):
            body = (Forall if rng.random() < 0.5 else Exists)(v, body)
        out.append(body)
    return out


def reference_eliminate_quantifiers(f, _record=None):
    """Innermost-first elimination on records, each universal through
    its dual, with the reference elimination and negation."""
    match f:
        case QExists(v, body):
            return reference_cooper_eliminate(v, reference_eliminate_quantifiers(body, _record), _record)
        case QForall(v, body):
            inner = reference_negate(reference_eliminate_quantifiers(body, _record))
            return reference_negate(reference_cooper_eliminate(v, inner, _record))
        case QAnd(l, r):
            return q_and(reference_eliminate_quantifiers(l, _record),
                         reference_eliminate_quantifiers(r, _record))
        case QOr(l, r):
            return q_or(reference_eliminate_quantifiers(l, _record),
                        reference_eliminate_quantifiers(r, _record))
    return f


def _both(f):
    """Residue and records of ``f`` under the kernel, on programs over one
    atom table, and under the reference, on records."""
    records, reference_records = [], []
    residue = eliminate_quantifiers(f, records)
    reference = reference_eliminate_quantifiers(f, reference_records)
    assert repr(residue) == repr(reference)
    return (residue, records), (reference, reference_records)


@pytest.mark.parametrize("seed, q, depth, count", [
    ("decide/q3", 3, 2, 100),
    ("decide/tail", 4, 3, 12),
])
def test_elimination_matches_reference(seed, q, depth, count):
    # Each sentence closed, and with its outer quantifier stripped so the
    # residue keeps a free variable.
    for s in prenex_corpus(seed, q, depth, count):
        for f in (linearize(s), linearize(s.body)):
            got, want = _both(f)
            assert got == want


def test_short_circuit_keeps_every_test_point():
    # exists y. y < 3 and (y = 0 or x < y): the first branch, y = 0, is
    # already true, before the test point x is tried.
    matrix = QAnd(
        QAtom(LtZero(LinearTerm.make({"y": 1}, -3))),
        QOr(QAtom(EqZero(variable("y"))),
            QAtom(LtZero(LinearTerm.make({"x": 1, "y": -1}, 0)))),
    )
    got, want = _both(QExists("y", matrix))
    assert got == want == (QTrue(), [Elimination("y", (constant(-1), variable("x")), 1)])


def _outer_stripped(s, k):
    """``s`` without its ``k`` outermost quantifiers."""
    for _ in range(k):
        s = s.body
    return s


@pytest.mark.parametrize("seed, q, depth, count", [
    ("decide/q3", 3, 2, 100),
    ("decide/tail", 4, 3, 12),
])
def test_elimination_matches_reference_with_free_variables(seed, q, depth, count):
    # Two to q outer quantifiers stripped, so residues keep up to three
    # free variables (the test above strips none or one).
    for s in prenex_corpus(seed, q, depth, count):
        for k in range(2, q + 1):
            got, want = _both(linearize(_outer_stripped(s, k)))
            assert got == want


def _copies(rng, names):
    """Zero, or a variable added to itself up to three times."""
    if rng.random() < 0.2:
        return Zero()
    v = Var(rng.choice(names))
    t = v
    for _ in range(rng.randint(0, 2)):
        t = Plus(v, t)
    return t


def scaled_matrix(rng, names, depth):
    """Quantifier-free level-2 formula whose variables occur with
    coefficients up to six, so eliminations unify coefficients (m > 1)
    and step through periods above 1."""
    r = rng.random()
    if depth <= 0 or r < 0.4:
        sides = []
        for _ in range(2):
            t = _copies(rng, names)
            if rng.random() < 0.3:
                t = Plus(t, _copies(rng, names))
            for _ in range(rng.randint(0, 3)):
                t = Succ(t)
            sides.append(t)
        return Eq(*sides)
    if r < 0.55:
        return Not(scaled_matrix(rng, names, depth - 1))
    return rng.choice([And, Or, Implies])(scaled_matrix(rng, names, depth - 1),
                                          scaled_matrix(rng, names, depth - 1))


@pytest.mark.parametrize("q, count", [(2, 60), (3, 30)])
def test_elimination_matches_reference_on_scaled_coefficients(q, count):
    rng = random.Random(f"scaled/{q}")
    names = ["x", "y", "w"][:q]
    deltas = []
    for _ in range(count):
        body = scaled_matrix(rng, names, 2)
        for v in reversed(names):
            body = (Forall if rng.random() < 0.5 else Exists)(v, body)
        for k in range(q + 1):
            got, want = _both(linearize(_outer_stripped(body, k)))
            assert got == want
            deltas += [r.delta for r in got[1]]
    assert max(deltas) > 1


def test_negated_divisibility_reaches_the_next_elimination():
    # exists x. forall y. M: the forall's residue holds divisibility atoms
    # on x, which negation expands before x is eliminated.
    rng = random.Random("scaled/forall")
    divisible = 0
    for _ in range(40):
        matrix = scaled_matrix(rng, ["x", "y"], 2)
        inner = eliminate_quantifiers(linearize(Forall("y", matrix)))
        divisible += any(isinstance(a, Divides) for a in _atoms(inner))
        got, want = _both(linearize(Exists("x", Forall("y", matrix))))
        assert got == want
    assert divisible > 0


def _lt(coeffs, const):
    return QAtom(LtZero(LinearTerm.make(coeffs, const)))


@pytest.mark.parametrize("matrix", [
    QTrue(),
    QFalse(),
    # No atom on y.
    _lt({"x": 1}, -2),
    # y < 3 and (y = 1 or x < 2): every atom on y is ground, but x is free.
    QAnd(_lt({"y": 1}, -3), QOr(QAtom(EqZero(LinearTerm.make({"y": 1}, -1))),
                                _lt({"x": 1}, -2))),
    # 3y < 7 and 2 | y + 1: m = 3 and delta = 6, every branch ground.
    QAnd(_lt({"y": 3}, -7), QAtom(Divides(2, LinearTerm.make({"y": 1}, 1)))),
])
def test_direct_elimination_matches_reference(matrix):
    records, reference_records = [], []
    got = cooper_eliminate("y", matrix, records)
    want = reference_cooper_eliminate("y", matrix, reference_records)
    assert (got, records) == (want, reference_records)


_Y = _lt({"y": -1, "x": 1}, 0)  # y > x, a lower bound on y


@pytest.mark.parametrize("matrix, tests", [
    (QAnd(QFalse(), _Y), ()),
    (QAnd(_Y, QFalse()), ()),
    # the QOr folds to QTrue, so only y < 5 and v >= 0 bound y
    (QAnd(_lt({"y": 1}, -5), QOr(QTrue(), _Y)), (constant(-1),)),
    (QAnd(_lt({"y": 1}, -5), QOr(_Y, QTrue())), (constant(-1),)),
])
def test_raw_truth_constants_fold_as_in_the_reference(matrix, tests):
    # A hand-built QAnd/QOr may hold QTrue/QFalse, which the smart
    # constructors would have folded: the atoms folded away must leave
    # no test point behind.
    records, reference_records = [], []
    got = cooper_eliminate("y", matrix, records)
    want = reference_cooper_eliminate("y", matrix, reference_records)
    assert (got, records) == (want, reference_records)
    assert records == [Elimination("y", tests, 1)] and sufficiency_bound(records) == 0


def test_the_atom_table_has_one_entry_per_distinct_atom(monkeypatch):
    # The table is keyed by plain tuples, which must tell atoms apart
    # exactly as record equality does.  2y + 1 = 0 is lowered to y < 0
    # and -y - 1 < 0 (each reduced by 2), which an explicit y < 0 and
    # the bound v >= 0 share; 2y + 2 < 0, hand-built unreduced, is not
    # y + 1 < 0, nor is 3 | y + 1.
    matrix = QAnd(QAnd(QAtom(EqZero(LinearTerm.make({"y": 2}, 1))), _lt({"y": 1}, 0)),
                  QAnd(QAnd(_lt({"y": 2}, 2), _lt({"y": 1}, 1)),
                       QAnd(_div(3, {"y": 1}, 1), _lt({"y": -1}, -1))))
    moved = []
    monkeypatch.setattr(presburger, "_place", _recording(presburger._place, moved, 1))
    records, reference_records = [], []
    got = cooper_eliminate("y", matrix, records)
    want = reference_cooper_eliminate("y", matrix, reference_records)
    assert (got, records) == (want, reference_records)
    # One split entry per distinct key, unified to m = 2, and m | 2y last;
    # the elimination is ground, so no rest is merged and every gcd is 0.
    keys = [(0, (("y", 1),), 0), (0, (("y", -1),), -1), (0, (("y", 2),), 2),
            (0, (("y", 1),), 1), (3, (("y", 1),), 1)]
    split = [(0, 1, (), 0, 0), (0, -1, (), -2, 0), (0, 1, (), 2, 0),
             (0, 1, (), 2, 0), (6, 1, (), 2, 0), (2, 1, (), 0, 0)]
    assert moved and all(entries == split for entries in moved)
    # The matrix's six atoms take indices 0-5 in the order read; the
    # lowered equality's halves are atoms 1 and 5, so the walk enters no
    # new key, and the local table maps the five atoms on y to 0-4.
    table, local = _Table(), {}
    program = _compile(_program(matrix, table), "y", local, table)
    assert program == ("&", ("&", ("&", 0, 1), 0), ("&", ("&", 2, 3), ("&", 4, 1)))
    assert local == {1: 0, 5: 1, 2: 2, 3: 3, 4: 4} and len(table) == 6
    assert [table.atoms[i] for i in local] == keys


class _Placed(Exception):
    pass


def test_each_split_entry_is_the_reference_unified_atom(monkeypatch):
    # The entries the candidates of b.coeffs = () are placed with, read
    # off the first _place call, equal the reference's unified atoms,
    # split into divisor, coefficient, the coefficients and constant of
    # the rest, and the gcd of those coefficients: one per distinct atom,
    # in the order read, then the bound v >= 0 if new, then m | m * v
    # when m > 1.  The last atom scales y's coefficient to r times the
    # lcm of the others', so m is every multiple 1-3 of that lcm.
    def stop(program, moved, *_):
        raise _Placed(moved)
    monkeypatch.setattr(presburger, "_place", stop)
    rng = random.Random("entry")
    for _ in range(2000):
        atoms = []
        for n in range(rng.randint(2, 5)):
            c = rng.choice([c for c in range(-6, 7) if c])
            if n and rng.random() < 0.3:
                c = rng.choice([1, -1]) * rng.randint(1, 3) * lcm(*(coeff(a.term, "y") for a in atoms))
            t = LinearTerm.make({"y": c, "x": rng.randint(-6, 6), "w": rng.randint(-6, 6)},
                                rng.randint(-20, 20))
            atoms.append(LtZero(t) if rng.random() < 0.5 else Divides(rng.randint(1, 6), t))
        bound = LtZero(LinearTerm.make({"y": -1}, -1))
        m = lcm(*(coeff(a.term, "y") for a in atoms))
        want = []
        for a in dict.fromkeys([*atoms, bound]):
            u = _unify_coefficient(a, "y", m).atom
            rest = drop(u.term, "y")
            want.append((u.d if type(u) is Divides else 0, coeff(u.term, "y"),
                         rest.coeffs, rest.const, gcd(*(c for _, c in rest.coeffs))))
        if m > 1:
            want.append((m, 1, (), 0, 0))
        matrix = QAtom(atoms[0])
        for a in atoms[1:]:
            matrix = QAnd(matrix, QAtom(a))
        with pytest.raises(_Placed) as placed:
            cooper_eliminate("y", matrix)
        assert placed.value.args[0] == want


# ---------------------------------------------------------------------------
# Reference grounding: the substitution that ``_decide`` replaced, each
# free variable rewritten into its unary numeral before linearization.
# Folding the values into the linear atoms must give the same verdicts,
# elimination records and sufficiency bounds.

def reference_ground(c, e, numeral=quote_unary):
    for v in sorted(free_vars(c)):
        c = substitute(c, v, numeral(e[v]))
    return c


def _decision(c, e, level):
    records = []
    verdict = _decide(c, e, level, records)
    return verdict, records, sufficiency_bound(records)


def _agrees_with_reference(c, e, level=LangLevel.L2):
    got = _decision(c, e, level)
    assert got == _decision(reference_ground(c, e), None, level)
    return got[0]


def _without_sums(c):
    """``c`` with each sum replaced by its left operand: level 1."""
    match c:
        case Plus(l, _):
            return _without_sums(l)
        case Succ(a) | Not(a):
            return type(c)(_without_sums(a))
        case Eq(l, r) | And(l, r) | Or(l, r) | Implies(l, r):
            return type(c)(_without_sums(l), _without_sums(r))
        case Forall(v, b) | Exists(v, b):
            return type(c)(v, _without_sums(b))
    return c


def _open_corpus(seed, q, depth, count):
    """The prenex corpus with 0 to ``q`` outer quantifiers stripped, each
    formula with an environment of values 0-400 for its free variables."""
    rng = random.Random(f"{seed}/values")
    for s in prenex_corpus(seed, q, depth, count):
        for _ in range(q + 1):
            yield s, Environment({v: rng.randint(0, 400) for v in sorted(free_vars(s))})
            s = getattr(s, "body", s)


@pytest.mark.parametrize("level", [LangLevel.L1, LangLevel.L2])
@pytest.mark.parametrize("seed, q, depth, count", [
    ("decide/q3", 3, 2, 100),
    ("decide/tail", 4, 3, 12),
])
def test_decide_matches_reference_grounding(seed, q, depth, count, level):
    for c, e in _open_corpus(seed, q, depth, count):
        _agrees_with_reference(c if level is LangLevel.L2 else _without_sums(c), e, level)


def _succs(t, n):
    for _ in range(n):
        t = Succ(t)
    return t


def open_templates(c, k, r):
    """The open formula shapes of the benchmark's ``decide`` workload,
    over free x and y, each with the closed form of its truth."""
    ys = y
    for _ in range(k - 1):
        ys = Plus(ys, y)
    d = Var("d")
    return [
        (Exists("y", Eq(_succs(x, c), Plus(y, y))), lambda e: (e["x"] + c) % 2 == 0),
        (Exists("y", Eq(x, _succs(ys, r))), lambda e: e["x"] >= r and (e["x"] - r) % k == 0),
        (Exists("d", Eq(y, Plus(x, d))), lambda e: e["x"] <= e["y"]),
        (Exists("d", Eq(y, Plus(_succs(x, c), Succ(d)))), lambda e: e["x"] + c < e["y"]),
        (Forall("d", Not(Eq(Plus(x, Succ(d)), y))), lambda e: e["x"] >= e["y"]),
    ]


@pytest.mark.parametrize("c, k, r", [(0, 2, 0), (1, 3, 2), (5, 5, 1)])
def test_open_templates_match_reference_grounding(c, k, r):
    rng = random.Random(f"open/{c}/{k}/{r}")
    for f, closed_form in open_templates(c, k, r):
        for vx in [*range(0, 400, 23), 400]:
            e = {"x": vx, "y": max(0, vx + rng.randint(-8, 8))}
            verdict = _agrees_with_reference(f, Environment(e))
            assert verdict is TruthValue.of(closed_form(e))


def test_values_decide_like_shared_binary_numerals():
    # A second route: each free variable replaced by the #b construction
    # of its value, a shared (v + v) + d tree, and the sentence decided.
    rng = random.Random("decide/binary")
    formulas = [f for f, _ in open_templates(3, 4, 1)]
    formulas += [c for c, _ in _open_corpus("decide/q3", 3, 2, 20) if free_vars(c)]
    for f in formulas:
        for bound in (400, 10**6, 10**12):
            e = {v: rng.randint(0, bound) for v in sorted(free_vars(f))}
            binary = reference_ground(f, e, lambda n: to_construction(of_nat(n)))
            assert _decision(f, Environment(e), LangLevel.L2) == _decision(binary, None, LangLevel.L2)


def test_a_binder_hides_the_value_of_its_variable():
    # x = 2 and (exists x. x = 3): the value of x stops at the binder.
    c = And(Eq(x, _succs(Zero(), 2)), Exists("x", Eq(x, _succs(Zero(), 3))))
    assert _agrees_with_reference(c, Environment({"x": 2})) is TruthValue.TRUE
    for c, e in _open_corpus("decide/q3", 3, 2, 30):
        for v in free_vars(c):
            _agrees_with_reference(And(c, Forall(v, c)), e)


def _by_numeral(c, e):
    """``c`` grounded under ``e``: unary numerals for small values, the
    shared ``#b`` construction for large ones."""
    if max(e.values(), default=0) < 1000:
        return reference_ground(c, e)
    return reference_ground(c, e, lambda n: to_construction(of_nat(n)))


@pytest.mark.parametrize("text", [
    "(and (= x (s z)) (exists x (= x (s (s z)))))",
    "(exists y (and (= x (+ y y)) (forall x (= x x))))",
    "(or (exists x (= (+ x x) y)) (= x (+ y (s z))))",
    "(forall y (imp (= y x) (exists x (= (+ x x) (s y)))))",
    "(and (= (+ x y) (s (s z))) (forall y (exists x (or (= (+ x x) y) (= (+ x x) (s y))))))",
    "(exists x (and (= x y) (exists y (= (s x) y))))",
])
def test_a_name_free_and_bound_takes_its_value_only_where_free(text):
    c = parse_construction(text)
    for n in (0, 1, 2, 5, 10**9):
        for k in (0, 3):
            e = {v: n + i * k for i, v in enumerate(sorted(free_vars(c)))}
            got = _decision(c, Environment(e), LangLevel.L2)
            assert got == _decision(_by_numeral(c, e), None, LangLevel.L2)


def _rebinding_formula(rng, depth):
    """Level-2 formula over x, y and w with binders at any depth, so one
    name can be free in one place and bound in another."""
    if depth <= 0 or rng.random() < 0.3:
        return random_matrix(rng, ["x", "y", "w"], 1)
    if rng.random() < 0.4:
        return rng.choice([Forall, Exists])(rng.choice("xyw"), _rebinding_formula(rng, depth - 1))
    return rng.choice([And, Or, Implies])(_rebinding_formula(rng, depth - 1),
                                          _rebinding_formula(rng, depth - 1))


def _binders(c):
    """The names bound anywhere in ``c``."""
    match c:
        case Forall(v, b) | Exists(v, b):
            yield v
            yield from _binders(b)
        case Not(a):
            yield from _binders(a)
        case And(l, r) | Or(l, r) | Implies(l, r):
            yield from _binders(l)
            yield from _binders(r)


def test_random_rebinding_matches_reference_grounding():
    rng = random.Random("decide/rebinding")
    free_and_bound = 0
    for _ in range(300):
        c = _rebinding_formula(rng, 3)
        e = {v: rng.choice([0, rng.randint(1, 9), 10**9]) for v in sorted(free_vars(c))}
        got = _decision(c, Environment(e), LangLevel.L2)
        assert got == _decision(_by_numeral(c, e), None, LangLevel.L2)
        free_and_bound += any(v in e for v in _binders(c))
    assert free_and_bound > 30


# ---------------------------------------------------------------------------
# The decision core against the record path: ``_decide`` eliminates on
# programs over one atom table and reads its verdict off the constant
# residue; the reference builds the grounded linear form as records,
# eliminates on records and evaluates.

def reference_decide(c, e, records):
    table = _Table()
    linear = _formula(_linearize(c, False, e, (), table), table)
    return TruthValue.of(evaluate(reference_eliminate_quantifiers(linear, records), {}))


def _closed_corpus(count):
    return ((s, Environment()) for s in _sentence_corpus(count))


@pytest.mark.parametrize("corpus", [
    lambda: _closed_corpus(300),  # criterion 5's first 300 sentences
    lambda: _open_corpus("decide/q3", 3, 2, 300),
    lambda: _open_corpus("decide/tail", 4, 3, 12),
], ids=["criterion-5", "decide/q3", "decide/tail"])
def test_int_coded_decisions_match_the_record_reference(corpus):
    # Verdicts, records and bounds, each sentence closed and with its
    # outer quantifiers stripped in turn, free variables valued.
    for c, e in corpus():
        records, reference_records = [], []
        verdict = _decide(c, e, LangLevel.L2, records)
        assert verdict is reference_decide(c, e, reference_records)
        assert records == reference_records
        assert sufficiency_bound(records) == sufficiency_bound(reference_records)


# ---------------------------------------------------------------------------
# Reference linearization: the per-node fold that ``_difference``
# replaced, one ``LinearTerm`` per node of each side, and the values of an
# environment folded into the difference afterwards.  The one walk must
# give equal terms, and ``_linearize`` equal formulas.

reference_linear_of_term = _fold(
    lambda c: variable(c.name) if type(c) is Var else constant(0),
    lambda c, a, b=None: shift(a, 1) if b is None else add(a, b),
)


def reference_difference(l, r, env, bound):
    t = sub(reference_linear_of_term(l), reference_linear_of_term(r))
    if env is not None:
        t = LinearTerm(tuple(p for p in t.coeffs if p[0] in bound),
                       t.const + sum(k * env[v] for v, k in t.coeffs if v not in bound))
    return t


def _linearized_both(c, env, monkeypatch):
    def linear():
        table = _Table()
        return _formula(presburger._linearize(c, False, env, (), table), table)

    got = linear()
    with monkeypatch.context() as m:
        m.setattr(presburger, "_difference", reference_difference)
        want = linear()
    return got, want


def _doubled(t, n):
    """``t`` added to itself ``n`` times over, each sum of one shared child."""
    for _ in range(n):
        t = Plus(t, t)
    return t


def test_linearize_walk_matches_the_fold_reference(monkeypatch):
    rng = random.Random("linearize/walk")
    big = [0, 1, 10**9, 10**9 + 7, 10**30, 2**200]
    for _ in range(1500):
        c = random_matrix(rng, ["x", "y", "w"], 3)
        if rng.random() < 0.5:
            c = _rebinding_formula(rng, 3)
        for env in (None, Environment({v: rng.choice(big) for v in "xyw"})):
            got, want = _linearized_both(c, env, monkeypatch)
            assert got == want


@pytest.mark.parametrize("l, r", [
    # shared (v + v) children, so the weight doubles at each layer
    (_doubled(x, 60), _doubled(Plus(y, Succ(x)), 40)),
    (to_construction(of_nat(10**40 + 12345)), Plus(_doubled(Succ(y), 30), x)),
    (Plus(x, to_construction(of_nat(2**100 - 1))), _doubled(Plus(x, y), 3)),
    # successor chains 10,000 deep, on either side and under a sum
    (_succs(x, 10_000), _succs(Zero(), 10_000)),
    (Plus(_succs(y, 10_000), _succs(x, 3)), _succs(Plus(x, x), 10_000)),
])
def test_difference_on_shared_children_and_deep_chains(l, r):
    for env, bound in [(None, ()), (Environment({"x": 10**9, "y": 10**12 + 1}), ()),
                       (Environment({"x": 2**64}), ("y",)), (Environment(), ("x", "y"))]:
        got = presburger._difference(l, r, env, bound)
        assert got == reference_difference(l, r, env, bound)


def test_difference_walks_a_sum_chain_deeper_than_the_recursion_limit():
    # The walk keeps its own stack: x + (x + (... + (y + 1))) with 20,000 x's.
    t = Succ(y)
    for _ in range(20_000):
        t = Plus(x, t)
    assert presburger._difference(t, Zero(), None, ()) == LinearTerm.make({"x": 20_000, "y": 1}, 1)
    got = presburger._difference(x, t, Environment({"x": 10**9}), ("y",))
    assert got == LinearTerm.make({"y": -1}, -1 - 19_999 * 10**9)


# ---------------------------------------------------------------------------
# Test points whose candidates b + j collide: each distinct candidate is
# tried once, and the residue and records stay the reference's.

def _div(d, coeffs, const):
    return QAtom(Divides(d, LinearTerm.make(coeffs, const)))


def _recording(fn, calls, arg):
    """``fn``, recording the object that argument ``arg`` of each call
    holds; a recursive call passes its caller's."""
    def recorded(*args):
        calls.append(args[arg])
        return fn(*args)
    return recorded


def test_ground_candidates_are_decided_once_each(monkeypatch):
    # exists y. 3 | y + 1 and y > 0 and y > 1 and y < 0: test points -1
    # (v >= 0), 0 and 1 with delta 3 give 9 pairs but 5 candidates, 0 to 4,
    # and no branch holds, so every candidate is tried.
    matrix = QAnd(QAnd(_div(3, {"y": 1}, 1), _lt({"y": -1}, 0)),
                  QAnd(_lt({"y": -1}, 1), _lt({"y": 1}, 0)))
    placed = []
    monkeypatch.setattr(presburger, "_place", _recording(presburger._place, placed, 3))
    records, reference_records = [], []
    assert cooper_eliminate("y", matrix, records) == QFalse()
    assert reference_cooper_eliminate("y", matrix, reference_records) == QFalse()
    assert records == reference_records
    assert len(records[0].tests) == 3 and records[0].delta == 3
    assert len({id(p) for p in placed}) == 5


def test_symbolic_candidates_are_placed_once_each(monkeypatch):
    # exists y. y > x and y > x + 1 and 3 | y + 2 and y + x < 5: the test
    # points x and x + 1 with delta 3 reach x + 1 to x + 4, four candidates
    # for six pairs, and v >= 0 adds the test point -1 with three more.
    matrix = QAnd(QAnd(_lt({"y": -1, "x": 1}, 0), _lt({"y": -1, "x": 1}, 1)),
                  QAnd(_div(3, {"y": 1}, 2), _lt({"y": 1, "x": 1}, -5)))
    placed = []
    monkeypatch.setattr(presburger, "_place", _recording(presburger._place, placed, 3))
    records, reference_records = [], []
    got = cooper_eliminate("y", matrix, records)
    want = reference_cooper_eliminate("y", matrix, reference_records)
    assert (got, records) == (want, reference_records)
    assert len(records[0].tests) == 3 and records[0].delta == 3
    assert len({id(p) for p in placed}) == 3 + 4
    for vx in range(12):
        assert evaluate(got, {"x": vx}) == any(
            y > vx + 1 and (y + 2) % 3 == 0 and y + vx < 5 for y in range(20))


def test_colliding_candidates_match_reference_on_random_matrices(monkeypatch):
    # Lower bounds y > t + k for a few k on one term t collide at every
    # period, on their own and under the random matrices' atoms.
    rng = random.Random("candidates/collide")
    pairs = candidates = symbolic = 0
    for _ in range(300):
        t = {"x": rng.randint(-2, 2), "w": rng.randint(-1, 1)}
        parts = [_lt({**t, "y": -1}, k) for k in rng.sample(range(-3, 4), rng.randint(2, 4))]
        parts.append(_div(rng.randint(2, 6), {"y": 1, "x": rng.randint(0, 2)}, rng.randint(0, 5)))
        parts.append(linearize(scaled_matrix(rng, ["x", "y", "w"], 1)))
        rng.shuffle(parts)
        matrix = parts[0]
        for p in parts[1:]:
            matrix = q_and(matrix, p) if rng.random() < 0.8 else q_or(matrix, p)
        records, reference_records = [], []
        got = cooper_eliminate("y", matrix, records)
        want = reference_cooper_eliminate("y", matrix, reference_records)
        assert (got, records) == (want, reference_records)
        for r in records:
            pairs += len(r.tests) * r.delta
            candidates += len({(b.coeffs, b.const + j)
                               for b in r.tests for j in range(1, r.delta + 1)})
        symbolic += not isinstance(got, (QTrue, QFalse))
    assert candidates < pairs * 0.8 and symbolic > 100


# The 13th sentence of the benchmark's decide/tail corpus, the slowest
# of its first 13: the reference takes about 15 s on it closed.
TAIL_13 = (
    "(exists x (forall y (exists w (forall u (imp (or (or (= (s (+ u (s w))) "
    "(s (s (s (+ (s (s (s z))) (s (s x))))))) (= (s (s (s (+ (s u) (s (s (s z))))))) "
    "(s (+ z (s (s (s z))))))) (not (= (s (+ (s (s z)) (s (s (s y))))) w))) "
    "(or (= (s (s (s (+ (s (s z)) (s (s y)))))) (s (s (s u)))) "
    "(= (s (s (+ u z))) (+ (s y) (s (s (s y)))))))))))"
)


def test_the_tail_sentence_matches_reference_and_decides():
    s = parse_construction(TAIL_13)
    got, want = _both(linearize(s.body))
    assert got == want
    assert decide_bt6_with_bound(s) == (FF_, None)
    assert decide_bt6(Not(s)) is TT_


# ---------------------------------------------------------------------------
# Digests pinned from an earlier build, which walked records throughout:
# ``_linearize`` serves the kernel and the reference alike, and the
# public functions' conversions to and from programs are the kernel's
# alone, so a fault in them shows against these.

def _walk_digest(sentences):
    """sha256 over the repr of each sentence's verdict, sufficiency bound
    and elimination records, the residue of its body (its outer
    quantifier stripped) and the negation of its linear form."""
    h = hashlib.sha256()
    for s in sentences:
        records = []
        verdict = _decide(s, None, LangLevel.L2, records)
        residue = eliminate_quantifiers(linearize(s.body))
        h.update(repr((verdict.value, sufficiency_bound(records), records, residue,
                       negate(linearize(s)))).encode())
    return h.hexdigest()


@pytest.mark.parametrize("seed, q, depth, count, start, digest", [
    ("decide/q3", 3, 2, 100, 0,
     "7b35eb01ecd9c9e81460852c6d3f76721239714554b2900ba06919b2b47b2c65"),
    ("decide/q3", 3, 2, 100, 50,
     "56d15be9b86f773e8e1c965879b1acc3125b4108640e28369e3c2ddfbecf3004"),
    ("decide/tail", 4, 3, 12, 0,
     "1cc93840b03be3c5a54f59f5280cc46137aa1d4b90078f0373c5036a71339c7a"),
    ("golden/q2", 2, 3, 50, 0,
     "08295e692f2e0323f8831fa8e7f59bb676b9d054803ede52f9974c175e1a561e"),
])
def test_walkers_match_their_pinned_digests(seed, q, depth, count, start, digest):
    assert _walk_digest(prenex_corpus(seed, q, depth, count)[start:start + 50]) == digest


_QUANTIFIED_MATRIX = QAnd(_lt({"y": 1}, 0), QExists("x", QTrue()))


@pytest.mark.parametrize("call, error, message", [
    (lambda: negate(x), TypeError, "not a formula: Var(name='x')"),
    (lambda: negate(QAtom(x)), TypeError, "not a formula: QAtom(atom=Var(name='x'))"),
    (lambda: evaluate(QExists("x", QTrue()), {}), ValueError, "formula still contains quantifiers"),
    (lambda: evaluate(QAtom(x), {}), ValueError, "formula still contains quantifiers"),
    (lambda: linearize(Succ(x)), SortError, "linearize needs a formula, not a term"),
    (lambda: _linearize(x, False, None, (), _Table()), SortError, "not a formula: Var(name='x')"),
    (lambda: cooper_eliminate("y", _QUANTIFIED_MATRIX), AssertionError, "quantifier inside a matrix"),
    (lambda: cooper_eliminate("y", QAtom(x)), TypeError, "not a formula: QAtom(atom=Var(name='x'))"),
    (lambda: eliminate_quantifiers(QExists("y", QAtom(x))), TypeError,
     "not a formula: QAtom(atom=Var(name='x'))"),
])
def test_walkers_raise_on_what_they_do_not_walk(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize("cls", [
    LinearTerm, EqZero, LtZero, Divides, QTrue, QFalse, QAtom, QAnd, QOr, QForall, QExists,
    Elimination, TT, FF, Eq, Not, And, Or, Implies, Forall, Exists,
])
def test_the_walked_record_classes_have_no_subclasses(cls):
    # The walkers dispatch on the exact type, so a subclass would miss.
    assert cls.__subclasses__() == []
