"""Quantifier-elimination decision procedures for the successor and
successor-plus-addition languages.

Formulas are first translated into a linear normal form (sums collapse
to integer coefficient maps, successor chains to constants), then bound
variables are eliminated innermost-first by a Cooper-style procedure
relativized to the naturals: every eliminated variable carries an
implicit ``v >= 0`` constraint, so the lower-bound test-point set is
never empty and the minus-infinity branch vanishes.  Divisibility atoms
exist only inside the elimination; surface formulas never contain them.
"""

from __future__ import annotations

import enum
from math import gcd, lcm
from typing import Callable, Mapping, Optional, Union

from .errors import LanguageError, SortError
from .recognizers import LangLevel
from .semantics import Bounded, Environment, compile_bool
from .syntax import (
    And, Construction, Eq, Exists, FF, Forall, Implies, Not, Or,
    Plus, Sort, Succ, TT, Var, _classify, _Record, sort_of,
)


class TruthValue(enum.Enum):
    TRUE = "tt"
    FALSE = "ff"

    @staticmethod
    def of(flag: bool) -> "TruthValue":
        return TruthValue.TRUE if flag else TruthValue.FALSE


# ---------------------------------------------------------------------------
# Linear terms and atoms.

class LinearTerm(_Record):
    """Integer-linear combination of variables plus a constant.

    ``coeffs`` holds ``(name, coefficient)`` pairs and ``const`` an int.
    Zero coefficients are never stored; coefficient order is fixed by
    the variable name, so equal terms are structurally equal.
    """

    __slots__ = ("coeffs", "const")

    @staticmethod
    def make(coeffs: Mapping[str, int], const: int) -> "LinearTerm":
        return LinearTerm(tuple(sorted((v, c) for v, c in coeffs.items() if c)), const)

    @staticmethod
    def constant(k: int) -> "LinearTerm":
        return LinearTerm((), k)

    @staticmethod
    def variable(v: str, coeff: int = 1) -> "LinearTerm":
        return LinearTerm.make({v: coeff}, 0)

    def coeff(self, v: str) -> int:
        for name, c in self.coeffs:
            if name == v:
                return c
        return 0

    def drop(self, v: str) -> "LinearTerm":
        return LinearTerm(tuple(p for p in self.coeffs if p[0] != v), self.const)

    def __add__(self, other: "LinearTerm") -> "LinearTerm":
        d = dict(self.coeffs)
        for v, c in other.coeffs:
            d[v] = d.get(v, 0) + c
        return LinearTerm.make(d, self.const + other.const)

    def __sub__(self, other: "LinearTerm") -> "LinearTerm":
        return self + other.scale(-1)

    def __neg__(self) -> "LinearTerm":
        return self.scale(-1)

    def scale(self, k: int) -> "LinearTerm":
        if k == 0:
            return LinearTerm((), 0)
        return LinearTerm(tuple((v, c * k) for v, c in self.coeffs), self.const * k)

    def shift(self, k: int) -> "LinearTerm":
        return LinearTerm(self.coeffs, self.const + k)

    def value(self, env: Mapping[str, int]) -> int:
        return self.const + sum(c * env[v] for v, c in self.coeffs)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs


class EqZero(_Record):
    __slots__ = ("term",)


class LtZero(_Record):
    __slots__ = ("term",)


class Divides(_Record):
    __slots__ = ("d", "term")

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("divisor must be positive")


LinearAtom = Union[EqZero, LtZero, Divides]


# ---------------------------------------------------------------------------
# Quantifier-structured formulas over linear atoms (negation-normal form:
# negation never appears as a node, it is pushed into the atoms).

class QTrue(_Record):
    __slots__ = ()


class QFalse(_Record):
    __slots__ = ()


class QAtom(_Record):
    __slots__ = ("atom",)


class QAnd(_Record):
    __slots__ = ("lhs", "rhs")


class QOr(_Record):
    __slots__ = ("lhs", "rhs")


class QForall(_Record):
    __slots__ = ("var", "body")


class QExists(_Record):
    __slots__ = ("var", "body")


QFormula = Union[QTrue, QFalse, QAtom, QAnd, QOr, QForall, QExists]

_TRUE = QTrue()
_FALSE = QFalse()


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


def _gather(cls, f: QFormula, seen: set, out: list) -> None:
    """The parts of ``f`` under nested ``cls`` nodes, each part not in
    ``seen`` added to it and to ``out``; a part is hashed once."""
    if type(f) is cls:
        _gather(cls, f.lhs, seen, out)
        _gather(cls, f.rhs, seen, out)
    else:
        n = len(seen)
        seen.add(f)
        if len(seen) > n:
            out.append(f)


def q_or_all(parts: list[QFormula]) -> QFormula:
    """Disjunction with constant folding, flattening and duplicate
    elimination; elimination residues shrink substantially under it."""
    seen: set = set()
    flat: list[QFormula] = []
    for p in parts:
        _gather(QOr, p, seen, flat)
    kept = [p for p in flat if type(p) is not QFalse]
    if any(type(p) is QTrue for p in kept):
        return _TRUE
    if not kept:
        return _FALSE
    while len(kept) > 1:  # balanced, so depth grows with the log of the width
        kept = [QOr(*kept[i:i + 2]) if i + 1 < len(kept) else kept[i]
                for i in range(0, len(kept), 2)]
    return kept[0]


def _mk_eq(t: LinearTerm) -> QFormula:
    if t.is_constant:
        return _TRUE if t.const == 0 else _FALSE
    g = gcd(t.const, *(c for _, c in t.coeffs))
    if g > 1:
        t = LinearTerm(tuple((v, c // g) for v, c in t.coeffs), t.const // g)
    return QAtom(EqZero(t))


def _atom(d: int, coeffs: tuple, g: int, k: int) -> QFormula:
    """``d | t``, or ``t < 0`` when ``d`` is 0, of the term ``t`` of
    ``coeffs``, whose gcd is ``g``, and constant ``k``: a constant atom
    folds to ``QTrue`` or ``QFalse``, any other is divided by
    ``gcd(d, g, k)``, and ``QTrue`` when that is ``d``."""
    if not coeffs:
        return _TRUE if (k % d == 0 if d else k < 0) else _FALSE
    g = gcd(d, g, k)
    if g == d:
        return _TRUE
    if g > 1:
        coeffs, k = tuple((u, c // g) for u, c in coeffs), k // g
    t = LinearTerm(coeffs, k)
    return QAtom(Divides(d // g, t) if d else LtZero(t))


def negate(f: QFormula) -> QFormula:
    """Negation-normal-form complement; negated divisibility expands into
    a disjunction over the nonzero remainders."""
    tf = type(f)
    if tf is QAtom:
        a = f.atom
        ta = type(a)
        if ta is LtZero or ta is EqZero or ta is Divides:
            cs, k = a.term.coeffs, a.term.const
            g = gcd(*(c for _, c in cs))
            if ta is Divides:
                return q_or_all([_atom(a.d, cs, g, k + r) for r in range(1, a.d)])
            neg = tuple((u, -c) for u, c in cs)
            if ta is LtZero:
                return _atom(0, neg, g, -1 - k)
            return q_or(_atom(0, cs, g, k), _atom(0, neg, g, -k))
    if tf is QOr:
        return q_and(negate(f.lhs), negate(f.rhs))
    if tf is QAnd:
        return q_or(negate(f.lhs), negate(f.rhs))
    if tf is QTrue:
        return _FALSE
    if tf is QFalse:
        return _TRUE
    if tf is QForall:
        return QExists(f.var, negate(f.body))
    if tf is QExists:
        return QForall(f.var, negate(f.body))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Translation from constructions.

def linearize(c: Construction) -> QFormula:
    """Translate a level-2 formula into quantifier-structured linear atoms.

    Structure-preserving: the quantifier prefix survives, negations are
    pushed to the atoms, and a negated equality splits into the two
    strict orderings.
    """
    try:
        sort, level = _classify(c)
    except SortError:
        sort, level = None, None
    if level is None or level > LangLevel.L2:
        raise LanguageError("linearize needs a first-order formula over 0, successor and +")
    if sort is not Sort.BOOL:
        raise SortError("linearize needs a formula, not a term")
    return _linearize(c, False, None, ())


def _linearize(c: Construction, neg: bool, env: Optional[Environment],
               bound: tuple[str, ...]) -> QFormula:
    """``c``, or its negation when ``neg``, over linear atoms.  Given an
    ``env``, each variable not in ``bound``, the names bound above ``c``,
    is replaced by its value there."""
    while type(c) is Not:
        c, neg = c.arg, not neg
    tc = type(c)
    if tc is Eq:
        t = _mk_eq(_difference(c.lhs, c.rhs, env, bound))
        return negate(t) if neg else t
    if tc is And or tc is Or or tc is Implies:
        # negation swaps ∧ and ∨, and l ⇒ r is ¬l ∨ r
        join = q_and if (tc is And) != neg else q_or
        return join(_linearize(c.lhs, neg != (tc is Implies), env, bound),
                    _linearize(c.rhs, neg, env, bound))
    if tc is Forall or tc is Exists:
        body = _linearize(c.body, neg, env, (*bound, c.var))
        return QForall(c.var, body) if (tc is Forall) != neg else QExists(c.var, body)
    if tc is TT or tc is FF:
        return _TRUE if (tc is TT) != neg else _FALSE
    raise SortError(f"not a formula: {c!r}")


def _difference(l: Construction, r: Construction, env: Optional[Environment],
                bound: tuple[str, ...]) -> LinearTerm:
    """``l - r``, in one walk of both sides that takes each node with its
    weight: a chain of ``s`` adds its length to the constant, and ``t + t``
    walks ``t`` once at twice the weight.  Given an ``env``, each name not
    in ``bound`` goes into the constant at its value there."""
    coeffs: dict[str, int] = {}
    const, stack = 0, [(l, 1), (r, -1)]
    while stack:
        t, k = stack.pop()
        while type(t) is Succ:
            t, const = t.arg, const + k
        if type(t) is Plus:
            stack += [(t.lhs, 2 * k)] if t.rhs is t.lhs else [(t.lhs, k), (t.rhs, k)]
        elif type(t) is Var and env is not None and t.name not in bound:
            const += k * env[t.name]  # before _mk_* reduce it by the gcd
        elif type(t) is Var:
            coeffs[t.name] = coeffs.get(t.name, 0) + k
    return LinearTerm.make(coeffs, const)


# ---------------------------------------------------------------------------
# Cooper-style elimination over the naturals.

class Elimination(_Record):
    """Record of one eliminated variable ``var``: its lower-boundary test
    terms ``tests``, over variables bound outside it, and period ``delta``."""

    __slots__ = ("var", "tests", "delta")


def _ordering(cs: tuple, g: int, k: int) -> tuple:
    """The table key of ``t < 0`` for coefficients ``cs`` of gcd ``g`` and
    constant ``k``, divided by ``gcd(g, k)`` as ``_atom`` divides it."""
    g = gcd(g, k)
    return 0, (cs if g == 1 else tuple((u, c // g) for u, c in cs)), k // g


def _compile(f: QFormula, v: str, table: dict[tuple, int]):
    """``f`` as a program of nested ``(is_and, lhs, rhs)`` tuples, folded
    as ``q_and`` and ``q_or`` fold; a constant that absorbs its node ends
    the walk there.  Each distinct atom on ``v`` goes into ``table`` once,
    keyed by the tuple ``(divisor or 0, coeffs, const)``, equal to another
    exactly when the atoms are, and its leaf is its index there; an
    equality on ``v`` goes in as the keys of ``t - 1 < 0`` and
    ``-t - 1 < 0``, and a subtree folded away takes its keys out again.
    Any other leaf is left as it is."""
    tf = type(f)
    if tf is QAnd or tf is QOr:
        n = len(table)
        zero, one = (QFalse, QTrue) if tf is QAnd else (QTrue, QFalse)
        l = _compile(f.lhs, v, table)
        if type(l) is zero:
            return l
        r = _compile(f.rhs, v, table)
        if type(r) is zero:
            while len(table) > n:  # keys enter only at the end: drop the ones l entered
                table.popitem()
            return r
        return r if type(l) is one else l if type(r) is one else (tf is QAnd, l, r)
    if tf is QAtom:
        a = f.atom
        try:
            t = a.term
        except AttributeError:
            raise TypeError(f"not a formula: {f!r}") from None
        if t.coeff(v):
            cs, k = t.coeffs, t.const
            if type(a) is not EqZero:
                return table.setdefault((a.d if type(a) is Divides else 0, cs, k), len(table))
            g = gcd(*(c for _, c in cs))
            lo = _ordering(cs, g, k - 1)
            hi = _ordering(tuple((u, -c) for u, c in cs), g, -1 - k)
            return True, table.setdefault(lo, len(table)), table.setdefault(hi, len(table))
    if tf is QAtom or tf is QTrue or tf is QFalse:
        return f
    raise AssertionError("quantifier inside a matrix")


def _place(program, moved: list, x: int, placed: list) -> QFormula:
    """The formula of ``program`` at the candidate constant ``x``, folded:
    index ``i`` stands for the atom of ``moved[i] = (d, c, coeffs, k, g)``
    at constant ``k + c * x``, built the first time the fold reaches it
    and kept in ``placed``.  A conjunction stops at a false conjunct and
    a disjunction at a true one."""
    if type(program) is not tuple:
        if type(program) is not int:
            return program
        f = placed[program]
        if f is None:
            d, c, coeffs, k, g = moved[program]
            f = placed[program] = _atom(d, coeffs, g, k + c * x)
        return f
    is_and, l, r = program
    l = _place(l, moved, x, placed)
    if is_and:
        return l if type(l) is QFalse else q_and(l, _place(r, moved, x, placed))
    return l if type(l) is QTrue else q_or(l, _place(r, moved, x, placed))


def _entry(key: tuple, v: str, m: int) -> tuple[int, int, tuple, int]:
    """The atom of the table key ``(divisor or 0, coeffs, const)`` as
    divisor, coefficient on ``m * v``, and the coefficients and constant
    of its rest; the coefficient is 1 or -1, and 1 for a divisibility."""
    d, cs, k = key
    s = m // dict(cs)[v]
    d, c, s = (d * abs(s), 1, s) if d else (0, 1 if s > 0 else -1, abs(s))
    return d, c, tuple((u, x * s) for u, x in cs if u != v), k * s


def cooper_eliminate(
    v: str,
    matrix: QFormula,
    _record: Optional[list[Elimination]] = None,
) -> QFormula:
    """Eliminate ``exists v`` from a quantifier-free matrix over the
    naturals.  The result never mentions ``v`` and is equivalent over
    natural-number assignments to the existential it replaces.

    The existential distributes over top-level disjunctions, processed
    left to right; each branch then gets its own, smaller test-point
    set, which keeps nested eliminations from multiplying out.

    The residue is the disjunction, over test points ``b`` and period
    steps ``1 <= j <= delta``, of the matrix with ``v := b + j``.  One
    walk compiles the matrix, folded, into a program over a table of its
    distinct atoms on ``v``, keyed by plain tuples, and the bound
    ``-v - 1 < 0`` goes in as one more key.  Each key is split once into
    ints: divisor, coefficient ``c`` unified to the lcm ``m``, and the
    coefficients and constant of its rest.  Each distinct candidate
    ``b + j`` is tried once, where its first pair comes.  Each rest is
    merged with ``c * b`` once per distinct ``b.coeffs``, on tuples; per
    candidate only the constants move.  Records are built only for what
    leaves the step: the ``Elimination`` record, which lists every test
    point, and the atoms of the residue, each when the fold of a branch
    reaches it, and a constant atom not at all, so a ground branch folds
    to ``QTrue`` or ``QFalse``.  The residue is ``QTrue`` as soon as one
    branch folds to it.
    """
    if type(matrix) is QOr:
        flat: list[QFormula] = []
        _gather(QOr, matrix, set(), flat)
        return q_or_all([cooper_eliminate(v, part, _record) for part in flat])
    table: dict[tuple, int] = {}
    program = _compile(matrix, v, table)
    # Relativize to the naturals: v >= 0, i.e. -v - 1 < 0.  This always
    # contributes a lower bound, so the minus-infinity branch is empty.
    if type(program) is not QFalse:
        program = True, program, table.setdefault((0, ((v, -1),), -1), len(table))
    m = lcm(*(abs(dict(cs)[v]) for _, cs, _ in table))
    entries = [_entry(key, v, m) for key in table]
    if m > 1:  # m | m * v
        program = (True, program, len(entries))
        entries.append((m, 1, (), 0))
    tests = sorted({(cs, k) for d, c, cs, k in entries if not d and c == -1})
    delta = lcm(*(d for d, *_ in entries if d))
    if _record is not None:
        _record.append(Elimination(v, tuple(LinearTerm(cs, k) for cs, k in tests), delta))

    # per distinct b.coeffs, each distinct b.const + j, in the order its first pair comes
    candidates: dict[tuple, list[int]] = {}
    for cs, k in tests:
        xs = candidates.setdefault(cs, [])
        xs += range(max(xs[-1], k) + 1 if xs else k + 1, k + delta + 1)
    branches = []
    for bs, xs in candidates.items():
        moved = []
        for d, c, cs, k in entries:
            if bs:
                merged = dict(cs)
                for u, b in bs:
                    merged[u] = merged.get(u, 0) + c * b
                cs = tuple(sorted(p for p in merged.items() if p[1]))
            moved.append((d, c, cs, k, gcd(*(a for _, a in cs))))
        for x in xs:
            branch = _place(program, moved, x, [None] * len(moved))
            if type(branch) is QTrue:
                return _TRUE
            branches.append(branch)
    return q_or_all(branches)


def eliminate_quantifiers(
    f: QFormula,
    _record: Optional[list[Elimination]] = None,
) -> QFormula:
    """Innermost-first elimination; universals go through their duals."""
    tf = type(f)
    if tf is QExists:
        return cooper_eliminate(f.var, eliminate_quantifiers(f.body, _record), _record)
    if tf is QForall:
        inner = eliminate_quantifiers(f.body, _record)
        return negate(cooper_eliminate(f.var, negate(inner), _record))
    if tf is QAnd:
        return q_and(eliminate_quantifiers(f.lhs, _record), eliminate_quantifiers(f.rhs, _record))
    if tf is QOr:
        return q_or(eliminate_quantifiers(f.lhs, _record), eliminate_quantifiers(f.rhs, _record))
    return f


def evaluate(f: QFormula, env: Mapping[str, int]) -> bool:
    """Truth of a quantifier-free linear formula under an assignment."""
    tf = type(f)
    if tf is QAtom:
        a = f.atom
        if type(a) is LtZero:
            return a.term.value(env) < 0
        if type(a) is EqZero:
            return a.term.value(env) == 0
        if type(a) is Divides:
            return a.term.value(env) % a.d == 0
    if tf is QOr:
        return evaluate(f.lhs, env) or evaluate(f.rhs, env)
    if tf is QAnd:
        return evaluate(f.lhs, env) and evaluate(f.rhs, env)
    if tf is QTrue or tf is QFalse:
        return tf is QTrue
    raise ValueError("formula still contains quantifiers")


# ---------------------------------------------------------------------------
# The decision procedures.

# The procedure's name and language at each level, for error messages.
_PROCEDURES = {
    LangLevel.L1: ("decide_bt5", "0 and successor"),
    LangLevel.L2: ("decide_bt6", "0, successor and +"),
}


def _decide(
    c: Construction,
    e: Optional[Environment],
    level: LangLevel,
    record: Optional[list[Elimination]] = None,
) -> TruthValue:
    """Check that ``c`` is a formula of ``level`` and decide it, its free
    variables valued through ``e``.  The linearizing walk folds the values
    into the atoms' constants, giving the atoms of ``c`` grounded by unary
    numerals."""
    name, language = _PROCEDURES[level]
    sort, used = _classify(c)
    if sort is not Sort.BOOL:
        raise SortError(f"{name} needs a formula")
    if used > level:
        raise LanguageError(f"{name} needs a first-order formula over {language}")
    e = e if e is not None else Environment()
    q = eliminate_quantifiers(_linearize(c, False, e, ()), record)
    return TruthValue.of(evaluate(q, {}))


def decide_bt6(c: Construction, e: Optional[Environment] = None) -> TruthValue:
    """Decide a formula of the 0/successor/+ language, folding the values
    of its free variables under ``e`` into its linear atoms.  Always returns
    one of the two truth values and agrees with standard-model truth."""
    return _decide(c, e, LangLevel.L2)


def decide_bt5(c: Construction, e: Optional[Environment] = None) -> TruthValue:
    """Decide a formula of the 0/successor language (restriction of
    :func:`decide_bt6` to the smaller language)."""
    return _decide(c, e, LangLevel.L1)


def compile_oracle(c: Construction, bound: int) -> Callable[[dict[str, int]], bool]:
    """The bounded oracle of a formula, sort-checked and compiled once,
    as a truth function over a dict of natural values."""
    if sort_of(c) is not Sort.BOOL:
        raise SortError("bounded_oracle needs a formula")
    return compile_bool(c, Bounded(bound))


def bounded_oracle(c: Construction, e: Environment, bound: int) -> bool:
    """Brute-force reference: quantifiers enumerate 0..bound inclusive."""
    return compile_oracle(c, bound)(dict(e.items()))


def sufficiency_bound(records: list[Elimination]) -> Optional[int]:
    """Smallest uniform quantifier range that provably reproduces the
    decision, derived from the elimination data.

    A true existential has a witness among its recorded test points
    shifted by at most the period, so a uniform range B works when every
    test term's value stays within B whenever the outer variables do.
    Terms whose positive coefficients sum to zero demand
    ``B >= const + delta``; a sum of one is harmless only when
    ``const + delta <= 0``; anything larger admits no uniform range and
    yields None.
    """
    bound = 0
    for rec in records:
        for t in rec.tests:
            slope = sum(c for _, c in t.coeffs if c > 0)
            need = t.const + rec.delta
            if slope == 0:
                bound = max(bound, need)
            elif slope == 1:
                if need > 0:
                    return None
            else:
                return None
    return bound


def decide_bt6_with_bound(
    c: Construction, e: Optional[Environment] = None
) -> tuple[TruthValue, Optional[int]]:
    """Like :func:`decide_bt6` but also reports the per-sentence
    sufficiency bound for the bounded oracle (None when no uniform
    bound exists)."""
    return _decide(c, e, LangLevel.L2, records := []), sufficiency_bound(records)
