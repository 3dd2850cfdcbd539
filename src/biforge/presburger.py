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
    Plus, Sort, Succ, TT, Var, _classify, _on_big_stack, _Record, sort_of,
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

    def value(self, env: Mapping[str, int]) -> int:
        return self.const + sum(c * env[v] for v, c in self.coeffs)


class EqZero(_Record):
    __slots__ = ("term",)


class LtZero(_Record):
    __slots__ = ("term",)


class Divides(_Record):
    __slots__ = ("d", "term")

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("divisor must be positive")


# ---------------------------------------------------------------------------
# Quantifier-structured formulas over linear atoms (negation-normal form:
# negation never appears as a node, it is pushed into the atoms), the
# public form of the programs below.

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


# ---------------------------------------------------------------------------
# Programs over one atom table.  An atom is keyed by ``(kind, coeffs,
# const)`` of its term ``t``: kind 0 for ``t < 0``, -1 for ``t = 0`` and
# ``d`` for ``d | t``.  A program is an atom's index in the table of its
# call, ``('&', l, r)``, ``('|', l, r)``, ``('A', v, body)``, ``('E', v,
# body)``, or a constant ``_T`` or ``_F`` (not ``True`` and ``False``,
# which equal atoms 1 and 0).  Programs are equal exactly when their
# formulas are, and hash and compare as plain tuples.

_T, _F = object(), object()


class _Table(dict):
    """The atoms of one call: maps a key to its index, and enters a key
    not seen yet at the next index; ``atoms[i]`` is the key of atom ``i``
    and ``negs[i]`` the program of its negation, once asked for."""

    __slots__ = ("atoms", "negs")

    def __init__(self):
        self.atoms, self.negs = [], {}

    def __missing__(self, key: tuple) -> int:
        i = self[key] = len(self.atoms)
        self.atoms.append(key)
        return i


def _program(f: QFormula, table: _Table):
    """The program of the formula ``f``, node for node, folding nothing."""
    tf = type(f)
    if tf is QAtom:
        a = f.atom
        ta = type(a)
        if ta is LtZero or ta is EqZero or ta is Divides:
            kind = 0 if ta is LtZero else -1 if ta is EqZero else a.d
            return table[kind, a.term.coeffs, a.term.const]
    if tf is QAnd or tf is QOr:
        return "&" if tf is QAnd else "|", _program(f.lhs, table), _program(f.rhs, table)
    if tf is QForall or tf is QExists:
        return "A" if tf is QForall else "E", f.var, _program(f.body, table)
    if tf is QTrue or tf is QFalse:
        return _T if tf is QTrue else _F
    raise TypeError(f"not a formula: {f!r}")


def _formula(p, table: _Table) -> QFormula:
    """The formula of the program ``p``, node for node."""
    if type(p) is int:
        d, cs, k = table.atoms[p]
        t = LinearTerm(cs, k)
        return QAtom(LtZero(t) if d == 0 else EqZero(t) if d < 0 else Divides(d, t))
    if type(p) is not tuple:
        return _TRUE if p is _T else _FALSE
    op, l, r = p
    if op == "A" or op == "E":
        return (QForall if op == "A" else QExists)(l, _formula(r, table))
    return (QAnd if op == "&" else QOr)(_formula(l, table), _formula(r, table))


def _and(l, r):
    return _F if l is _F or r is _F else r if l is _T else l if r is _T else ("&", l, r)


def _or(l, r):
    return _T if l is _T or r is _T else r if l is _F else l if r is _F else ("|", l, r)


def _gather(p, seen: set, out: list) -> None:
    """The parts of ``p`` under nested ``|`` nodes, each part not in
    ``seen`` added to it and to ``out``."""
    if type(p) is tuple and p[0] == "|":
        _gather(p[1], seen, out)
        _gather(p[2], seen, out)
    else:
        n = len(seen)
        seen.add(p)
        if len(seen) > n:
            out.append(p)


def _or_all(parts: list):
    """Disjunction with constant folding, flattening and duplicate
    elimination; elimination residues shrink substantially under it."""
    seen, kept = set(), []
    for p in parts:
        _gather(p, seen, kept)
    if _T in seen:
        return _T
    kept = [p for p in kept if p is not _F]
    if not kept:
        return _F
    while len(kept) > 1:  # balanced, so depth grows with the log of the width
        kept = [("|", kept[i], kept[i + 1]) if i + 1 < len(kept) else kept[i]
                for i in range(0, len(kept), 2)]
    return kept[0]


def _atom(d: int, coeffs: tuple, g: int, k: int, table: _Table):
    """``d | t``, or ``t < 0`` when ``d`` is 0, of the term ``t`` of
    ``coeffs``, whose gcd is ``g``, and constant ``k``: a constant atom
    folds to ``_T`` or ``_F``; any other is divided by ``gcd(d, g, k)``,
    is ``_T`` when that is ``d``, and else is its index in ``table``."""
    if not coeffs:
        return _T if (k % d == 0 if d else k < 0) else _F
    g = gcd(d, g, k)
    if g == d:
        return _T
    if g > 1:
        coeffs, k = tuple((u, c // g) for u, c in coeffs), k // g
    return table[d // g, coeffs, k]


def _negate(p, table: _Table):
    """``negate`` on programs; an atom's complement is built once per table."""
    if type(p) is int:
        neg = table.negs.get(p)
        if neg is None:
            d, cs, k = table.atoms[p]
            g = gcd(*(c for _, c in cs))
            if d > 0:
                neg = _or_all([_atom(d, cs, g, k + r, table) for r in range(1, d)])
            else:
                minus = tuple((u, -c) for u, c in cs)
                neg = (_atom(0, minus, g, -1 - k, table) if d == 0 else
                       _or(_atom(0, cs, g, k, table), _atom(0, minus, g, -k, table)))
            table.negs[p] = neg
        return neg
    if type(p) is not tuple:
        return _F if p is _T else _T
    op, l, r = p
    if op == "|":
        return _and(_negate(l, table), _negate(r, table))
    if op == "&":
        return _or(_negate(l, table), _negate(r, table))
    return "E" if op == "A" else "A", l, _negate(r, table)


def negate(f: QFormula) -> QFormula:
    """Negation-normal-form complement; negated divisibility expands into
    a disjunction over the nonzero remainders."""
    table = _Table()
    return _formula(_negate(_program(f, table), table), table)


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
    table = _Table()  # a table only grows, so a big-stack retry may reuse it
    return _on_big_stack(lambda: _formula(_linearize(c, False, None, (), table), table))


def _linearize(c: Construction, neg: bool, env: Optional[Environment],
               bound: tuple[str, ...], table: _Table):
    """The program of ``c``, or of its negation when ``neg``, over atoms
    entered into ``table``.  Given an ``env``, each variable not in
    ``bound``, the names bound above ``c``, is replaced by its value
    there."""
    while type(c) is Not:
        c, neg = c.arg, not neg
    tc = type(c)
    if tc is Eq:
        t = _difference(c.lhs, c.rhs, env, bound)
        cs, k = t.coeffs, t.const
        if not cs:
            p = _T if k == 0 else _F
        else:
            g = gcd(k, *(a for _, a in cs))
            p = table[-1, cs if g == 1 else tuple((u, a // g) for u, a in cs), k // g]
        return _negate(p, table) if neg else p
    if tc is And or tc is Or or tc is Implies:
        # negation swaps ∧ and ∨, and l ⇒ r is ¬l ∨ r
        join = _and if (tc is And) != neg else _or
        return join(_linearize(c.lhs, neg != (tc is Implies), env, bound, table),
                    _linearize(c.rhs, neg, env, bound, table))
    if tc is Forall or tc is Exists:
        body = _linearize(c.body, neg, env, (*bound, c.var), table)
        return "A" if (tc is Forall) != neg else "E", c.var, body
    if tc is TT or tc is FF:
        return _T if (tc is TT) != neg else _F
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
            const += k * env[t.name]  # before the atom is reduced by the gcd
        elif type(t) is Var:
            coeffs[t.name] = coeffs.get(t.name, 0) + k
    return LinearTerm.make(coeffs, const)


# ---------------------------------------------------------------------------
# Cooper-style elimination over the naturals.

class Elimination(_Record):
    """Record of one eliminated variable ``var``: its lower-boundary test
    terms ``tests``, over variables bound outside it, and period ``delta``."""

    __slots__ = ("var", "tests", "delta")


def _compile(p, v: str, local: dict[int, int], table: _Table):
    """The matrix ``p`` as a program for ``_place``, folded as ``_and``
    and ``_or`` fold; a constant that absorbs its node ends the walk
    there.  An atom on ``v``, read off its key, enters ``local`` once,
    its index in ``table`` mapped to the next local index, its leaf; an
    equality on ``v`` enters as ``t - 1 < 0`` and ``-t - 1 < 0``, and a
    subtree folded away takes its atoms out again.  Atom ``i`` not on
    ``v`` has the leaf ``~i``."""
    if type(p) is int:
        d, cs, k = table.atoms[p]
        for u, _ in cs:
            if u == v:
                break
        else:
            return ~p
        if d >= 0:
            return local.setdefault(p, len(local))
        g = gcd(*(c for _, c in cs))
        lo = _atom(0, cs, g, k - 1, table)
        hi = _atom(0, tuple((u, -c) for u, c in cs), g, -1 - k, table)
        return "&", local.setdefault(lo, len(local)), local.setdefault(hi, len(local))
    if type(p) is not tuple:
        return p
    op, l, r = p
    if op != "&" and op != "|":
        raise AssertionError("quantifier inside a matrix")
    n = len(local)
    zero, one = (_F, _T) if op == "&" else (_T, _F)
    l = _compile(l, v, local, table)
    if l is zero:
        return l
    r = _compile(r, v, local, table)
    if r is zero:
        while len(local) > n:  # atoms enter only at the end: drop the ones l entered
            local.popitem()
        return r
    return r if l is one else l if r is one else (op, l, r)


def _place(program, moved: list, x: int, placed: list, table: _Table):
    """``program`` at the candidate constant ``x``, folded: local index
    ``i`` is the atom of ``moved[i] = (d, c, coeffs, k, g)`` at constant
    ``k + c * x``, entered into ``table`` and ``placed`` when the fold
    first reaches it, and ``~j`` is atom ``j``.  A conjunction stops at
    a false conjunct and a disjunction at a true one."""
    if type(program) is int:
        if program < 0:
            return ~program
        p = placed[program]
        if p is None:
            d, c, coeffs, k, g = moved[program]
            p = placed[program] = _atom(d, coeffs, g, k + c * x, table)
        return p
    if type(program) is not tuple:
        return program
    op, l, r = program
    l = _place(l, moved, x, placed, table)
    if op == "&":
        return l if l is _F else _and(l, _place(r, moved, x, placed, table))
    return l if l is _T else _or(l, _place(r, moved, x, placed, table))


def _cooper(v: str, matrix, record: Optional[list[Elimination]], table: _Table):
    """``exists v`` of the quantifier-free program ``matrix`` eliminated;
    each elimination appends its record to ``record`` when that is a list.

    The existential distributes over top-level disjunctions, processed
    left to right; each branch then gets its own, smaller test-point
    set, which keeps nested eliminations from multiplying out.

    The residue is the disjunction, over test points ``b`` and period
    steps ``1 <= j <= delta``, of the matrix with ``v := b + j``.  One
    walk compiles the matrix, folded, over its distinct atoms on ``v``,
    and the bound ``-v - 1 < 0`` is one more.  One pass reads each key
    once, scanning for ``v``'s coefficient and slicing off the rest, and
    takes the lcm ``m``; a second splits each atom into ints: divisor,
    ``c`` in ``c * m * v``, rest and constant, and gathers test points
    and ``delta``.  Each distinct candidate ``b + j`` is tried once, and
    each rest merged with ``c * b`` once per distinct ``b.coeffs``, or
    never if all are empty; per candidate only the constants move.  A
    branch's atom enters ``table`` when the fold reaches it, a constant
    one never, so a ground branch folds to ``_T`` or ``_F``; the first
    ``_T`` ends the elimination, whose one record is its ``Elimination``.
    """
    if type(matrix) is tuple and matrix[0] == "|":
        flat: list = []
        _gather(matrix, set(), flat)
        return _or_all([_cooper(v, part, record, table) for part in flat])
    local: dict[int, int] = {}
    program = _compile(matrix, v, local, table)
    # Over the naturals v >= 0, i.e. -v - 1 < 0: a lower bound, so no minus-infinity branch.
    if program is not _F:
        program = "&", program, local.setdefault(table[0, ((v, -1),), -1], len(local))
    split, m, ground = [], 1, True
    for i in local:  # each key once: divisor, v's coefficient, rest, constant
        d, cs, k = table.atoms[i]
        j = 0
        while cs[j][0] != v:
            j += 1
        m = lcm(m, a := cs[j][1])
        cs, ground = (cs[:j] + cs[j + 1:], False) if len(cs) > 1 else ((), ground)
        split.append((d, a, cs, k))
    entries, tests, delta = [], set(), m  # delta starts at m, the divisor of m | m * v
    for d, a, cs, k in split:  # for s = m / a: d * |s| | s * t, or |s| * t < 0
        c = 1 if d or a > 0 else -1
        s, d = m // a * c, d * (m // abs(a))
        if s != 1:
            cs, k = tuple([(u, b * s) for u, b in cs]), k * s
        if c < 0:
            tests.add((cs, k))
        elif d:
            delta = lcm(delta, d)
        entries.append((d, c, cs, k, 0))
    if m > 1:  # m | m * v
        program = "&", program, len(entries)
        entries.append((m, 1, (), 0, 0))
    tests = sorted(tests)
    if record is not None:
        record.append(Elimination(v, tuple(LinearTerm(cs, k) for cs, k in tests), delta))

    # per distinct b.coeffs, each distinct b.const + j, in the order its first pair comes
    candidates: dict[tuple, list[int]] = {}
    for cs, k in tests:
        xs = candidates.setdefault(cs, [])
        xs += range(max(xs[-1], k) + 1 if xs else k + 1, k + delta + 1)
    branches = []
    for bs, xs in candidates.items():
        moved = entries  # ground: every rest and b.coeffs is empty, every g is 0
        if not ground:
            moved = []
            for d, c, cs, k, _ in entries:
                if bs:
                    merged = dict(cs)
                    for u, b in bs:
                        merged[u] = merged.get(u, 0) + c * b
                    cs = tuple(sorted([p for p in merged.items() if p[1]]))
                moved.append((d, c, cs, k, gcd(*[b for _, b in cs])))
        for x in xs:
            branch = _place(program, moved, x, [None] * len(moved), table)
            if branch is _T:
                return _T
            branches.append(branch)
    return _or_all(branches)


def cooper_eliminate(v: str, matrix: QFormula,
                     _record: Optional[list[Elimination]] = None) -> QFormula:
    """Eliminate ``exists v`` from a quantifier-free matrix over the
    naturals.  The result never mentions ``v`` and is equivalent over
    natural-number assignments to the existential it replaces.  Built
    as records from ``_cooper``'s residue over a fresh atom table."""
    table = _Table()
    return _formula(_cooper(v, _program(matrix, table), _record, table), table)


def _eliminate(p, record: Optional[list[Elimination]], table: _Table):
    """Innermost-first elimination of the program ``p``."""
    if type(p) is not tuple:
        return p
    op, l, r = p
    if op == "E":
        return _cooper(l, _eliminate(r, record, table), record, table)
    if op == "A":
        inner = _negate(_eliminate(r, record, table), table)
        return _negate(_cooper(l, inner, record, table), table)
    join = _and if op == "&" else _or
    return join(_eliminate(l, record, table), _eliminate(r, record, table))


def eliminate_quantifiers(f: QFormula,
                          _record: Optional[list[Elimination]] = None) -> QFormula:
    """Innermost-first elimination; universals go through their duals.
    Built as records from ``_eliminate``'s residue over a fresh table."""
    table = _Table()
    return _formula(_eliminate(_program(f, table), _record, table), table)


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


def _decide(c: Construction, e: Optional[Environment], level: LangLevel,
            record: Optional[list[Elimination]] = None) -> TruthValue:
    """Check that ``c`` is a formula of ``level`` and decide it, its free
    variables valued through ``e``.  The linearizing walk folds the values
    into the atoms' constants, giving the atoms of ``c`` grounded by unary
    numerals, so the residue of the elimination, over one atom table, is
    the program ``_T`` or ``_F``; the verdict is read off it."""
    name, language = _PROCEDURES[level]
    sort, used = _classify(c)
    if sort is not Sort.BOOL:
        raise SortError(f"{name} needs a formula")
    if used > level:
        raise LanguageError(f"{name} needs a first-order formula over {language}")
    table = _Table()
    e = e if e is not None else Environment()
    q = _eliminate(_linearize(c, False, e, (), table), record, table)
    return TruthValue.of(q is _T)


def decide_bt6(c: Construction, e: Optional[Environment] = None) -> TruthValue:
    """Decide a formula of the 0/successor/+ language, folding the values
    of its free variables under ``e`` into its linear atoms.  Always returns
    one of the two truth values and agrees with standard-model truth."""
    return _on_big_stack(_decide, c, e, LangLevel.L2)


def decide_bt5(c: Construction, e: Optional[Environment] = None) -> TruthValue:
    """Decide a formula of the 0/successor language (restriction of
    :func:`decide_bt6` to the smaller language)."""
    return _on_big_stack(_decide, c, e, LangLevel.L1)


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
    # each try of the big-stack boundary gathers records of its own
    return _on_big_stack(
        lambda: (_decide(c, e, LangLevel.L2, records := []), sufficiency_bound(records)))
