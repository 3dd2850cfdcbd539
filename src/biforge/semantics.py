"""Evaluation of constructions in the standard model of the naturals.

The bounded strategy is a testing oracle: quantifiers range over a
finite initial segment, so its verdicts only approximate real truth.
Sound decisions live in :mod:`biforge.presburger`.

Evaluation compiles the tree to nested closures over a mutable scratch
environment; a bounded quantifier then re-enters only its own body
closure instead of re-walking the tree, which keeps exhaustive oracle
enumerations affordable.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Union

from .errors import ParseError, QuantifierEncountered, SortError
from .syntax import (
    Abs, And, Construction, Eq, Exists, FF, Forall, Implies, Not, Or,
    Plus, Succ, TT, Times, Var, Zero, _fold, _on_big_stack, _Record,
)


class Environment:
    """Total valuation from variable names to naturals.

    Finite overrides over a default-zero base; lookup never fails.
    Instances are immutable: ``override`` returns a new environment.
    """

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Optional[Mapping[str, int]] = None):
        bound = dict(bindings or {})
        for name, value in bound.items():
            if value < 0:
                raise ValueError(f"environments map to naturals, got {name}={value}")
        self._bindings = bound

    def __getitem__(self, name: str) -> int:
        return self._bindings.get(name, 0)

    def override(self, name: str, value: int) -> "Environment":
        if value < 0:
            raise ValueError("environments map to naturals")
        updated = dict(self._bindings)
        updated[name] = value
        return Environment(updated)

    def items(self):
        return self._bindings.items()

    def __repr__(self):
        inner = ",".join(f"{k}={v}" for k, v in sorted(self._bindings.items()))
        return f"Environment({inner})"


def override(e: Environment, v: str, n: int) -> Environment:
    return e.override(v, n)


def parse_environment(text: str) -> Environment:
    """Parse the ``name=value,name=value`` environment literal form."""
    bindings: dict[str, int] = {}
    text = text.strip()
    if not text:
        return Environment()
    offset = 0
    for part in text.split(","):
        name, sep, value = part.partition("=")
        name = name.strip()
        value = value.strip()
        if not sep or not name or not value.isdecimal():
            raise ParseError(f"bad environment entry {part!r}", offset)
        if name in bindings:
            raise ParseError(f"{name} is bound twice", offset)
        bindings[name] = int(value)
        offset += len(part) + 1
    return Environment(bindings)


class QuantifierFree(_Record):
    """Strategy that refuses quantifiers outright."""

    __slots__ = ()


class Bounded(_Record):
    """Strategy where quantifiers range over 0..``bound`` inclusive."""

    __slots__ = ("bound",)

    def __post_init__(self):
        if self.bound < 0:
            raise ValueError("bound must be a natural")


EvalStrategy = Union[QuantifierFree, Bounded]

QUANTIFIER_FREE = QuantifierFree()

_Scope = dict
_MISSING = object()


# A term compiles to an int when it is a constant of zero, successors
# and sums, to a pair ``(f, k)`` of value ``f(env) + k`` for successors
# over anything else, and otherwise to a function of the scope, so a
# chain of successors adds to ``k`` instead of nesting a closure each.

def _term_leaf(c: Construction):
    t = type(c)
    if t is Zero:
        return 0
    if t is Var:
        name = c.name
        return lambda env: env.get(name, 0)
    raise SortError(f"eval_nat needs a term, got {t.__name__}")


def _term_node(c: Construction, a, b=None):
    t = type(c)
    if t is Succ:
        return a + 1 if type(a) is int else (a[0], a[1] + 1) if type(a) is tuple else (a, 1)
    if t is not Plus and t is not Times:
        raise SortError(f"eval_nat needs a term, got {t.__name__}")
    if t is Plus and type(a) is int and type(b) is int:
        return a + b
    f = _closure(a)
    if b is a:  # a shared child is evaluated once
        return (lambda env: 2 * f(env)) if t is Plus else (lambda env: f(env) ** 2)
    g = _closure(b)
    return (lambda env: f(env) + g(env)) if t is Plus else (lambda env: f(env) * g(env))


def _closure(term) -> Callable[[_Scope], int]:
    if type(term) is int:
        return lambda env: term
    if type(term) is tuple:
        f, k = term
        return lambda env: f(env) + k
    return term


_fold_term = _fold(_term_leaf, _term_node)


def _compile_term(c: Construction) -> Callable[[_Scope], int]:
    return _closure(_fold_term(c))


def _compile_quantifier(c, bound: Optional[int], existential: bool):
    if bound is None:
        kind = "exists" if existential else "forall"

        def refuse(env):
            raise QuantifierEncountered(f"{kind} under the quantifier-free strategy")

        return refuse
    name = c.var
    body = _compile_formula(c.body, bound)

    # Every compiled truth function returns a bool object, so ``is`` is
    # exact: the scan stops at the first value whose truth is the
    # quantifier's own (true for exists, false for forall).
    def scan(env):
        saved = env.get(name, _MISSING)
        try:
            for k in range(bound + 1):
                env[name] = k
                if body(env) is existential:
                    return existential
            return not existential
        finally:
            if saved is _MISSING:
                del env[name]
            else:
                env[name] = saved

    return scan


def _compile_formula(c: Construction, bound: Optional[int]) -> Callable[[_Scope], bool]:
    t = type(c)
    if t is TT:
        return lambda env: True
    if t is FF:
        return lambda env: False
    if t is Eq:
        f, g = _compile_term(c.lhs), _compile_term(c.rhs)
        return lambda env: f(env) == g(env)
    if t is And:
        f, g = _compile_formula(c.lhs, bound), _compile_formula(c.rhs, bound)
        return lambda env: f(env) and g(env)
    if t is Or:
        f, g = _compile_formula(c.lhs, bound), _compile_formula(c.rhs, bound)
        return lambda env: f(env) or g(env)
    if t is Not:  # a chain of negations is walked in a loop; only its parity counts
        negated = False
        while type(c) is Not:
            c, negated = c.arg, not negated
        f = _compile_formula(c, bound)
        return (lambda env: not f(env)) if negated else f
    if t is Implies:
        f, g = _compile_formula(c.lhs, bound), _compile_formula(c.rhs, bound)
        return lambda env: (not f(env)) or g(env)
    if t is Forall or t is Exists:
        return _compile_quantifier(c, bound, existential=t is Exists)
    if t is Abs:
        raise SortError("eval_bool cannot evaluate an abstraction")
    raise SortError(f"eval_bool needs a formula, got {t.__name__}")


def eval_nat(c: Construction, e: Environment) -> int:
    """Value of a term: zero, successor, sum, product, variable lookup."""
    return _on_big_stack(lambda: _compile_term(c)(dict(e.items())))


def compile_bool(c: Construction, s: EvalStrategy = QUANTIFIER_FREE) -> Callable[[_Scope], bool]:
    """Compile a formula once into its truth function over a dict from
    names to naturals (absent names are zero); a call leaves the dict
    as it found it."""
    return _compile_formula(c, s.bound if isinstance(s, Bounded) else None)


def eval_bool(c: Construction, e: Environment, s: EvalStrategy = QUANTIFIER_FREE) -> bool:
    """Classical two-valued truth of a formula under ``e``."""
    return _on_big_stack(lambda: compile_bool(c, s)(dict(e.items())))
