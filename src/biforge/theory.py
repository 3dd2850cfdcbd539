"""The biform theory registry, induction-schema instantiation, and
mechanical checking of axiom suites and morphism obligations.

Theories pair a language level with named closed axioms, induction
schema kinds, and transformer descriptors.  Morphisms translate source
axioms into the target language and discharge them either by the
quantifier-elimination decision procedure (level-2 sentences) or by a
randomized model check in the standard model.  Schema obligations are
checked on sampled predicate instances; a universal schema-level proof
is out of reach for a test harness and is not claimed.
"""

from __future__ import annotations

import enum
import functools
import random
import re
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .errors import LanguageError, NotAnAbstraction, ParseError
from .presburger import TruthValue, compile_oracle, decide_bt5, decide_bt6
from .recognizers import LangLevel, is_fo, is_fo_abs
from .semantics import Environment
from .sexpr import parse_construction, to_sexpr
from .syntax import (
    Abs, And, Construction, Eq, Exists, Forall, Implies, Not, Or,
    Plus, Succ, Times, Var, Zero, _fold, abs_body, free_vars, is_abs, substitute,
)


class SchemaKind(enum.Enum):
    INDUCTION_L1 = "induction-l1"
    INDUCTION_L2 = "induction-l2"
    INDUCTION_L3 = "induction-l3"


SCHEMA_LEVEL = {
    SchemaKind.INDUCTION_L1: LangLevel.L1,
    SchemaKind.INDUCTION_L2: LangLevel.L2,
    SchemaKind.INDUCTION_L3: LangLevel.L3,
}


def induction_instance(kind: SchemaKind, pred: Construction) -> Construction:
    """Instantiate the induction schema at a predicate abstraction.

    With A(t) the predicate body at t, builds
    ``(A(0) and (forall x. A(x) imp A(s x))) imp forall x. A(x)``,
    quantifying over the abstraction's own variable.
    """
    if not is_abs(pred):
        raise NotAnAbstraction("induction needs a predicate abstraction")
    level = SCHEMA_LEVEL[kind]
    if not is_fo_abs(level, pred):
        raise LanguageError(f"predicate body exceeds language level {level.value}")
    v = pred.var
    body = abs_body(pred)

    def at(t: Construction) -> Construction:
        return substitute(body, v, t)

    base = at(Zero())
    step = Forall(v, Implies(at(Var(v)), at(Succ(Var(v)))))
    conclusion = Forall(v, at(Var(v)))
    return Implies(And(base, step), conclusion)


# ---------------------------------------------------------------------------
# Theory and morphism records.

@dataclass(frozen=True)
class Transformer:
    """Descriptor naming an operation of a theory; ``tag`` carries the
    traditional pi-numbering used in graph listings."""

    name: str
    tag: str


@dataclass(frozen=True)
class BiformTheory:
    name: str
    level: Optional[LangLevel]  # None marks the higher-order theory
    extends: tuple[str, ...]
    axioms: tuple[tuple[str, Construction], ...]
    schemas: tuple[SchemaKind, ...] = ()
    transformers: tuple[Transformer, ...] = ()

    def __post_init__(self):
        for axiom_name, formula in self.axioms:
            if free_vars(formula):
                raise ValueError(f"axiom {axiom_name} of {self.name} is not closed")
            if self.level is not None and not is_fo(self.level, formula):
                raise ValueError(
                    f"axiom {axiom_name} exceeds level {self.level.value} of {self.name}"
                )
        if self.level is not None:
            for kind in self.schemas:
                if SCHEMA_LEVEL[kind] > self.level:
                    raise ValueError(f"schema {kind.value} exceeds level of {self.name}")


@dataclass(frozen=True)
class DecideL2:
    """Discharge by the level-2 decision procedure."""


@dataclass(frozen=True)
class RandomizedModelCheck:
    """Discharge by sampling assignments in the standard model.

    Leading universal quantifiers are stripped and their variables
    sampled from 0..bound; remaining quantifiers are evaluated by the
    bounded oracle at the same bound.
    """

    samples: int
    bound: int

    def __post_init__(self):
        # Reject a sample count that would check nothing, or a negative bound.
        if self.samples < 1:
            raise ValueError(f"samples must be positive, got {self.samples}")
        if self.bound < 0:
            raise ValueError(f"bound must be a natural, got {self.bound}")


DischargePolicy = Union[DecideL2, RandomizedModelCheck]


@dataclass(frozen=True)
class Obligation:
    name: str
    formula: Construction
    policy: DischargePolicy


@dataclass(frozen=True)
class Morphism:
    name: str
    source: str
    target: str
    symbol_map: tuple[tuple[str, str], ...]
    obligations: tuple[Obligation, ...]
    schema_obligations: tuple[SchemaKind, ...] = ()


_NULLARY = {"0": Zero}
_UNARY = {"S": Succ}
_BINARY_OPS = {"+": Plus, "*": Times}
_SYMBOL_OF = {ctor: sym for sym, ctor in _BINARY_OPS.items()}


def translate(c: Construction, symbol_map: tuple[tuple[str, str], ...]) -> Construction:
    """Rebuild a formula mapping each nonlogical constant through the
    symbol map; arities must agree."""
    mapping = dict(symbol_map)

    def image(sym: str, table) -> Callable:
        target = mapping.get(sym, sym)
        if target not in table:
            raise LanguageError(f"{sym!r} maps to {target!r}, which has the wrong arity")
        return table[target]

    def leaf(node: Construction) -> Construction:
        return image("0", _NULLARY)() if type(node) is Zero else node

    def rebuild(node: Construction, a: Construction, b: Optional[Construction] = None):
        ctor = type(node)
        if ctor is Succ:
            return image("S", _UNARY)(a)
        if b is not None:  # + and * map through the symbols; connectives and = stay
            if ctor in _SYMBOL_OF:
                ctor = image(_SYMBOL_OF[ctor], _BINARY_OPS)
            return ctor(a, b)
        return Not(a) if ctor is Not else ctor(node.var, a)

    return _fold(leaf, rebuild)(c)


# ---------------------------------------------------------------------------
# The named axioms, closed over their variables.

def _axioms() -> dict[str, Construction]:
    x, y = Var("x"), Var("y")
    return {
        "succ-nonzero": Forall("x", Not(Eq(Succ(x), Zero()))),
        "succ-injective": Forall("x", Forall("y", Implies(Eq(Succ(x), Succ(y)), Eq(x, y)))),
        "plus-zero": Forall("x", Eq(Plus(x, Zero()), x)),
        "plus-succ": Forall("x", Forall("y", Eq(Plus(x, Succ(y)), Succ(Plus(x, y))))),
        "times-zero": Forall("x", Eq(Times(x, Zero()), Zero())),
        "times-succ": Forall(
            "x", Forall("y", Eq(Times(x, Succ(y)), Plus(Times(x, y), x)))
        ),
        "zero-or-succ": Forall("x", Or(Eq(x, Zero()), Exists("y", Eq(Succ(y), x)))),
    }


AXIOMS = _axioms()

_L1_AXIOMS = ("succ-nonzero", "succ-injective")
_L2_AXIOMS = _L1_AXIOMS + ("plus-zero", "plus-succ")
_L3_AXIOMS = _L2_AXIOMS + ("times-zero", "times-succ")


def _named(names: tuple[str, ...]) -> tuple[tuple[str, Construction], ...]:
    return tuple((n, AXIOMS[n]) for n in names)


# The tag of each transformer a built-in theory carries.
_TRANSFORMER_TAGS = {
    "is-fo-l1": "pi1", "is-fo-l2": "pi5", "is-fo-l3": "pi9",
    "is-fo-l1-abs": "pi12", "is-fo-l2-abs": "pi15", "is-fo-l3-abs": "pi17",
    "bplus": "pi3", "bplus-rewrite": "pi4", "btimes": "pi7",
    "decide-bt5": "pi11", "decide-bt6": "pi14", "+-pred": "dd-plus", "*-pred": "dd-times",
}


@functools.cache
def _theories() -> dict[str, BiformTheory]:
    def bt(name, level, extends, axioms, schemas, transformers):
        return BiformTheory(name, level, extends, _named(axioms), schemas, tuple(
            Transformer(n, _TRANSFORMER_TAGS[n]) for n in transformers.split()))

    L1, L2, L3 = LangLevel.L1, LangLevel.L2, LangLevel.L3
    theories = [
        bt("BT1", L1, (), _L1_AXIOMS, (), "is-fo-l1"),
        bt("BT2", L2, ("BT1",), _L2_AXIOMS, (), "is-fo-l2 bplus bplus-rewrite"),
        bt("BT3", L3, ("BT2",), _L3_AXIOMS, (), "is-fo-l3 bplus bplus-rewrite btimes"),
        bt("BT4", L3, ("BT3",), _L3_AXIOMS + ("zero-or-succ",), (),
           "is-fo-l3 bplus bplus-rewrite btimes"),
        bt("BT5", L1, ("BT1",), _L1_AXIOMS, (SchemaKind.INDUCTION_L1,),
           "is-fo-l1 is-fo-l1-abs decide-bt5"),
        bt("BT6", L2, ("BT2", "BT5"), _L2_AXIOMS, (SchemaKind.INDUCTION_L2,),
           "is-fo-l2 is-fo-l2-abs bplus bplus-rewrite decide-bt6"),
        bt("BT7", L3, ("BT3", "BT6"), _L3_AXIOMS, (SchemaKind.INDUCTION_L3,),
           "is-fo-l3 is-fo-l3-abs bplus bplus-rewrite btimes"),
        bt("BT8", None, ("BT1",), (), (), "+-pred *-pred"),
    ]
    return {t.name.lower(): t for t in theories}


def registry() -> list[BiformTheory]:
    """The eight built-in theories with their axioms, schema kinds,
    transformer descriptors and inclusion edges, as a fresh list."""
    return list(_theories().values())


def theory(name: str) -> BiformTheory:
    try:
        return _theories()[name.lower()]
    except KeyError:
        raise KeyError(f"no such theory: {name}") from None


_IDENTITY_L3 = (("0", "0"), ("S", "S"), ("+", "+"), ("*", "*"))


@functools.cache
def _morphisms() -> dict[str, Morphism]:
    morphisms = [
        Morphism(
            name="BT4-to-BT7",
            source="BT4",
            target="BT7",
            symbol_map=_IDENTITY_L3,
            obligations=(
                Obligation("zero-or-succ", AXIOMS["zero-or-succ"], DecideL2()),
            ),
        ),
        Morphism(
            name="BT7-to-BT8",
            source="BT7",
            target="BT8",
            symbol_map=_IDENTITY_L3,
            obligations=(
                Obligation("plus-zero", AXIOMS["plus-zero"], DecideL2()),
                Obligation("plus-succ", AXIOMS["plus-succ"], DecideL2()),
                Obligation("times-zero", AXIOMS["times-zero"], RandomizedModelCheck(1000, 32)),
                Obligation("times-succ", AXIOMS["times-succ"], RandomizedModelCheck(1000, 32)),
            ),
            schema_obligations=(
                SchemaKind.INDUCTION_L1,
                SchemaKind.INDUCTION_L2,
                SchemaKind.INDUCTION_L3,
            ),
        ),
    ]
    return {m.name.lower(): m for m in morphisms}


def builtin_morphisms() -> list[Morphism]:
    """The built-in morphisms, as a fresh list."""
    return list(_morphisms().values())


def morphism(name: str) -> Morphism:
    try:
        return _morphisms()[name.lower()]
    except KeyError:
        raise KeyError(f"no such morphism: {name}") from None


# ---------------------------------------------------------------------------
# Reports.

@dataclass(frozen=True)
class ReportEntry:
    subject: str
    method: str
    passed: bool
    detail: str = ""

    def render(self) -> str:
        status = "Discharged" if self.passed else "Failed"
        line = f"{self.subject}: {status}({self.method})"
        if self.detail:
            line += f" {self.detail}"
        return line


@dataclass
class Report:
    title: str
    entries: list[ReportEntry]

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    def render(self) -> str:
        lines = [self.title] + ["  " + e.render() for e in self.entries]
        return "\n".join(lines)


def _strip_foralls(c: Construction) -> tuple[list[str], Construction]:
    names: list[str] = []
    while isinstance(c, Forall):
        names.append(c.var)
        c = c.body
    return names, c


def _model_check(
    formula: Construction, samples: int, bound: int, rng: random.Random
) -> Optional[Environment]:
    """Witness environment falsifying the stripped formula, or None.

    Each sample draws ``rng.randint(0, bound)`` for each stripped
    variable in order, so the draws, the ``rng`` state afterwards and the
    first failing sample are those of evaluating every sample.  The
    matrix is compiled once, the oracle runs once per distinct tuple of
    values (a tuple seen to pass is not evaluated again), and an
    :class:`Environment` is built only for the witness.
    """
    names, matrix = _strip_foralls(formula)
    holds = compile_oracle(matrix, bound)
    passed = set()
    for _ in range(samples if names else 1):
        values = tuple([rng.randint(0, bound) for _ in names])
        if values not in passed:
            if not holds(dict(zip(names, values))):
                return Environment(dict(zip(names, values)))
            passed.add(values)
    return None


def _sampled(subject: str, method: str, formula: Construction,
             check: RandomizedModelCheck, rng: random.Random) -> ReportEntry:
    """Report entry of a randomized model check, labelled
    ``method[samples x bound]``."""
    witness = _model_check(formula, check.samples, check.bound, rng)
    return ReportEntry(
        subject, f"{method}[{check.samples}x{check.bound}]", witness is None,
        "" if witness is None else f"counterexample {witness!r}",
    )


def check_axioms(t: BiformTheory, samples: int = 200, bound: int = 32,
                 seed: int = 0) -> Report:
    """Validate every axiom of a first-order theory in the standard model.

    Level-1 theories go through the successor-language decision
    procedure, level-2 sentences through quantifier elimination, and
    anything with products through the randomized bounded oracle, which
    runs once per distinct sample (see :func:`_model_check`).
    """
    if t.level is None:
        raise ValueError("check_axioms needs a first-order theory")
    check = RandomizedModelCheck(samples, bound)
    rng = random.Random(seed)
    entries = []
    for name, formula in t.axioms:
        if t.level == LangLevel.L1:
            verdict = decide_bt5(formula)
            entries.append(ReportEntry(name, "decide-bt5", verdict is TruthValue.TRUE))
        elif is_fo(LangLevel.L2, formula):
            verdict = decide_bt6(formula)
            entries.append(ReportEntry(name, "decide-bt6", verdict is TruthValue.TRUE))
        else:
            entries.append(_sampled(name, "bounded-oracle", formula, check, rng))
    return Report(f"axiom check for {t.name}", entries)


# Fixed predicate corpora for sampling schema obligations.

def _schema_predicates(kind: SchemaKind) -> list[Construction]:
    x = Var("x")
    base = [
        Abs("x", Eq(x, x)),
        Abs("x", Or(Eq(x, Zero()), Exists("y", Eq(Succ(Var("y")), x)))),
        Abs("x", Not(Eq(Succ(x), x))),
    ]
    if kind is SchemaKind.INDUCTION_L1:
        return base
    plus = [
        Abs("x", Eq(Plus(x, Zero()), x)),
        Abs("x", Eq(Plus(x, Succ(Zero())), Succ(x))),
        Abs("x", Eq(Plus(x, x), Plus(x, x))),
    ]
    if kind is SchemaKind.INDUCTION_L2:
        return base + plus
    times = [
        Abs("x", Eq(Times(x, Zero()), Zero())),
        Abs("x", Eq(Times(x, Succ(Succ(Zero()))), Plus(x, x))),
    ]
    return base + plus + times


# Schema instances outside level 2 are model-checked at this size.
_SCHEMA_CHECK = RandomizedModelCheck(200, 16)


def _discharge(subject: str, formula: Construction, policy: DischargePolicy,
               rng: random.Random, decided: dict) -> ReportEntry:
    """Discharge one closed formula by its policy.  A ``decide-l2``
    outcome is kept in ``decided``, the caller's dict from formula to
    outcome, and looked up there, so one formula is decided once.  A
    model check always runs, as it draws from ``rng``."""
    if isinstance(policy, RandomizedModelCheck):
        return _sampled(subject, "model-check", formula, policy, rng)
    outcome = decided.get(formula)
    if outcome is None:
        if not is_fo(LangLevel.L2, formula):
            outcome = (False, "not a level-2 sentence")
        else:
            outcome = (decide_bt6(formula) is TruthValue.TRUE, "")
        decided[formula] = outcome
    return ReportEntry(subject, "decide-l2", *outcome)


def check_morphism(m: Morphism, seed: int = 0) -> Report:
    """Translate each obligation along the symbol map and discharge it by
    its policy; schema obligations run on sampled predicate instances.

    Each distinct piece of work is done once per call: a schema
    instance is built once per predicate, a translated formula met again
    under ``decide-l2`` reuses the first decision (the schema corpora
    nest, so BT7-to-BT8 makes 8 decisions for its 17 decided entries),
    and a model check evaluates the oracle once per distinct sample.
    Every entry keeps its own subject, model checks are never shared,
    and the draws, witnesses and report text are those of discharging
    every entry afresh.  Nothing is kept between calls.
    """
    rng = random.Random(seed)
    decided: dict[Construction, tuple[bool, str]] = {}
    entries = []
    for ob in m.obligations:
        image = translate(ob.formula, m.symbol_map)
        if free_vars(image):
            entries.append(ReportEntry(ob.name, "well-formedness", False, "obligation is open"))
        else:
            entries.append(_discharge(ob.name, image, ob.policy, rng, decided))
    # Every corpus predicate passes its own level's gate, and an instance
    # does not depend on the level otherwise, so one is built per predicate.
    instances: dict[Construction, tuple[Construction, DischargePolicy]] = {}
    for kind in m.schema_obligations:
        for idx, pred in enumerate(_schema_predicates(kind)):
            if pred not in instances:
                instance = translate(induction_instance(kind, pred), m.symbol_map)
                instances[pred] = (
                    instance, DecideL2() if is_fo(LangLevel.L2, instance) else _SCHEMA_CHECK)
            instance, policy = instances[pred]
            entries.append(
                _discharge(f"{kind.value} instance {idx}", instance, policy, rng, decided))
    return Report(f"morphism check for {m.name}", entries)


# ---------------------------------------------------------------------------
# Definite-description checks for the higher-order theory.

def _plus_by_recursion(x: int, y: int) -> int:
    acc = x
    for _ in range(y):
        acc = acc + 1
    return acc


def _times_by_recursion(x: int, y: int) -> int:
    acc = 0
    for _ in range(y):
        acc = _plus_by_recursion(acc, x)
    return acc


def check_definite_description(
    samples: int = 32,
    plus_candidate: Optional[Callable[[int, int], int]] = None,
    times_candidate: Optional[Callable[[int, int], int]] = None,
) -> Report:
    """Check pointwise on 0..samples that the candidates (addition and
    multiplication by recursion, by default) satisfy the recursion
    clauses pinning down addition and multiplication, and that they
    agree with the standard operations."""
    plus_fn = plus_candidate if plus_candidate is not None else _plus_by_recursion
    times_fn = times_candidate if times_candidate is not None else _times_by_recursion
    points = range(samples + 1)
    entries = []

    def clause(subject: str, ok: bool, witness: str = ""):
        entries.append(ReportEntry(subject, "pointwise", ok, witness))

    bad = next((x for x in points if plus_fn(x, 0) != x), None)
    clause("plus base clause", bad is None, "" if bad is None else f"x={bad}")
    bad2 = next(((x, y) for x in points for y in points
                 if plus_fn(x, y + 1) != plus_fn(x, y) + 1), None)
    clause("plus step clause", bad2 is None, "" if bad2 is None else f"{bad2}")
    bad = next((x for x in points if times_fn(x, 0) != 0), None)
    clause("times base clause", bad is None, "" if bad is None else f"x={bad}")
    bad2 = next(((x, y) for x in points for y in points
                 if times_fn(x, y + 1) != times_fn(x, y) + x), None)
    clause("times step clause", bad2 is None, "" if bad2 is None else f"{bad2}")

    bad2 = next(((x, y) for x in points for y in points if plus_fn(x, y) != x + y), None)
    clause("plus uniqueness", bad2 is None, "" if bad2 is None else f"disagrees at {bad2}")
    bad2 = next(((x, y) for x in points for y in points if times_fn(x, y) != x * y), None)
    clause("times uniqueness", bad2 is None, "" if bad2 is None else f"disagrees at {bad2}")

    return Report("definite-description check", entries)


# ---------------------------------------------------------------------------
# Theory-graph description files.

# A comment runs from a ``#`` to the end of the line; ``#b`` starts a
# binary literal instead.
_COMMENT = re.compile(r"#(?!b).*")


def render_theory_graph(theories: list[BiformTheory], morphisms: list[Morphism]) -> str:
    lines: list[str] = []
    for t in theories:
        level = "higher-order" if t.level is None else str(t.level.value)
        lines.append(f"theory {t.name}")
        lines.append(f"  level {level}")
        for parent in t.extends:
            lines.append(f"  extends {parent}")
        for name, formula in t.axioms:
            lines.append(f"  axiom {name} {to_sexpr(formula)}")
        for kind in t.schemas:
            lines.append(f"  schema {kind.value}")
        lines.append("")
    for m in morphisms:
        lines.append(f"morphism {m.name}")
        lines.append(f"  source {m.source}")
        lines.append(f"  target {m.target}")
        for a, b in m.symbol_map:
            lines.append(f"  map {a} {b}")
        for ob in m.obligations:
            match ob.policy:
                case DecideL2():
                    policy = "decide-l2"
                case RandomizedModelCheck(samples, bound):
                    policy = f"model-check {samples} {bound}"
            lines.append(f"  obligation {ob.name} {policy} {to_sexpr(ob.formula)}")
        for kind in m.schema_obligations:
            lines.append(f"  schema-obligation {kind.value}")
        lines.append("")
    return "\n".join(lines)


def parse_theory_graph(text: str) -> tuple[dict[str, BiformTheory], dict[str, Morphism]]:
    """Parse the line-oriented graph description format produced by
    :func:`render_theory_graph`."""
    theories: dict[str, BiformTheory] = {}
    morphisms: dict[str, Morphism] = {}
    current: Optional[dict] = None

    def close():
        nonlocal current
        if current is None:
            return
        if current["kind"] == "theory":
            try:
                t = BiformTheory(
                    name=current["name"],
                    level=current["level"],
                    extends=tuple(current["extends"]),
                    axioms=tuple(current["axioms"]),
                    schemas=tuple(current["schemas"]),
                )
            except ValueError as err:
                raise ParseError(f"line {current['line']}: {err}", 0) from None
            theories[t.name] = t
        else:
            m = Morphism(
                name=current["name"],
                source=current["source"],
                target=current["target"],
                symbol_map=tuple(current["map"]),
                obligations=tuple(current["obligations"]),
                schema_obligations=tuple(current["schemas"]),
            )
            morphisms[m.name] = m
        current = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw).strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head in ("theory", "morphism"):
            close()
            current = {
                "kind": head, "line": lineno, "name": rest, "level": None, "extends": [],
                "axioms": [], "schemas": [], "map": [], "obligations": [],
                "source": "", "target": "",
            }
            continue
        if current is None:
            raise ParseError(f"line {lineno}: directive outside a record", 0)
        if head == "level":
            try:
                current["level"] = None if rest == "higher-order" else LangLevel(int(rest))
            except ValueError:
                raise ParseError(f"line {lineno}: bad level {rest!r}", 0) from None
        elif head == "extends":
            current["extends"].append(rest)
        elif head == "axiom":
            name, _, body = rest.partition(" ")
            current["axioms"].append((name, parse_construction(body)))
        elif head in ("schema", "schema-obligation"):
            try:
                current["schemas"].append(SchemaKind(rest))
            except ValueError:
                raise ParseError(f"line {lineno}: unknown schema kind {rest!r}", 0) from None
        elif head == "source":
            current["source"] = rest
        elif head == "target":
            current["target"] = rest
        elif head == "map":
            a, _, b = rest.partition(" ")
            current["map"].append((a, b.strip()))
        elif head == "obligation":
            name, _, tail = rest.partition(" ")
            policy_word, _, tail = tail.partition(" ")
            if policy_word == "decide-l2":
                policy: DischargePolicy = DecideL2()
                body = tail
            elif policy_word == "model-check":
                samples_word, _, tail = tail.partition(" ")
                bound_word, _, body = tail.partition(" ")
                try:
                    policy = RandomizedModelCheck(int(samples_word), int(bound_word))
                except ValueError as err:
                    raise ParseError(f"line {lineno}: {err}", 0) from None
            else:
                raise ParseError(f"line {lineno}: unknown policy {policy_word!r}", 0)
            current["obligations"].append(Obligation(name, parse_construction(body), policy))
        else:
            raise ParseError(f"line {lineno}: unknown directive {head!r}", 0)
    close()
    return theories, morphisms
