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
from typing import Callable, Optional, Union

from .errors import LanguageError, NotAnAbstraction, ParseError, SortError
from .presburger import TruthValue, compile_oracle, decide_bt5, decide_bt6
from .recognizers import LangLevel, is_fo, is_fo_abs
from .semantics import Environment
from .sexpr import parse_construction, to_sexpr
from .syntax import (
    And, Construction, Eq, Exists, Forall, Implies, Not, Or, Plus, Sort, Succ, Times, Var,
    Zero, _fold, _Record, abs_body, free_vars, is_abs, sort_of, substitute,
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
    quantifying over the abstraction's own variable.  A(x) is the body
    itself, which substituting x for x would rebuild unchanged, so an
    instance takes two substitutions, for A(0) and A(s x).
    """
    if not is_abs(pred):
        raise NotAnAbstraction("induction needs a predicate abstraction")
    sort_of(pred)  # raises SortError unless the body is a formula
    level = SCHEMA_LEVEL[kind]
    if not is_fo_abs(level, pred):
        raise LanguageError(f"predicate body exceeds language level {level.value}")
    v = pred.var
    body = abs_body(pred)
    base = substitute(body, v, Zero())
    step = Forall(v, Implies(body, substitute(body, v, Succ(Var(v)))))
    return Implies(And(base, step), Forall(v, body))


# ---------------------------------------------------------------------------
# Theory and morphism records.

class Transformer(_Record):
    """Descriptor naming an operation of a theory; ``tag`` carries the
    traditional pi-numbering used in graph listings."""

    __slots__ = ("name", "tag")


def _is_formula(c: Construction) -> bool:
    """Whether ``c`` is well sorted, of sort bool."""
    try:
        return sort_of(c) is Sort.BOOL
    except SortError:
        return False


class BiformTheory(_Record):
    """A theory; its ``level`` is None for the higher-order theory."""

    __slots__ = ("name", "level", "extends", "axioms", "schemas", "transformers")
    _defaults = {"schemas": (), "transformers": ()}

    def __post_init__(self):
        for axiom_name, formula in self.axioms:
            if not _is_formula(formula):
                raise ValueError(f"axiom {axiom_name} of {self.name} is not a formula")
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


class DecideL2(_Record):
    """Discharge by the level-2 decision procedure."""

    __slots__ = ()


class RandomizedModelCheck(_Record):
    """Discharge by sampling assignments in the standard model.

    Leading universal quantifiers are stripped and their variables
    sampled ``samples`` times from 0..``bound``; remaining quantifiers
    are evaluated by the bounded oracle at the same bound.
    """

    __slots__ = ("samples", "bound")

    def __post_init__(self):
        # Reject a sample count that would check nothing, or a negative bound.
        if self.samples < 1:
            raise ValueError(f"samples must be positive, got {self.samples}")
        if self.bound < 0:
            raise ValueError(f"bound must be a natural, got {self.bound}")


DischargePolicy = Union[DecideL2, RandomizedModelCheck]


class Obligation(_Record):
    __slots__ = ("name", "formula", "policy")

    def __post_init__(self):
        if not _is_formula(self.formula):
            raise ValueError(f"obligation {self.name} is not a formula")


class Morphism(_Record):
    __slots__ = ("name", "source", "target", "symbol_map", "obligations",
                 "schema_obligations")
    _defaults = {"schema_obligations": ()}


_NULLARY = {"0": Zero}
_UNARY = {"S": Succ}
_BINARY_OPS = {"+": Plus, "*": Times}
_SYMBOL_OF = {ctor: sym for sym, ctor in _BINARY_OPS.items()}


def translate(c: Construction, symbol_map: tuple[tuple[str, str], ...]) -> Construction:
    """Rebuild a formula mapping each nonlogical constant through the
    symbol map; arities must agree.  A map that sends every symbol to
    itself, the empty one included, returns the formula unrebuilt."""
    mapping = dict(symbol_map)
    if all(mapping.get(sym, sym) == sym for sym in ("0", "S", "+", "*")):
        return c

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

class ReportEntry(_Record):
    __slots__ = ("subject", "method", "passed", "detail")
    _defaults = {"detail": ""}

    def render(self) -> str:
        status = "Discharged" if self.passed else "Failed"
        line = f"{self.subject}: {status}({self.method})"
        if self.detail:
            line += f" {self.detail}"
        return line


class Report(_Record):
    __slots__ = ("title", "entries")  # entries: a tuple of ReportEntry

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

    Each sample draws, for each stripped variable in order, what
    ``rng.randint(0, bound)`` draws: ``rng.getrandbits(k)`` with
    ``k = (bound + 1).bit_length()``, again while the result exceeds
    ``bound``.  So the draws, the ``rng`` state afterwards and the first
    failing sample are those of evaluating every sample.  The matrix is
    compiled once and the oracle runs once per distinct sample, keyed by
    its draws read as the digits of an int in base ``bound + 1`` (a sample
    seen to pass is not evaluated again).  One scope dict is written in
    place for every sample, and an :class:`Environment` is built only for
    the witness.
    """
    names, matrix = _strip_foralls(formula)
    holds = compile_oracle(matrix, bound)
    passed, width, scope = set(), bound + 1, dict.fromkeys(names, 0)
    k, getrandbits = width.bit_length(), rng.getrandbits
    for _ in range(samples if names else 1):
        key = 0
        for v in names:
            r = getrandbits(k)
            while r >= width:
                r = getrandbits(k)
            scope[v] = r
            key = key * width + r
        if key not in passed:
            if not holds(scope):
                return Environment(scope)
            passed.add(key)
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
    runs once per distinct sample (see :func:`_model_check`).  Each axiom
    is classified once, by the decision procedure it is first sent to.
    """
    if t.level is None:
        raise ValueError("check_axioms needs a first-order theory")
    check = RandomizedModelCheck(samples, bound)
    rng = random.Random(seed)
    decide, method = ((decide_bt5, "decide-bt5") if t.level == LangLevel.L1
                      else (decide_bt6, "decide-bt6"))
    entries = []
    for name, formula in t.axioms:
        try:
            verdict = decide(formula)
        except (LanguageError, SortError):
            entries.append(_sampled(name, "bounded-oracle", formula, check, rng))
        else:
            entries.append(ReportEntry(name, method, verdict is TruthValue.TRUE))
    return Report(f"axiom check for {t.name}", tuple(entries))


# The fixed predicate corpus for sampling schema obligations; each kind
# samples a prefix of it: successor predicates, then sums, then products.
_CORPUS = tuple(parse_construction(f"(lambda x {body})") for body in (
    "(= x x)", "(or (= x z) (exists y (= (s y) x)))", "(not (= (s x) x))",
    "(= (+ x z) x)", "(= (+ x (s z)) (s x))", "(= (+ x x) (+ x x))",
    "(= (* x z) z)", "(= (* x (s (s z))) (+ x x))",
))
_CORPUS_SIZE = dict(zip(SchemaKind, (3, 6, 8)))


def _schema_predicates(kind: SchemaKind) -> list[Construction]:
    return list(_CORPUS[:_CORPUS_SIZE[kind]])


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
        try:
            outcome = (decide_bt6(formula) is TruthValue.TRUE, "")
        except (LanguageError, SortError):
            outcome = (False, "not a level-2 sentence")
        decided[formula] = outcome
    return ReportEntry(subject, "decide-l2", *outcome)


def check_morphism(m: Morphism, seed: int = 0) -> Report:
    """Translate each obligation along the symbol map and discharge it by
    its policy; schema obligations run on sampled predicate instances.

    Each distinct piece of work is done once per call: a schema instance
    is built, and decided at level 2, once per corpus index (the corpora
    nest, so BT7-to-BT8 builds 8 instances for its 17 schema entries and
    makes 6 decisions for its 15 decided ones), an obligation met again
    under ``decide-l2`` reuses the decision of an equal formula, and a
    model check evaluates the oracle once per distinct sample.  Every
    entry keeps its own subject, model checks are never shared, and the
    draws, witnesses and report text are those of discharging every entry
    afresh.  Nothing is kept between calls.
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
    # does not depend on the level otherwise, so one slot per corpus index
    # holds a level-2 instance's verdict, or any other instance to check.
    slots: list = [None] * len(_CORPUS)
    for kind in m.schema_obligations:
        for idx in range(_CORPUS_SIZE[kind]):
            slot = slots[idx]
            if slot is None:
                slot = translate(induction_instance(kind, _CORPUS[idx]), m.symbol_map)
                try:
                    slot = decide_bt6(slot) is TruthValue.TRUE
                except (LanguageError, SortError):  # model-checked below
                    pass
                slots[idx] = slot
            subject = f"{kind.value} instance {idx}"
            entries.append(ReportEntry(subject, "decide-l2", slot) if type(slot) is bool
                           else _sampled(subject, "model-check", slot, _SCHEMA_CHECK, rng))
    return Report(f"morphism check for {m.name}", tuple(entries))


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
    pairs, bases = [(x, y) for x in points for y in points], [(x, 0) for x in points]
    # Each candidate is called once per point: row x holds fn(x, 0..samples + 1).
    plus = [[plus_fn(x, y) for y in range(samples + 2)] for x in points]
    times = [[times_fn(x, y) for y in range(samples + 2)] for x in points]
    entries = []

    def clause(subject: str, cases, fails, witness: str):
        bad = next((p for p in cases if fails(*p)), None)
        entries.append(ReportEntry(subject, "pointwise", bad is None,
                                   "" if bad is None else witness.format(*bad)))

    clause("plus base clause", bases, lambda x, _: plus[x][0] != x, "x={}")
    clause("plus step clause", pairs, lambda x, y: plus[x][y + 1] != plus[x][y] + 1, "({}, {})")
    clause("times base clause", bases, lambda x, _: times[x][0] != 0, "x={}")
    clause("times step clause", pairs,
           lambda x, y: times[x][y + 1] != times[x][y] + x, "({}, {})")
    clause("plus uniqueness", pairs, lambda x, y: plus[x][y] != x + y, "disagrees at ({}, {})")
    clause("times uniqueness", pairs, lambda x, y: times[x][y] != x * y,
           "disagrees at ({}, {})")
    return Report("definite-description check", tuple(entries))


# ---------------------------------------------------------------------------
# Theory-graph description files.

# A comment runs from a ``#`` to the end of the line; ``#b`` starts a
# binary literal instead.
_COMMENT = re.compile(r"#(?!b).*")


def _one_of(what: str, words: dict) -> tuple[Callable, Callable]:
    """Reader and writer of a field whose values are each one word."""
    values = {word: value for value, word in words.items()}

    def read(text: str):
        if text not in values:
            raise ValueError(f"{what} {text!r}")
        return values[text]

    return read, words.__getitem__


def _read_formula(text: str, body: str, what: str) -> Construction:
    """The formula ``body``, the tail of ``text``; ``what`` names anything else."""
    try:  # positions count from the start of ``text``
        c = parse_construction(body)
    except ParseError as err:
        raise ParseError(err.message, err.position + len(text) - len(body)) from None
    if not _is_formula(c):
        raise ValueError(f"{what} is not a formula")
    return c


def _read_axiom(text: str) -> tuple[str, Construction]:
    name, _, body = text.partition(" ")
    return name, _read_formula(text, body, f"axiom {name}")


def _read_map(text: str) -> tuple[str, str]:
    pair = tuple(text.split())
    if len(pair) != 2:
        raise ValueError(f"map needs two symbols, got {text!r}")
    return pair


def _read_obligation(text: str) -> Obligation:
    name, _, rest = text.partition(" ")
    word, _, body = rest.partition(" ")
    if word == "decide-l2":
        policy: DischargePolicy = DecideL2()
    elif word == "model-check":
        samples, _, body = body.partition(" ")
        bound, _, body = body.partition(" ")
        policy = RandomizedModelCheck(int(samples), int(bound))
    else:
        raise ValueError(f"unknown policy {word!r}")
    return Obligation(name, _read_formula(text, body, f"obligation {name}"), policy)


def _write_obligation(ob: Obligation) -> str:
    policy = ("decide-l2" if isinstance(ob.policy, DecideL2)
              else f"model-check {ob.policy.samples} {ob.policy.bound}")
    return f"{ob.name} {policy} {to_sexpr(ob.formula)}"


_LEVEL = _one_of("bad level", {None: "higher-order", **{v: str(v.value) for v in LangLevel}})
_SCHEMA = _one_of("unknown schema kind", {k: k.value for k in SchemaKind})

# The record kinds of the format: each kind's class and its directives in
# print order.  A directive names the field it fills, the field's value
# before the record's first such line (a tuple, which each line extends,
# for a directive that repeats; otherwise the value a line replaces),
# and how a value is read from and written to the rest of its line.
_GRAPH = {
    "theory": (BiformTheory, {
        "level": ("level", None, *_LEVEL),
        "extends": ("extends", (), str, str),
        "axiom": ("axioms", (), _read_axiom, lambda a: f"{a[0]} {to_sexpr(a[1])}"),
        "schema": ("schemas", (), *_SCHEMA),
    }),
    "morphism": (Morphism, {
        "source": ("source", "", str, str),
        "target": ("target", "", str, str),
        "map": ("symbol_map", (), _read_map, " ".join),
        "obligation": ("obligations", (), _read_obligation, _write_obligation),
        "schema-obligation": ("schema_obligations", (), *_SCHEMA),
    }),
}


def render_theory_graph(theories: list[BiformTheory], morphisms: list[Morphism]) -> str:
    lines: list[str] = []
    for kind, records in (("theory", theories), ("morphism", morphisms)):
        for r in records:
            lines.append(f"{kind} {r.name}")
            for word, (field, start, _, write) in _GRAPH[kind][1].items():
                value = getattr(r, field)
                for v in value if isinstance(start, tuple) else (value,):
                    lines.append(f"  {word} {write(v)}")
            lines.append("")
    return "\n".join(lines)


def parse_theory_graph(text: str) -> tuple[dict[str, BiformTheory], dict[str, Morphism]]:
    """Parse the line-oriented graph description format produced by
    :func:`render_theory_graph`.  Each record kind takes only its own
    directives.  A fault in a line raises a ParseError naming that line
    as the line is read, at the column of its value (or its end) or of
    the fault in the value's s-expression; a record is built when its
    block ends, and a fault in it names its header's line at position 0."""
    records: dict[str, dict] = {"theory": {}, "morphism": {}}
    kind = None  # the open record's kind, header line, fields and directives

    def close():
        if kind is not None:
            try:
                record = _GRAPH[kind][0](**fields)
            except ValueError as err:
                raise ParseError(f"line {header}: {err}", 0) from None
            records[kind][record.name] = record

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw).rstrip()
        if not line:
            continue
        head, _, rest = line.lstrip().partition(" ")
        rest = rest.strip()
        at = len(line) - len(rest)  # the value's column, or the line's end
        if head in _GRAPH:
            close()
            kind, header, directives = head, lineno, _GRAPH[head][1]
            fields = {"name": rest} | {f: start for f, start, *_ in directives.values()}
            given: set[str] = set()  # the open record's one-value directives so far
        try:
            if head in _GRAPH:
                if not rest:
                    raise ValueError(f"{head} needs a name")
                if rest in records[kind]:
                    raise ValueError(f"{kind} {rest} is already defined")
            elif kind is None:
                raise ValueError("directive outside a record")
            elif head not in directives:
                raise ValueError(f"unknown {kind} directive {head!r}")
            elif not rest:
                raise ValueError(f"{head} needs a value")
            elif head in given:
                raise ValueError(f"a second {head} line in {kind} {fields['name']}")
            else:
                field, start, read, _ = directives[head]
                value = read(rest)
                if isinstance(start, tuple):
                    fields[field] += (value,)
                else:
                    fields[field] = value
                    given.add(head)
        except ParseError as err:
            raise ParseError(f"line {lineno}: {err.message}", at + err.position) from None
        except ValueError as err:
            raise ParseError(f"line {lineno}: {err}", at) from None
    close()
    return records["theory"], records["morphism"]
