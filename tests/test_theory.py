import importlib
import random
import types

import pytest

from biforge import presburger, recognizers
from biforge.binum import of_nat, to_construction
from biforge.errors import LanguageError, NotAnAbstraction, ParseError, SortError
from biforge.presburger import TruthValue, bounded_oracle, compile_oracle, decide_bt6
from biforge.recognizers import LangLevel, is_fo
from biforge.semantics import Environment
from biforge.sexpr import parse_construction
from biforge.theory import (
    AXIOMS, BiformTheory, DecideL2, Morphism, Obligation,
    RandomizedModelCheck, Report, ReportEntry, SchemaKind, _model_check, _strip_foralls,
    builtin_morphisms, check_axioms, check_definite_description,
    check_morphism, induction_instance, morphism, parse_theory_graph,
    registry, render_theory_graph, theory, translate,
)
from biforge.syntax import (
    Abs, And, Eq, Forall, Implies, Plus, Succ, TT, Times, Var, Zero,
    free_vars, is_closed,
)
from biforge.recognizers import is_fo_abs
from biforge.syntax import Exists, Not, Or, abs_body, substitute

x = Var("x")


def test_induction_instance_shape():
    pred = Abs("x", Eq(Plus(x, Zero()), x))
    instance = induction_instance(SchemaKind.INDUCTION_L2, pred)
    base = Eq(Plus(Zero(), Zero()), Zero())
    step = Forall("x", Implies(Eq(Plus(x, Zero()), x),
                               Eq(Plus(Succ(x), Zero()), Succ(x))))
    conclusion = Forall("x", Eq(Plus(x, Zero()), x))
    assert instance == Implies(And(base, step), conclusion)
    assert is_closed(instance)
    assert decide_bt6(instance) is TruthValue.TRUE


def test_induction_instance_gates():
    with pytest.raises(NotAnAbstraction):
        induction_instance(SchemaKind.INDUCTION_L2, TT())
    with pytest.raises(LanguageError):
        induction_instance(
            SchemaKind.INDUCTION_L2, Abs("x", Eq(Times(x, Zero()), Zero()))
        )


@pytest.mark.parametrize("kind", list(SchemaKind))
@pytest.mark.parametrize("body, message", [
    (Plus(x, x), "lambda needs a bool argument, got nat"),
    (Times(x, x), "lambda needs a bool argument, got nat"),
    (Abs("y", TT()), "lambda needs a bool argument, got abs-pred"),
    (And(TT(), Succ(x)), "and needs a bool argument, got nat"),
], ids=["sum", "product", "abstraction", "ill-sorted-formula"])
def test_induction_instance_refuses_an_ill_sorted_predicate(kind, body, message):
    # sort_of raises the same error on the predicate, at every level.
    with pytest.raises(SortError) as err:
        induction_instance(kind, Abs("x", body))
    assert str(err.value) == message


def test_registry_contents():
    theories = {t.name: t for t in registry()}
    assert len(theories) == 8
    edges = {(p, t.name) for t in theories.values() for p in t.extends}
    assert edges == {
        ("BT1", "BT2"), ("BT2", "BT3"), ("BT3", "BT4"), ("BT1", "BT5"),
        ("BT2", "BT6"), ("BT3", "BT7"), ("BT5", "BT6"), ("BT6", "BT7"),
        ("BT1", "BT8"),
    }
    bt6 = theories["BT6"]
    assert [n for n, _ in bt6.axioms] == [
        "succ-nonzero", "succ-injective", "plus-zero", "plus-succ",
    ]
    assert bt6.schemas == (SchemaKind.INDUCTION_L2,)
    assert [n for n, _ in theories["BT4"].axioms][-1] == "zero-or-succ"
    assert theories["BT5"].schemas == (SchemaKind.INDUCTION_L1,)
    assert theories["BT7"].schemas == (SchemaKind.INDUCTION_L3,)
    assert theories["BT8"].level is None
    assert {tr.name for tr in theories["BT8"].transformers} == {"+-pred", "*-pred"}


def test_registry_transformer_placement():
    theories = {t.name: t for t in registry()}
    for name in ("BT2", "BT3", "BT4", "BT6", "BT7"):
        assert {"bplus", "bplus-rewrite"} <= {tr.name for tr in theories[name].transformers}
    for name in ("BT3", "BT4", "BT7"):
        assert "btimes" in {tr.name for tr in theories[name].transformers}
    assert "decide-bt5" in {tr.name for tr in theories["BT5"].transformers}
    assert "decide-bt6" in {tr.name for tr in theories["BT6"].transformers}


def test_registry_transformer_listing():
    # A transformer descriptor is a name and a tag, in this order per theory.
    listing = [(t.name, [(tr.name, tr.tag) for tr in t.transformers]) for t in registry()]
    plus = [("bplus", "pi3"), ("bplus-rewrite", "pi4")]
    assert listing == [
        ("BT1", [("is-fo-l1", "pi1")]),
        ("BT2", [("is-fo-l2", "pi5"), *plus]),
        ("BT3", [("is-fo-l3", "pi9"), *plus, ("btimes", "pi7")]),
        ("BT4", [("is-fo-l3", "pi9"), *plus, ("btimes", "pi7")]),
        ("BT5", [("is-fo-l1", "pi1"), ("is-fo-l1-abs", "pi12"), ("decide-bt5", "pi11")]),
        ("BT6", [("is-fo-l2", "pi5"), ("is-fo-l2-abs", "pi15"), *plus, ("decide-bt6", "pi14")]),
        ("BT7", [("is-fo-l3", "pi9"), ("is-fo-l3-abs", "pi17"), *plus, ("btimes", "pi7")]),
        ("BT8", [("+-pred", "dd-plus"), ("*-pred", "dd-times")]),
    ]


def test_level_gating_asserted_at_construction():
    with pytest.raises(ValueError):
        BiformTheory(
            "bad", LangLevel.L2, (), (("times", AXIOMS["times-zero"]),)
        )
    with pytest.raises(ValueError):
        BiformTheory(
            "open-axiom", LangLevel.L2, (), (("open", Eq(x, Zero())),)
        )
    with pytest.raises(ValueError):
        BiformTheory(
            "bad-schema", LangLevel.L1, (),
            (("a1", AXIOMS["succ-nonzero"]),), (SchemaKind.INDUCTION_L2,),
        )


def test_a_term_is_no_axiom_and_no_obligation():
    # A level-2 term passes is_fo, which checks the language level, not the
    # sort; before the record checked the sort, check_axioms of this theory
    # raised SortError from decide_bt6.
    term = Plus(Zero(), Zero())
    assert is_fo(LangLevel.L2, term)
    with pytest.raises(ValueError, match=r"^axiom a of T is not a formula$"):
        BiformTheory("T", LangLevel.L2, (), (("a", term),))
    ill_sorted = Eq(TT(), Zero())
    with pytest.raises(ValueError, match=r"^axiom a of T is not a formula$"):
        BiformTheory("T", None, (), (("a", ill_sorted),))
    for value in (term, ill_sorted, Abs("x", Eq(x, x))):
        with pytest.raises(ValueError, match=r"^obligation t is not a formula$"):
            Obligation("t", value, DecideL2())
    assert Obligation("t", Eq(term, Zero()), DecideL2()).formula == Eq(term, Zero())


def test_check_axioms_bt2():
    report = check_axioms(theory("BT2"))
    assert report.ok
    assert all(e.method == "decide-bt6" for e in report.entries)


def test_check_axioms_bt3_uses_oracle_for_products():
    report = check_axioms(theory("BT3"), samples=60, bound=16)
    by_name = {e.subject: e for e in report.entries}
    assert by_name["times-zero"].method.startswith("bounded-oracle")
    assert by_name["plus-zero"].method == "decide-bt6"
    assert report.ok


def test_check_axioms_flags_corrupted_axiom():
    bad = BiformTheory(
        "corrupted", LangLevel.L1, (),
        (("broken", Eq(Zero(), Succ(Zero()))),),
    )
    report = check_axioms(bad)
    assert not report.ok
    assert report.entries[0].subject == "broken"


def test_check_morphism_bt4_to_bt7():
    report = check_morphism(morphism("BT4-to-BT7"))
    assert report.ok
    assert report.entries[0].subject == "zero-or-succ"
    assert report.entries[0].method == "decide-l2"


def test_identity_morphism_discharges_trivially():
    bt1 = theory("BT1")
    m = Morphism(
        name="BT1-to-BT1",
        source="BT1",
        target="BT1",
        symbol_map=(("0", "0"), ("S", "S")),
        obligations=tuple(
            Obligation(n, f, DecideL2()) for n, f in bt1.axioms
        ),
    )
    report = check_morphism(m)
    assert report.ok


def test_check_morphism_bt7_to_bt8():
    report = check_morphism(morphism("BT7-to-BT8"))
    assert report.ok
    methods = {e.subject: e.method for e in report.entries}
    assert methods["plus-zero"] == "decide-l2"
    assert methods["times-succ"] == "model-check[1000x32]"
    assert any(s.startswith("induction-l3") for s in methods)


def test_check_morphism_reports_false_obligation():
    m = Morphism(
        name="bogus",
        source="BT1",
        target="BT1",
        symbol_map=(("0", "0"), ("S", "S")),
        obligations=(
            Obligation("false-claim", Forall("x", Eq(Succ(x), x)), DecideL2()),
        ),
    )
    report = check_morphism(m)
    assert not report.ok


def test_translate_identity_and_arity():
    f = AXIOMS["plus-succ"]
    assert translate(f, (("0", "0"), ("S", "S"), ("+", "+"), ("*", "*"))) == f
    with pytest.raises(LanguageError):
        translate(f, (("+", "S"),))


def test_check_definite_description():
    report = check_definite_description(24)
    assert report.ok
    subjects = [e.subject for e in report.entries]
    assert "plus base clause" in subjects
    assert "times step clause" in subjects


def test_definite_description_rejects_wrong_function():
    report = check_definite_description(16, plus_candidate=lambda a, b: b)
    assert not report.ok
    failing = {e.subject for e in report.entries if not e.passed}
    assert "plus uniqueness" in failing


def test_definite_description_clauses_check_the_candidate():
    report = check_definite_description(16, plus_candidate=lambda a, b: b)
    failing = {e.subject: e.detail for e in report.entries if not e.passed}
    assert failing["plus base clause"] == "x=1"
    assert "plus uniqueness" in failing
    wrong_times = check_definite_description(8, times_candidate=lambda a, b: a * b + (a == 3))
    failing = {e.subject: e.detail for e in wrong_times.entries if not e.passed}
    assert failing["times base clause"] == "x=3"
    assert "times uniqueness" in failing
    assert "times step clause" not in failing
    doubling = check_definite_description(4, plus_candidate=lambda a, b: a + 2 * b)
    assert {e.subject: e.detail for e in doubling.entries if not e.passed} == {
        "plus step clause": "(0, 0)", "plus uniqueness": "disagrees at (0, 1)"}


def test_theory_graph_keeps_binary_literals():
    text = (
        "theory T  # a comment\n"
        "  level 2\n"
        "  axiom two-plus (= (+ #b1 #b1) #b10)  # one and one\n"
    )
    theories, _ = parse_theory_graph(text)
    ((name, formula),) = theories["T"].axioms
    assert name == "two-plus"
    assert formula == parse_construction("(= (+ #b1 #b1) #b10)")


def test_theory_graph_round_trip():
    theories = [t for t in registry() if t.name in ("BT1", "BT4", "BT6")]
    morphisms = builtin_morphisms()
    text = render_theory_graph(theories, morphisms)
    parsed_theories, parsed_morphisms = parse_theory_graph(text)
    for t in theories:
        p = parsed_theories[t.name]
        assert p.level == t.level
        assert p.extends == t.extends
        assert p.axioms == t.axioms
        assert p.schemas == t.schemas
    for m in morphisms:
        p = parsed_morphisms[m.name]
        assert p.source == m.source and p.target == m.target
        assert p.symbol_map == m.symbol_map
        assert p.obligations == m.obligations
        assert p.schema_obligations == m.schema_obligations


def test_lookups_are_case_insensitive_and_shared():
    assert theory("bt2") is theory("BT2")
    assert morphism("bt7-TO-bt8") is morphism("BT7-to-BT8")
    with pytest.raises(KeyError, match="no such theory: BT99"):
        theory("BT99")
    with pytest.raises(KeyError, match="no such morphism: nope"):
        morphism("nope")


def test_mutating_returned_lists_leaves_lookups_intact():
    listed = registry()
    listed.clear()
    builtin_morphisms().clear()
    assert theory("BT1").name == "BT1"
    assert len(registry()) == 8
    assert morphism("BT4-to-BT7").name == "BT4-to-BT7"
    assert len(builtin_morphisms()) == 2


def test_model_check_witness_matches_oracle_loop():
    formula = parse_construction("(forall x (forall y (= (* x y) (+ y (s z)))))")
    got = _model_check(formula, 50, 7, random.Random(5))

    # The sampling loop, one bounded_oracle call per environment.
    rng = random.Random(5)
    names, matrix = _strip_foralls(formula)
    expected = None
    for _ in range(50):
        env = Environment({v: rng.randint(0, 7) for v in names})
        if not bounded_oracle(matrix, env, 7):
            expected = env
            break
    assert expected is not None
    assert repr(got) == repr(expected)


def test_vacuous_model_checks_are_rejected():
    with pytest.raises(ValueError, match="samples must be positive, got 0"):
        RandomizedModelCheck(0, 32)
    with pytest.raises(ValueError, match="bound must be a natural, got -1"):
        RandomizedModelCheck(10, -1)
    with pytest.raises(ValueError, match="samples must be positive, got -5"):
        check_axioms(theory("BT3"), samples=-5)
    with pytest.raises(ValueError, match="bound must be a natural, got -3"):
        check_axioms(theory("BT3"), bound=-3)
    text = (
        "morphism M\n"
        "  source BT3\n"
        "  target BT3\n"
        "  obligation bogus model-check 0 32 (forall x (= (* x z) (s z)))\n"
    )
    with pytest.raises(ParseError, match="line 4: samples must be positive, got 0"):
        parse_theory_graph(text)


@pytest.mark.parametrize("level", ["two", "7"])
def test_theory_graph_rejects_bad_level(level):
    with pytest.raises(ParseError, match=f"line 2: bad level '{level}'"):
        parse_theory_graph(f"theory T\n  level {level}\n")


def test_graph_morphism_reports_open_and_non_level_2_obligations():
    text = (
        "morphism M\n"
        "  source BT3\n"
        "  target BT3\n"
        "  obligation open-one decide-l2 (= x z)\n"
        "  obligation product decide-l2 (forall x (= (* x z) z))\n"
    )
    _, morphisms = parse_theory_graph(text)
    assert check_morphism(morphisms["M"]).render() == (
        "morphism check for M\n"
        "  open-one: Failed(well-formedness) obligation is open\n"
        "  product: Failed(decide-l2) not a level-2 sentence"
    )


# ---------------------------------------------------------------------------
# The checks share work within one call.  The reference below is the loop
# in which every decided entry is decided afresh and every sample is
# evaluated; the checks must give its report text and leave the rng in
# its state after every entry.

T = importlib.import_module("biforge.theory")


def reference_model_check(formula, samples, bound, rng):
    names, matrix = _strip_foralls(formula)
    holds = T.compile_oracle(matrix, bound)
    for _ in range(samples if names else 1):
        values = {v: rng.randint(0, bound) for v in names}
        if not holds(values):
            return Environment(values)
    return None


def reference_discharge(subject, formula, policy, rng):
    if isinstance(policy, RandomizedModelCheck):
        witness = reference_model_check(formula, policy.samples, policy.bound, rng)
        return ReportEntry(
            subject, f"model-check[{policy.samples}x{policy.bound}]", witness is None,
            "" if witness is None else f"counterexample {witness!r}",
        )
    if not is_fo(LangLevel.L2, formula):
        return ReportEntry(subject, "decide-l2", False, "not a level-2 sentence")
    return ReportEntry(subject, "decide-l2", T.decide_bt6(formula) is TruthValue.TRUE)


def reference_check_morphism(m, seed=0):
    """The report and the rng state after each entry."""
    rng = random.Random(seed)
    entries, states = [], []
    for ob in m.obligations:
        image = translate(ob.formula, m.symbol_map)
        if free_vars(image):
            entries.append(ReportEntry(ob.name, "well-formedness", False, "obligation is open"))
        else:
            entries.append(reference_discharge(ob.name, image, ob.policy, rng))
        states.append(rng.getstate())
    for kind in m.schema_obligations:
        for idx, pred in enumerate(T._schema_predicates(kind)):
            instance = translate(induction_instance(kind, pred), m.symbol_map)
            policy = DecideL2() if is_fo(LangLevel.L2, instance) else T._SCHEMA_CHECK
            entries.append(reference_discharge(f"{kind.value} instance {idx}", instance, policy, rng))
            states.append(rng.getstate())
    return Report(f"morphism check for {m.name}", entries), states


def recorded(monkeypatch, check, *args):
    """The report of ``check(*args)`` and the state of the rng it made
    as each report entry was built."""
    rngs, states = [], []

    class Recording(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            rngs.append(self)

    def entry(*fields):
        states.append(rngs[-1].getstate())
        return ReportEntry(*fields)

    with monkeypatch.context() as mp:
        mp.setattr(T, "random", types.SimpleNamespace(Random=Recording))
        mp.setattr(T, "ReportEntry", entry)
        report = check(*args)
    assert len(rngs) == 1
    return report, states


def assert_same_as_reference(monkeypatch, m, seed=0):
    report, states = recorded(monkeypatch, check_morphism, m, seed)
    expected, expected_states = reference_check_morphism(m, seed)
    assert report.render() == expected.render()
    assert states == expected_states


@pytest.mark.parametrize("seed", [0, 1, 17])
@pytest.mark.parametrize("name", ["BT4-to-BT7", "BT7-to-BT8"])
def test_builtin_morphisms_match_the_reference(monkeypatch, name, seed):
    assert_same_as_reference(monkeypatch, morphism(name), seed)


@pytest.mark.parametrize("samples, bound", [(200, 32), (1, 0), (7, 3), (60, 16), (500, 5)])
@pytest.mark.parametrize("name", [t.name for t in registry() if t.level is not None])
def test_axiom_checks_match_the_reference(monkeypatch, name, samples, bound):
    report, states = recorded(monkeypatch, check_axioms, theory(name), samples, bound, 3)
    monkeypatch.setattr(T, "_model_check", reference_model_check)
    expected, expected_states = recorded(monkeypatch, check_axioms, theory(name), samples, bound, 3)
    assert report.render() == expected.render()
    assert states == expected_states


def reference_check_axioms(t, samples, bound, seed):
    """The report of classifying each level-2 or level-3 axiom with
    ``is_fo`` and then deciding or sampling it, and the rng state after
    each entry."""
    rng = random.Random(seed)
    entries, states = [], []
    for name, formula in t.axioms:
        if is_fo(LangLevel.L2, formula):
            entries.append(ReportEntry(name, "decide-bt6", decide_bt6(formula) is TruthValue.TRUE))
        else:
            witness = reference_model_check(formula, samples, bound, rng)
            entries.append(ReportEntry(
                name, f"bounded-oracle[{samples}x{bound}]", witness is None,
                "" if witness is None else f"counterexample {witness!r}"))
        states.append(rng.getstate())
    return Report(f"axiom check for {t.name}", tuple(entries)), states


def _pool_theories():
    closed = [f for f in map(parse_construction, _POOL) if not free_vars(f)]
    yield from (t for t in registry() if t.level is not None and t.level > LangLevel.L1)
    for level in (LangLevel.L2, LangLevel.L3):
        axioms = tuple((f"a{i}", f) for i, f in enumerate(closed) if is_fo(level, f))
        yield BiformTheory(f"P{level.value}", level, None, axioms)


@pytest.mark.parametrize("samples, bound", [(200, 32), (7, 3), (500, 5)])
def test_axiom_dispatch_matches_the_classifying_reference(monkeypatch, samples, bound):
    # Deciding first and sampling on LanguageError reports, and draws,
    # as classifying with is_fo first did, false axioms and
    # counterexamples included.
    failed = 0
    for t in _pool_theories():
        report, states = recorded(monkeypatch, check_axioms, t, samples, bound, 5)
        expected, expected_states = reference_check_axioms(t, samples, bound, 5)
        assert report.render() == expected.render()
        assert states == expected_states
        failed += sum(not e.passed for e in report.entries)
    assert failed >= 4


@pytest.mark.parametrize("name", [t.name for t in registry() if t.level is not None])
def test_check_axioms_classifies_each_axiom_once(monkeypatch, name):
    # Counted in the recognizers and in the decision procedures: a
    # level-2 axiom of BT2, BT3, BT4, BT6 or BT7 was classified by is_fo
    # and again by decide_bt6 (BT4: 12 calls for 7 axioms); a level-3
    # one is classified once by decide_bt6, which then raises.
    calls = []
    for module in (recognizers, presburger):
        monkeypatch.setattr(module, "_classify", lambda c, classify=module._classify:
                            calls.append(c) or classify(c))
    t = theory(name)
    check_axioms(t)
    assert calls == [f for _, f in t.axioms]


# Obligations for generated graph files: true and false, level 2 and
# level 3, open, with a quantifier the oracle enumerates, with a variable
# stripped twice, and one false only at x = 1, y = 0, which few samples hit.
_POOL = [
    "(forall x (= (+ x z) x))",
    "(forall x (= (s x) x))",
    "(forall x (forall y (= (+ x y) (+ y x))))",
    "(exists x (= (+ x x) (s z)))",
    "(forall x (forall y (= (* x y) (* y x))))",
    "(forall x (= (* x x) x))",
    "(forall x (forall y (imp (= (* x y) z) (or (= x z) (= y z)))))",
    "(forall x (forall y (not (= (* x (s y)) (s z)))))",
    "(forall x (or (= x z) (exists y (= (s y) x))))",
    "(forall x (forall x (= (+ x x) (* x (s (s z))))))",
    "(= x z)",
]
_MAPS = [
    "  map 0 0\n  map S S\n  map + +\n  map * *\n",
    "  map + *\n  map * +\n",
    "",
]


def generated_graph(rng):
    lines = ["morphism G", "  source BT7", "  target BT8"]
    lines.append(rng.choice(_MAPS).rstrip("\n"))
    for k in range(rng.randint(1, 9)):
        policy = rng.choice(["decide-l2", "model-check"])
        if policy == "model-check":
            policy += f" {rng.choice([1, 5, 40, 200])} {rng.choice([0, 1, 3, 8])}"
        lines.append(f"  obligation ob{k} {policy} {rng.choice(_POOL)}")
    for kind in SchemaKind:
        if rng.random() < 0.3:
            lines.append(f"  schema-obligation {kind.value}")
    return "\n".join(line for line in lines if line) + "\n"


@pytest.mark.parametrize("seed", range(40))
def test_graph_file_morphisms_match_the_reference(monkeypatch, seed):
    rng = random.Random(seed)
    _, morphisms = parse_theory_graph(generated_graph(rng))
    assert_same_as_reference(monkeypatch, morphisms["G"], rng.randint(0, 99))


def test_duplicate_obligations_around_model_checks_match_the_reference(monkeypatch):
    text = (
        "morphism D\n  source BT7\n  target BT8\n"
        "  obligation a model-check 40 3 (forall x (= (* x x) x))\n"
        "  obligation b decide-l2 (forall x (= (+ x z) x))\n"
        "  obligation c decide-l2 (forall x (= (s x) x))\n"
        "  obligation d model-check 40 3 (forall x (= (* x x) x))\n"
        "  obligation e decide-l2 (forall x (= (+ x z) x))\n"
        "  obligation f decide-l2 (forall x (= (* x z) z))\n"
        "  obligation g decide-l2 (forall x (= (* x z) z))\n"
        "  obligation h model-check 5 0 (forall x (= (+ x z) x))\n"
        "  obligation i decide-l2 (forall x (= (s x) x))\n"
        "  schema-obligation induction-l1\n"
        "  schema-obligation induction-l3\n"
    )
    _, morphisms = parse_theory_graph(text)
    report = check_morphism(morphisms["D"])
    assert [(e.subject, e.passed) for e in report.entries[:9]] == [
        ("a", False), ("b", True), ("c", False), ("d", False), ("e", True),
        ("f", False), ("g", False), ("h", True), ("i", False),
    ]
    assert_same_as_reference(monkeypatch, morphisms["D"])


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_corpus_index_reuse_across_kinds_under_a_swapped_map(monkeypatch, seed):
    # Indices 0-2 are met under three kinds.  Under the swap, instances
    # 3, 4, 5 and 7 hold products and are model-checked at each entry.
    text = (
        "morphism W\n  source BT7\n  target BT8\n  map + *\n  map * +\n"
        "  schema-obligation induction-l3\n"
        "  schema-obligation induction-l1\n"
        "  schema-obligation induction-l3\n"
    )
    _, morphisms = parse_theory_graph(text)
    report = check_morphism(morphisms["W"], seed)
    assert [e.method for e in report.entries[:8]] == (
        ["decide-l2"] * 3 + ["model-check[200x16]"] * 3 + ["decide-l2", "model-check[200x16]"])
    assert len(report.entries) == 19
    assert_same_as_reference(monkeypatch, morphisms["W"], seed)


def test_bt7_to_bt8_decides_and_samples_each_distinct_case_once(monkeypatch):
    decisions, oracle_calls, instances, implies_hashes, hashing = [], [], [], [], []
    spine_hash = Implies.__hash__

    def counting_hash(node):  # counts hashes not made inside another Implies hash
        if not hashing:
            implies_hashes.append(node)
        hashing.append(node)
        try:
            return spine_hash(node)
        finally:
            hashing.pop()

    def counting_instance(kind, pred):
        instances.append(pred)
        return induction_instance(kind, pred)

    def counting_decide(formula, *rest):  # counts the calls that decide
        verdict = decide_bt6(formula, *rest)
        decisions.append(formula)
        return verdict

    def counting_oracle(formula, bound):
        holds = compile_oracle(formula, bound)

        def counted(values):
            oracle_calls.append(dict(values))
            return holds(values)
        return counted

    monkeypatch.setattr(T, "decide_bt6", counting_decide)
    monkeypatch.setattr(T, "compile_oracle", counting_oracle)
    monkeypatch.setattr(T, "induction_instance", counting_instance)
    m = morphism("BT7-to-BT8")
    reference_check_morphism(m)
    assert (len(decisions), len(oracle_calls)) == (17, 2002)
    decisions.clear()
    oracle_calls.clear()
    monkeypatch.setattr(Implies, "__hash__", counting_hash)
    check_morphism(m)
    monkeypatch.undo()
    assert (len(decisions), len(oracle_calls), len(instances)) == (8, 692, 8)
    assert len(set(decisions)) == 8
    # Schema instances are reused by corpus index, not looked up by hash.
    assert len(implies_hashes) == 0


# ---------------------------------------------------------------------------
# A model check draws what ``rng.randint(0, bound)`` draws, through the
# public ``getrandbits`` only.

def _sum_of(names):
    """z plus each distinct name, in order."""
    term = Zero()
    for v in dict.fromkeys(names):
        term = Plus(term, Var(v))
    return term


# Bounds from 2**32 - 1 up draw 33, 33, 41 and 65 bits: two or three 32-bit words each.
@pytest.mark.parametrize("bound", [0, 1, 31, 32, 63, 64, 1000, 2**32 - 1, 2**32, 2**40 + 3, 2**64])
def test_model_check_draws_what_a_randint_loop_draws(bound):
    outcomes = set()
    for names in ((), ("x",), ("x", "y"), ("x", "y", "x"), ("y", "x", "w")):
        t = _sum_of(names)
        matrices = (
            Eq(Plus(t, Zero()), t),  # true
            Not(Eq(t, to_construction(of_nat(bound // 2)))),  # false where the sum is bound // 2
            Not(Eq(Times(t, t), t)),  # false where the sum is 0 or 1
        )
        for matrix in matrices:
            formula = matrix
            for v in reversed(names):
                formula = Forall(v, formula)
            for samples in (1, 2, 17, 200):
                for seed in (0, 7):
                    rng, ref = random.Random(seed), random.Random(seed)
                    got = _model_check(formula, samples, bound, rng)
                    expected = reference_model_check(formula, samples, bound, ref)
                    assert repr(got) == repr(expected)
                    assert rng.getstate() == ref.getstate()
                    outcomes.add(got is None)
    assert outcomes == {True, False}


class NoPrivateDraws(random.Random):
    def _randbelow(self, n):
        raise AssertionError("the private _randbelow was called")


def test_checks_draw_through_the_public_api_only(monkeypatch):
    with pytest.raises(AssertionError):
        NoPrivateDraws(0).randint(0, 3)
    formula = parse_construction("(forall x (forall y (= (* x y) (+ y (s z)))))")
    assert repr(_model_check(formula, 50, 7, NoPrivateDraws(5))) == repr(
        _model_check(formula, 50, 7, random.Random(5)))
    cases = [(check_morphism, (morphism(name), 3)) for name in ("BT4-to-BT7", "BT7-to-BT8")]
    cases += [(check_axioms, (theory(name), 50, 16, 3)) for name in ("BT3", "BT4", "BT7")]
    expected = [check(*args).render() for check, args in cases]
    monkeypatch.setattr(T, "random", types.SimpleNamespace(Random=NoPrivateDraws))
    assert [check(*args).render() for check, args in cases] == expected


# ---------------------------------------------------------------------------
# An instance takes two substitutions: A(x) is the body itself.

def reference_induction_instance(pred):
    """The four-substitution build of the schema instance at ``pred``."""
    v, body = pred.var, abs_body(pred)

    def at(t):
        return substitute(body, v, t)

    step = Forall(v, Implies(at(Var(v)), at(Succ(Var(v)))))
    return Implies(And(at(Zero()), step), Forall(v, at(Var(v))))


y = Var("y")
# Predicates with an inner binder, on the predicate's own variable and on
# another name.
_BINDER_PREDICATES = [
    Abs("x", Exists("x", Eq(Succ(x), Succ(Zero())))),
    Abs("x", And(Eq(x, x), Forall("x", Not(Eq(Succ(x), Zero()))))),
    Abs("x", Forall("y", Or(Eq(y, x), Not(Eq(y, x))))),
    Abs("x", Exists("y", Eq(Plus(y, x), Succ(x)))),
    Abs("y", Exists("x", Eq(Times(x, y), x))),
    Abs("y", And(Exists("y", Eq(Times(y, y), y)), Eq(Plus(y, Zero()), y))),
]


@pytest.mark.parametrize("kind", list(SchemaKind))
def test_induction_instance_matches_the_four_substitution_build(kind):
    corpus = T._schema_predicates(kind)
    extra = [p for p in _BINDER_PREDICATES if is_fo_abs(T.SCHEMA_LEVEL[kind], p)]
    assert len(extra) >= 2
    for pred in corpus + extra:
        instance = induction_instance(kind, pred)
        expected = reference_induction_instance(pred)
        assert instance == expected
        assert instance.rhs.body is abs_body(pred)
        assert instance.lhs.rhs.body.lhs is abs_body(pred)


# ---------------------------------------------------------------------------
# translate returns its input under a map that sends every symbol to
# itself, and otherwise equals a full rebuild.

def reference_translate(c, symbol_map):
    """Rebuild every node, mapping each constant through the map."""
    mapping = dict(symbol_map)
    ctors = {"0": (Zero, 0), "S": (Succ, 1), "+": (Plus, 2), "*": (Times, 2)}

    def image(sym):
        target = mapping.get(sym, sym)
        if target not in ctors or ctors[target][1] != ctors[sym][1]:
            raise LanguageError(f"{sym!r} maps to {target!r}, which has the wrong arity")
        return ctors[target][0]

    def walk(node):
        ctor = type(node)
        if ctor is Zero:
            return image("0")()
        if ctor is Succ:
            return image("S")(walk(node.arg))
        if ctor is Not:
            return Not(walk(node.arg))
        if ctor in (Plus, Times):
            return image("+" if ctor is Plus else "*")(walk(node.lhs), walk(node.rhs))
        if hasattr(node, "lhs"):
            return ctor(walk(node.lhs), walk(node.rhs))
        if hasattr(node, "body"):
            return ctor(node.var, walk(node.body))
        return node

    return walk(c)


def _translation_corpus():
    formulas = list(AXIOMS.values()) + [parse_construction(f) for f in _POOL]
    formulas += [induction_instance(SchemaKind.INDUCTION_L3, p)
                 for p in T._schema_predicates(SchemaKind.INDUCTION_L3)]
    formulas += [parse_construction("(= (* #b1011 x) (+ #b110 (s y)))"),
                 Abs("x", Eq(Times(x, x), Plus(x, Zero())))]
    return formulas


def test_translate_skips_identity_maps_and_otherwise_rebuilds():
    swap = (("+", "*"), ("*", "+"))
    for c in _translation_corpus():
        for identity in (T._IDENTITY_L3, (), (("S", "S"),), (("+", "+"), ("0", "0"))):
            assert translate(c, identity) is c
        image = translate(c, swap)
        assert image == reference_translate(c, swap)
    f = parse_construction("(forall x (= (* x (s (s z))) (+ x x)))")
    assert translate(f, swap) is not f
    for bad in ((("+", "S"),), (("0", "S"),), (("0", "0"), ("S", "+")), (("*", "0"),),
                (("S", "S"), ("+", "q"))):
        with pytest.raises(LanguageError):
            translate(f, bad)
        with pytest.raises(LanguageError):
            reference_translate(f, bad)
