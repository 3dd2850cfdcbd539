"""Self-test of the benchmark's checkers.

    python3 perfbench/selftest.py

For each workload it runs a few operations of every kind and shows
that their answers pass the checks, that every checker rejects a
planted wrong answer and a planted failure (only the ``decide``
operations that meet the known fault may fail), and that the staged
replay gives the one-call answer.  It also checks that the metric names match BENCHMARK.json.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import sys

import run

sys.path.insert(0, str(run.SRC))

from biforge import TruthValue, binnum  # noqa: E402

import decide  # noqa: E402
import numerals  # noqa: E402
import session  # noqa: E402
from common import Failed, Tracer, measure, replay  # noqa: E402

PER_KIND = 3


def _sample(ops):
    """The first few operations of each kind."""
    seen: dict[str, int] = {}
    out = []
    for op in ops:
        if seen.get(op.kind, 0) < PER_KIND:
            seen[op.kind] = seen.get(op.kind, 0) + 1
            out.append(op)
    return out


def _numeral(n: int):
    return binnum(int(b) for b in reversed(bin(n)[2:]))


def _plants_numerals(op, out):
    if out == numerals.STUCK:
        return [_numeral(0), _numeral(1)]
    v = numerals.digits_value(out)
    plants = [_numeral(v + 1), None]
    if v > 0:
        plants += [_numeral(v - 1), numerals.STUCK]
    return plants


def _plants_decide(op, out):
    want = op.subject[2]
    return [TruthValue.of(not want)]


def _plants_session(op, out):
    code, text = out
    plants = [(code + 1, text), (code, text + "x"), (code, text[:-1])]
    return [p for p in plants if p != out]


PLANTS = {"numerals": _plants_numerals, "decide": _plants_decide, "session": _plants_session}


def selftest(name: str, module) -> list[str]:
    problems = []
    ops = _sample([op for b in module.build(7, 1) for op in b])
    m = measure(ops, 1)
    problems += m.wrong
    problems += module.deep_check(ops, m.outputs)
    planted = rejected = 0
    flipped = list(m.outputs)
    for i, (op, out) in enumerate(zip(ops, m.outputs)):
        # Only the known fault may fail, and only with its own error;
        # any other failure must fail the check.
        fault = "TypeError" if op.kind == "open.large" else "RecursionError"
        plants = [Failed(fault)]
        if op.kind.startswith("closed"):
            flipped[i] = TruthValue.of(out is TruthValue.FALSE)
        else:
            plants += PLANTS[name](op, out)
        for wrong in plants:
            planted += 1
            if op.check(wrong):
                problems.append(f"{op.kind}: planted {wrong!r:.80} passed the check")
            else:
                rejected += 1
    closed = [i for i, op in enumerate(ops) if op.kind.startswith("closed")]
    if closed:
        errors = module.deep_check(ops, flipped)
        planted += len(closed)
        caught = {int(e.split()[1].rstrip(":")) for e in errors}
        rejected += len(caught & set(closed))
        problems += [f"closed op {i}: flipped verdict passed" for i in closed if i not in caught]
    _, answers = replay(ops, 1, Tracer())
    agree = sum(a == b for a, b in zip(answers, m.outputs))
    if agree != len(ops):
        problems.append(f"staged replay disagrees on {len(ops) - agree} operations")
    kinds = sorted({op.kind for op in ops})
    print(f"{name}: {len(ops)} operations of {len(kinds)} kinds, {m.failed} failed; "
          f"{rejected}/{planted} planted wrong answers rejected; "
          f"staged replay agrees on {agree}/{len(ops)}")
    return problems


def metric_names() -> list[str]:
    path = run.ROOT / "BENCHMARK.json"
    if not path.is_file():
        return [f"{path} is missing"]
    spec = json.loads(path.read_text())
    problems = []
    for key, names in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != names:
            problems.append(f"{key} in BENCHMARK.json differs from run.py: "
                            f"{sorted(set(declared.items()) ^ set(names.items()))}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        problems.append("workloads in BENCHMARK.json differ from run.py")
    return problems


def main() -> int:
    problems = metric_names()
    for name, module in (("numerals", numerals), ("decide", decide), ("session", session)):
        problems += selftest(name, module)
    for p in problems:
        print("PROBLEM " + p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
