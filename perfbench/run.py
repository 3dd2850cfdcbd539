"""Benchmark of the biforge kernel: one named workload, end to end or
traced layer by layer.

    python3 perfbench/run.py --workload numerals|decide|session \\
        --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A human-readable summary goes to standard error, and the full record of
the run to ``perfbench/results/``.  The program is imported from the
``src/`` directory next to this one; without it the benchmark exits
with status 2 and prints no result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import (
    TRACE_ROUNDS, Tracer, by_kind, measure, ref_loop_ms, replay,
    summary,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("numerals", "decide", "session")

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"binum.bplus_ms.d{k}": "ms" for k in (8, 64, 256, 512)},
    **{f"binum.btimes_ms.d{k}": "ms" for k in (8, 64, 256)},
    **{f"binum.quote_ms.d{k}": "ms" for k in (64, 512)},
    "binum.rewrite_ms": "ms",
    "sexpr.parse_ms": "ms",
    "syntax.sort_of_ms": "ms",
    "recognizers.is_fo_ms": "ms",
    "syntax.substitute_ms": "ms",
    "presburger.ground_ms": "ms",
    "presburger.linearize_ms": "ms",
    "presburger.eliminate_ms": "ms",
    "presburger.evaluate_ms": "ms",
    "presburger.eliminations": "count",
    "presburger.test_points": "count",
    "presburger.delta_max": "count",
    "presburger.residue_atoms": "count",
    "sexpr.print_ms": "ms",
    "sexpr.print_bytes": "bytes",
    "semantics.eval_ms": "ms",
    "semantics.oracle_ms": "ms",
    "theory.lookup_ms": "ms",
    "theory.check_axioms_ms": "ms",
    "theory.check_morphism_ms": "ms",
    **{f"cli.run_ms.{c}": "ms" for c in (
        "eval", "decide", "recognize", "bplus", "bplus_rewrite", "btimes",
        "normalize", "induct", "check-theory", "check-morphism")},
    "cli.cold_start_ms": "ms",
    "host.ref_loop_ms": "ms",
    "trace.ops_per_s": "1/s",
    "trace.latency_p50_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

# Fresh interpreters started, one at a time, to time the cold start;
# the figure is their median.  Set-up is timed the same way, once before
# each timed round, so that its probes lie seconds apart and do not all
# fall in one slow spell of the host.
COLD_SAMPLES = 5
CHILD_TIMEOUT_S = 120
# Criterion 10's decide example, run through the console entry point.
COLD_ARGV = ["decide", "--theory", "bt6", "(forall x (or (= x z) (exists y (= (s y) x))))"]
COLD_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); del sys.argv[1]; "
             "from biforge.cli import console_main; console_main()")


def _blocks(module, seconds: int) -> int:
    """Blocks of operations that fill ``seconds`` of timed rounds at the
    reference host's speed.  The count depends on nothing measured, so
    two runs of the same code do the same work."""
    budget = seconds / module.ROUNDS - module.EXTRA_SECONDS
    return max(1, round(budget / module.BLOCK_SECONDS))


def _child(cmd: list[str]) -> tuple[float, str]:
    """Seconds from launch to the child's first line of output, and that
    line followed by the exit status; the child is always waited for."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - t0
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            raise
    return seconds, f"{line.strip()} (exit {proc.returncode})"


def setup_probe(workload: str, seed: int, seconds: int) -> float:
    """Seconds a fresh interpreter takes to import the program and build
    the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--setup-probe"]
    t, outcome = _child(cmd)
    if outcome != "ready (exit 0)":
        raise RuntimeError(f"set-up probe: {outcome}")
    return t


def cold_start_ms() -> tuple[float, list[str]]:
    """Median milliseconds, and the runs whose output or status was not
    criterion 10's."""
    cmd = [sys.executable, "-c", COLD_CODE, str(SRC)] + COLD_ARGV
    samples, errors = [], []
    for _ in range(COLD_SAMPLES):
        t, outcome = _child(cmd)
        if outcome != "tt (exit 0)":
            errors.append(f"cold start: {outcome}")
        samples.append(t * 1e3)
    return statistics.median(samples), errors


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _layer_figures(ops, measurement):
    """Per-layer figures from a staged replay of ``ops``, the traced
    end-to-end figures, and the operations whose staged answer differs
    from the one-call answer.  The traced figures are set against the
    untraced ones of as many rounds."""
    tracer = Tracer()
    per_op, answers = replay(ops, TRACE_ROUNDS, tracer)
    figures = {**tracer.stage_ms(), **tracer.counts, **tracer.maxima,
               **by_kind(ops, measurement.per_op())}
    traced = summary(per_op, measurement.failed_ops)
    traced["overhead_ratio"] = sum(per_op) / sum(measurement.per_op(TRACE_ROUNDS))
    disagree = [f"op {i} ({op.kind}): staged {a!r:.120} one-call {b!r:.120}"
                for i, (op, a, b) in enumerate(zip(ops, answers, measurement.outputs))
                if a != b]
    return figures, traced, disagree


def trace(workload, ops, measurement, seed):
    """Per-layer metrics.  The workload's own operations are replayed in
    full; a layer it never reaches is measured on the first block of
    another workload that does, and ``sources`` names that workload."""
    figures, traced, errors = _layer_figures(ops, measurement)
    cold_ms, cold_errors = cold_start_ms()
    errors += cold_errors
    layers = {
        "trace.ops_per_s": traced["ops_per_s"],
        "trace.latency_p50_ms": traced["latency_p50_ms"],
        "trace.overhead_ratio": traced["overhead_ratio"],
        "cli.cold_start_ms": cold_ms,
    }
    layers.update((k, v) for k, v in figures.items() if k in PER_LAYER)
    sources = dict.fromkeys(layers, workload)
    for name in WORKLOADS:
        missing = [k for k in PER_LAYER if k not in layers and not k.startswith("host.")]
        if name == workload or not missing:
            continue
        slice_ops = importlib.import_module(name).build(seed, 1)[0]
        slice_m = measure(slice_ops, TRACE_ROUNDS)
        figures, _, disagree = _layer_figures(slice_ops, slice_m)
        errors += slice_m.wrong + disagree
        for k in missing:
            if k in figures:
                layers[k] = figures[k]
                sources[k] = name
    return layers, sources, traced, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="build the inputs, print 'ready' and exit")
    args = parser.parse_args(argv)

    if not (SRC / "biforge" / "__init__.py").is_file():
        print(f"error: no biforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("BIFORGE_BOUND", None)  # the CLI's default bound applies
    module = importlib.import_module(args.workload)
    blocks = _blocks(module, args.seconds)

    if args.setup_probe:
        module.build(args.seed, blocks)
        print("ready", flush=True)
        return 0

    ref = [ref_loop_ms() for _ in range(3)]
    t0 = time.perf_counter()
    ops = [op for block in module.build(args.seed, blocks) for op in block]
    build_s = time.perf_counter() - t0
    setup, probe_s = [], []

    def probe():
        t = time.perf_counter()
        setup.append(setup_probe(args.workload, args.seed, args.seconds))
        probe_s.append(time.perf_counter() - t)

    t0 = time.perf_counter()
    m = measure(ops, module.ROUNDS, before_round=probe)
    timed_s = time.perf_counter() - t0 - sum(probe_s)
    t0 = time.perf_counter()
    errors = m.wrong + module.deep_check(ops, m.outputs)
    check_s = time.perf_counter() - t0
    e2e = summary(m.per_op(), m.failed_ops)
    e2e["setup_s"] = statistics.median(setup)
    e2e["peak_rss_mb"] = peak_rss_mb()

    layers, sources, traced = {}, {}, None
    if args.trace:
        layers, sources, traced, trace_errors = trace(args.workload, ops, m, args.seed)
        errors += trace_errors
    ref += [ref_loop_ms() for _ in range(3)]
    if args.trace:
        layers["host.ref_loop_ms"] = statistics.median(ref)

    names = PER_LAYER if args.trace else END_TO_END
    values = layers if args.trace else e2e
    result = {
        "correct": not errors,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in names.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "blocks": blocks, "operations": len(ops),
        "rounds": module.ROUNDS, "build_s": build_s, "timed_s": timed_s,
        "check_s": check_s, "setup_samples_s": setup, "ref_loop_ms": ref,
        "end_to_end": e2e, "traced_end_to_end": traced, "layers": layers,
        "layer_source": sources, "by_kind_ms": by_kind(ops, m.per_op()),
        "errors": errors[:50], "result": result,
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(ops)} ops x {module.ROUNDS} rounds "
          f"in {timed_s:.1f} s, build {build_s:.2f} s, checks {check_s:.1f} s, "
          f"{m.failed}/{m.attempted} failed, {len(errors)} errors", file=sys.stderr)
    print("  untraced: " + ", ".join(f"{k} {v:.4g}" for k, v in e2e.items()), file=sys.stderr)
    if traced:
        print("  traced:   " + ", ".join(f"{k} {v:.4g}" for k, v in traced.items()),
              file=sys.stderr)
    print(f"  host ref loop ms: {' '.join(f'{r:.1f}' for r in ref)}", file=sys.stderr)
    for e in errors[:10]:
        print("  ERROR " + e, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
