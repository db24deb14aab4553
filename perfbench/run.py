"""Run one benchmark workload and print its result as the last line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload decode-batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload prefix-chat --seed 1 --seconds 30 --trace 1

``--trace 0`` reports every end-to-end metric of ``BENCHMARK.json``.
``--trace 1`` runs the workload three times in one process, each pass a
third of ``--seconds`` -- untraced, with spans around every measured
layer, untraced again -- and reports the per-layer metrics of the traced
pass plus the tracing overhead (traced minus the mean of the two
untraced end-to-end values); the spans go to
``perfbench/out/<workload>-seed<N>.trace.json`` (Perfetto).

Before the result line the run prints its full record as one JSON line
(environment fingerprint, sample counts, per-phase counts, failed
checks) and appends it to ``perfbench/out/records.jsonl``.  A run whose
output checks fail prints ``"correct": false`` with no metrics and
exits 1.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("decode-batch", "prefix-chat", "offline-repro"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _schema_mismatches(metrics, trace: int):
    """Names or units that disagree with ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    problems = [f"metric {name} is not in BENCHMARK.json" for name in metrics if name not in listed]
    problems += [
        f"metric {name} has unit {m['unit']}, BENCHMARK.json says {listed[name]}"
        for name, m in metrics.items()
        if name in listed and m["unit"] != listed[name]
    ]
    problems += [f"metric {name} missing" for name in listed if name not in metrics]
    return problems


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.env import pin_blas_threads

    pinned = pin_blas_threads()

    import repro

    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        print(f"error: repro imported from {repro.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    from perfbench.env import fingerprint
    from perfbench.layers import OVERHEAD_OF, PER_LAYER, rollup
    from perfbench.offline import offline_repro
    from perfbench.serve import decode_batch, prefix_chat
    from perfbench.tracing import LayerTracer

    run = {"decode-batch": decode_batch, "prefix-chat": prefix_chat,
           "offline-repro": offline_repro}[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)

    # A traced run makes three passes; together they take --seconds.
    pass_s = args.seconds / 3 if args.trace else args.seconds
    started = time.time()
    outcome = run(args.seed, pass_s, OUT)
    record = {
        "env": fingerprint(ROOT, args.workload, args.seed, pinned),
        "seconds": args.seconds,
        "pass_seconds": pass_s,
        "trace": args.trace,
        "started_unix": started,
        "wall_s": time.time() - started,
    }
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in outcome.metrics.items()}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}

    if args.trace:
        tracer = LayerTracer()
        tracer.install()
        try:
            traced = run(args.seed, pass_s, OUT)
        finally:
            tracer.uninstall()
        trace_path = tracer.export(OUT / f"{args.workload}-seed{args.seed}.trace.json")
        # A second untraced pass brackets the traced one, so the process
        # warm-up the first pass pays does not pass for negative overhead.
        after = run(args.seed, pass_s, OUT)
        overhead = {
            name: traced.metrics[name][0]
            - (outcome.metrics[name][0] + after.metrics[name][0]) / 2
            for name, _unit in OVERHEAD_OF
            if all(name in o.metrics for o in (outcome, traced, after))
        }
        layer_values = rollup(tracer, traced.facts, overhead)
        metrics = {name: {"value": layer_values[name], "unit": unit}
                   for name, unit in PER_LAYER}
        outcome.check_failures += [f"traced: {m}" for m in traced.check_failures]
        outcome.check_failures += [f"second untraced: {m}" for m in after.check_failures]
        record.update(trace_file=str(trace_path.relative_to(ROOT)),
                      spans=len(tracer.spans()), overhead=overhead,
                      traced_record=traced.record, untraced_after_record=after.record)

    outcome.check_failures += _schema_mismatches(metrics, args.trace)
    correct = not outcome.check_failures
    record.update(
        correct=correct,
        check_failures=outcome.check_failures,
        samples=outcome.samples,
        details=outcome.record,
        metrics=metrics,
    )
    line = json.dumps(record, sort_keys=True, default=str)
    with open(OUT / "records.jsonl", "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
