"""``bitmod-repro dse`` — the design-space exploration CLI.

Usage::

    bitmod-repro dse --preset paper-pareto --jobs 4
    bitmod-repro dse --preset smoke --quick --markdown frontier.md
    bitmod-repro dse --space myspace.json --csv points.csv --json sweep.json
    bitmod-repro dse --preset bandwidth --objectives edp:min,speedup:max
    bitmod-repro dse --preset smoke --trace out/dse.json --metrics out/dse-metrics.json
    bitmod-repro dse --list-presets

The sweep reuses the pipeline cache: accuracy cells and design-point
records are content-addressed under ``--cache-dir`` (default
``$REPRO_CACHE_DIR`` or ``~/.cache/repro``), so a warm rerun replays
from disk and ``--jobs N`` fans cold accuracy cells over workers.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["main"]


def _parse_objectives(text: str):
    """Parse ``ppl:min,edp:min`` into (objectives, senses)."""
    objectives, senses = [], []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            obj, sense = part.rsplit(":", 1)
        else:
            obj, sense = part, "min"
        objectives.append(obj.strip())
        senses.append(sense.strip())
    if not objectives:
        raise ValueError("--objectives must name at least one record field")
    for s in senses:
        if s not in ("min", "max"):
            raise ValueError(
                f"objective sense must be 'min' or 'max', got {s!r}"
            )
    return tuple(objectives), tuple(senses)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bitmod-repro dse",
        description="Sweep accelerator design spaces and report Pareto frontiers.",
    )
    src = parser.add_mutually_exclusive_group()
    src.add_argument(
        "--preset",
        metavar="NAME",
        default=None,
        help="curated design space (see --list-presets)",
    )
    src.add_argument(
        "--space",
        metavar="FILE.json",
        default=None,
        help="design-space description file (schema: docs/dse.md)",
    )
    parser.add_argument(
        "--list-presets", action="store_true", help="list preset names and sizes"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="key accuracy cells in the quick-mode cache namespace, "
        "shared with 'bitmod-repro --quick' experiment cells",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="evaluate accuracy cells on N worker processes",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="pipeline cache root (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the cache",
    )
    parser.add_argument(
        "--objectives",
        metavar="OBJ:SENSE,...",
        default="ppl:min,edp:min",
        help="frontier objectives, e.g. 'ppl:min,edp:min' or "
        "'edp:min,speedup:max' (default: ppl:min,edp:min)",
    )
    parser.add_argument(
        "--all-points",
        action="store_true",
        help="print every point instead of only the frontier",
    )
    parser.add_argument(
        "--csv", metavar="FILE", default=None, help="write all points as CSV"
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="write stats + space + all records as JSON",
    )
    parser.add_argument(
        "--markdown",
        metavar="FILE",
        default=None,
        help="write the frontier as a markdown table",
    )
    parser.add_argument(
        "--trace",
        metavar="OUT",
        default=None,
        help="enable span tracing and write the sweep's trace to OUT "
        "(.json = chrome trace_event for Perfetto, otherwise JSONL)",
    )
    parser.add_argument(
        "--metrics",
        metavar="OUT",
        default=None,
        help="write the sweep's metrics-registry snapshot as JSON",
    )
    parser.add_argument(
        "--log-level",
        metavar="LEVEL",
        default=None,
        help="logging level for the repro.* loggers "
        "(debug/info/warning/error; default: $REPRO_LOG or warning)",
    )
    parser.add_argument(
        "--functional-check",
        action="store_true",
        help="after the sweep, run one small bit-accurate GEMM per swept "
        "(dtype, granularity, group size) through the kernel dispatcher "
        "and report the backend used and max deviation from the ideal "
        "dequantized matmul",
    )
    parser.add_argument(
        "--kernel-backend",
        metavar="NAME",
        default=None,
        help="pin the kernel backend for --functional-check "
        "(reference/numpy/fused; default: dispatcher's choice)",
    )
    parser.add_argument(
        "--run-id",
        metavar="ID",
        default=None,
        help="journal computed design points under this run id so an "
        "interrupted sweep documents its progress",
    )
    parser.add_argument(
        "--resume",
        metavar="RUN_ID",
        default=None,
        help="continue a journaled sweep: already-computed points (and "
        "their cells) replay from the content-addressed store",
    )
    args = parser.parse_args(argv)

    from repro import obs
    from repro.dse.space import PRESETS, get_preset, load_space

    try:
        obs.setup_logging(args.log_level)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    obs.reset()
    if args.trace is not None:
        obs.set_tracing(True)

    if args.list_presets:
        for name, space in sorted(PRESETS.items()):
            axes = f"{len(space.datatypes)} datatypes"
            if space.policies:
                axes += f" + {len(space.policies)} policies"
            print(
                f"{name}: {space.n_candidates()} candidate points "
                f"({axes} x {len(space.models)} "
                f"models x {len(space.tasks)} tasks)"
            )
        return 0

    if args.preset is None and args.space is None:
        parser.print_help()
        return 1

    try:
        objectives, senses = _parse_objectives(args.objectives)
        if args.space is not None:
            space = load_space(args.space)
            if args.quick and not space.quick:
                space = space.with_(quick=True)
        else:
            space = get_preset(args.preset, quick=args.quick or None)
        if args.kernel_backend is not None:
            from repro.kernels import get_backend

            get_backend(args.kernel_backend)  # unknown names fail fast
    except (KeyError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    from repro.dse.report import (
        frontier_records,
        frontier_table,
        to_csv,
        to_json,
        to_markdown,
    )
    from repro.dse.sweep import run_sweep
    from repro.pipeline import configure
    from repro.resilience import RunJournal

    if args.run_id is not None and args.resume is not None:
        print("error: --run-id and --resume are mutually exclusive", file=sys.stderr)
        return 2
    run_id = args.resume or args.run_id
    journal = None
    if run_id is not None:
        try:
            journal = RunJournal.for_run(run_id)
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        done = len(journal.completed_keys("dse_point"))
        if args.resume is not None and done:
            print(f"resuming run {run_id}: {done} points journaled")
        journal.append(
            {
                "event": "sweep_start",
                "space": space.name,
                "resumed": args.resume is not None,
            }
        )

    engine = configure(
        jobs=args.jobs, cache_dir=args.cache_dir, no_cache=args.no_cache,
        journal=journal,
    )
    try:
        result = run_sweep(space, engine=engine, journal=journal)
    except KeyboardInterrupt:
        # Clean crash-only exit: reap the pool, journal the cut, keep
        # every computed point in the store for --resume.
        print("\ninterrupted — shutting down worker pool", file=sys.stderr)
        engine.close(cancel=True)
        if journal is not None:
            journal.append({"event": "interrupted", "space": space.name})
            journal.close()
            print(f"journal saved; resume with --resume {run_id}", file=sys.stderr)
        obs.write_outputs(args.metrics, args.trace)
        return 130
    finally:
        engine.close()
    if journal is not None:
        journal.append({"event": "sweep_end", "space": space.name})
        journal.close()

    try:
        front = frontier_records(result, objectives, senses)
    except KeyError as e:
        print(f"error: {e.args[0]}", file=sys.stderr)
        return 2
    table = frontier_table(
        result,
        objectives,
        senses,
        frontier_only=not args.all_points,
        records=None if args.all_points else front,
    )
    print(table)
    print()
    s = result.stats()
    cache = engine.stats()
    print(
        f"{s['points']} points ({s['computed']} computed, {s['cached']} "
        f"cached, {s['skipped']} skipped) in {s['wall_seconds']:.1f}s; "
        f"store hit rate {cache['hit_rate']:.0%} (dse records + cells)"
    )

    if args.functional_check:
        from repro.dse.sweep import functional_check

        checks = functional_check(result.points, backend=args.kernel_backend)
        print()
        print("functional spot-check (bit-accurate kernel layer):")
        for row in checks:
            label = (
                f"  {row['dtype']:<12} {row['granularity']:<8} "
                f"g={row['group_size']:<4}"
            )
            if row["skipped"] is not None:
                print(f"{label} skipped: {row['skipped']}")
            else:
                print(
                    f"{label} backend={row['backend']:<9} "
                    f"max|err|={row['max_abs_err']:.3e}"
                )

    outputs = [
        (args.csv, lambda: to_csv(result.records)),
        (args.json, lambda: to_json(result)),
        (args.markdown, lambda: to_markdown(front)),
    ]
    from repro.resilience import atomic_write_text

    try:
        for dest, render in outputs:
            if dest is not None:
                atomic_write_text(Path(dest), render())
                print(f"wrote {dest}")
        obs.write_outputs(args.metrics, args.trace)
    except OSError as e:
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
