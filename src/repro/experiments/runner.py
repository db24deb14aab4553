"""CLI for regenerating any paper table or figure.

Usage::

    bitmod-repro table06                      # one experiment
    bitmod-repro --all                        # everything
    bitmod-repro --all --quick                # trimmed versions (CI-friendly)
    bitmod-repro --all --quick --jobs 4       # parallel cell evaluation
    bitmod-repro --all --json out/            # persist results as JSON
    bitmod-repro --cache-dir /tmp/c table06   # explicit pipeline cache
    bitmod-repro --no-cache table06           # bypass the cache entirely
    bitmod-repro --list
    bitmod-repro dse --preset paper-pareto    # design-space exploration
    bitmod-repro --all --quick --trace out/trace.json --metrics out/metrics.json
    bitmod-repro obs summarize out/trace.json # trace/metrics tooling
    bitmod-repro --all --quick --run-id night1 --json out/   # journaled run
    bitmod-repro --all --quick --resume night1 --json out/   # pick it back up

Every experiment draws its evaluation cells from the shared
:mod:`repro.pipeline` engine: unique (model × dataset × datatype ×
method) cells are computed exactly once per run — across experiments —
memoized on disk (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``), and
fanned out over a process pool with ``--jobs N``.  A warm rerun of
``--all`` only replays cache hits.

``--run-id ID`` journals every completed experiment (and its computed
cell keys) to an append-only per-run log; after a crash — even a
SIGKILL mid-write — ``--resume ID`` replays the journaled experiments
byte-identically and recomputes only the unfinished tail, whose cells
the content-addressed store mostly already holds.  ``Ctrl-C`` shuts
the worker pool down cleanly, journals the interruption, flushes any
``--trace``/``--metrics`` output, and exits 130.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from pathlib import Path
from typing import Dict, List

__all__ = ["EXPERIMENTS", "run_experiment", "main"]

EXPERIMENTS: Dict[str, str] = {
    "fig01": "repro.experiments.fig01_memory",
    "fig02": "repro.experiments.fig02_granularity",
    "table01": "repro.experiments.table01_granularity_ppl",
    "table02": "repro.experiments.table02_6bit",
    "fig03": "repro.experiments.fig03_special_values",
    "table05": "repro.experiments.table05_scale_precision",
    "table06": "repro.experiments.table06_main_ppl",
    "table07": "repro.experiments.table07_discriminative",
    "table08": "repro.experiments.table08_er_ea_ablation",
    "table09": "repro.experiments.table09_sv_ablation",
    "table10": "repro.experiments.table10_tile_area",
    "fig07": "repro.experiments.fig07_speedup",
    "fig08": "repro.experiments.fig08_energy",
    "fig09": "repro.experiments.fig09_pareto",
    "fig10": "repro.experiments.fig10_bitparallel",
    "table11": "repro.experiments.table11_methods",
    "table12": "repro.experiments.table12_smoothquant",
    # Extensions beyond the paper's own evaluation (DESIGN.md §6).
    "ablation_group_size": "repro.experiments.ablation_group_size",
    "ablation_encoding": "repro.experiments.ablation_encoding",
}


def numpy_dispatch() -> List[str]:
    """The SIMD targets numpy dispatches its loops to in this process.

    Float results of the model forward, PPL cells and DSE digests hold
    per dispatch path (``docs/contracts.md``), so a run records which
    path produced them.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]


def run_experiment(name: str, quick: bool = False):
    """Run one experiment by name and return its ExperimentResult."""
    try:
        module_name = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {name!r}; known: {known}") from None
    module = importlib.import_module(module_name)
    return module.run(quick=quick)


#: Runner options that consume the following token (a literal "dse"
#: or "obs" after one of these is an option value, not a subcommand).
_VALUE_OPTIONS = {
    "--jobs",
    "--cache-dir",
    "--json",
    "--trace",
    "--metrics",
    "--log-level",
    "--run-id",
    "--resume",
}


def _subcommand_index(argv, name: str) -> int:
    """Position of the ``name`` subcommand token, or -1."""
    for i, token in enumerate(argv):
        if token == name and (i == 0 or argv[i - 1] not in _VALUE_OPTIONS):
            return i
    return -1


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    obs_at = _subcommand_index(argv, "obs")
    if obs_at >= 0:
        # Trace/metrics tooling has its own argparse surface.
        from repro.obs.cli import main as obs_main

        return obs_main(argv[:obs_at] + argv[obs_at + 1 :])
    dse_at = _subcommand_index(argv, "dse")
    if dse_at >= 0:
        # Design-space exploration has its own surface; delegate,
        # keeping flags on either side of the subcommand token
        # (the dse parser understands --jobs/--cache-dir/--no-cache).
        from repro.dse.cli import main as dse_main

        return dse_main(argv[:dse_at] + argv[dse_at + 1 :])
    parser = argparse.ArgumentParser(
        prog="bitmod-repro",
        description="Regenerate tables/figures of the BitMoD paper.",
    )
    parser.add_argument("experiments", nargs="*", help="experiment ids (e.g. table06)")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument("--quick", action="store_true", help="trimmed versions")
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="evaluate cells on N worker processes (default: 1, serial)",
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
        help="neither read nor write the pipeline cache",
    )
    parser.add_argument(
        "--json",
        metavar="OUT_DIR",
        default=None,
        help="write each result as OUT_DIR/<experiment>.json plus a "
        "_run_meta.json with wall time and cache statistics",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="after table06, print the paper-vs-measured comparison",
    )
    parser.add_argument(
        "--trace",
        metavar="OUT",
        default=None,
        help="enable span tracing and write the run's trace to OUT "
        "(.json = chrome trace_event for Perfetto, otherwise JSONL)",
    )
    parser.add_argument(
        "--metrics",
        metavar="OUT",
        default=None,
        help="write the run's metrics-registry snapshot as JSON",
    )
    parser.add_argument(
        "--log-level",
        metavar="LEVEL",
        default=None,
        help="logging level for the repro.* loggers "
        "(debug/info/warning/error; default: $REPRO_LOG or warning)",
    )
    parser.add_argument(
        "--run-id",
        metavar="ID",
        default=None,
        help="journal completed experiments under this run id "
        "($REPRO_RUN_DIR or <cache>/runs/ID) so the run is resumable",
    )
    parser.add_argument(
        "--resume",
        metavar="RUN_ID",
        default=None,
        help="resume a journaled run: replay finished experiments from "
        "the journal, recompute only the rest",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0
    names = list(EXPERIMENTS) if args.all else args.experiments
    if not names:
        parser.print_help()
        return 1

    from repro import obs
    from repro.experiments.common import ExperimentResult
    from repro.pipeline import configure
    from repro.resilience import RunJournal, atomic_write_json

    try:
        log = obs.setup_logging(args.log_level)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    # A fresh registry + tracer per run, so the snapshot written next
    # to the results covers exactly this invocation.
    obs.reset()
    if args.trace is not None:
        obs.set_tracing(True)

    if args.run_id is not None and args.resume is not None:
        print("error: --run-id and --resume are mutually exclusive", file=sys.stderr)
        return 2
    run_id = args.resume or args.run_id
    journal = None
    replayable: Dict[str, dict] = {}
    if run_id is not None:
        try:
            journal = RunJournal.for_run(run_id)
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        if args.resume is not None:
            # Only same-mode results replay: a --quick journal must
            # never satisfy a full run (or vice versa).
            replayable = {
                name: rec
                for name, rec in journal.completed("experiment").items()
                if rec.get("quick") == args.quick
            }
        journal.append(
            {
                "event": "run_start",
                "experiments": names,
                "quick": args.quick,
                "resumed": args.resume is not None,
            }
        )

    engine = configure(
        jobs=args.jobs, cache_dir=args.cache_dir, no_cache=args.no_cache,
        journal=journal,
    )

    out_dir = None
    if args.json is not None:
        out_dir = Path(args.json)
        out_dir.mkdir(parents=True, exist_ok=True)

    def emit(name: str, result) -> None:
        print(result)
        print()
        if out_dir is not None:
            atomic_write_json(out_dir / f"{name}.json", result.to_dict(), indent=2)
        if args.compare and name == "table06":
            from repro.experiments.compare import compare_table06

            print(compare_table06(result))
            print()

    t0 = time.perf_counter()
    replayed = []
    try:
        for name in names:
            if name in replayable:
                # Finished before the crash: replay the journaled
                # payload instead of recomputing, emitting the exact
                # output an uninterrupted run would have produced.
                replayed.append(name)
                log.info("experiment %s replayed from journal %s", name, run_id)
                emit(name, ExperimentResult.from_dict(replayable[name]["result"]))
                continue
            t_exp = time.perf_counter()
            with obs.span("experiment", name=name, quick=args.quick):
                result = run_experiment(name, quick=args.quick)
            obs.histogram("runner.experiment_seconds").record(
                time.perf_counter() - t_exp
            )
            log.info("experiment %s done in %.2fs", name, time.perf_counter() - t_exp)
            if journal is not None:
                journal.append(
                    {
                        "event": "experiment",
                        "name": name,
                        "quick": args.quick,
                        "result": result.to_dict(),
                    }
                )
            emit(name, result)
    except KeyboardInterrupt:
        # Clean crash-only exit: reap the pool, journal the cut, flush
        # whatever observability output was requested, exit nonzero.
        print("\ninterrupted — shutting down worker pool", file=sys.stderr)
        engine.close(cancel=True)
        if journal is not None:
            journal.append({"event": "interrupted", "quick": args.quick})
            journal.close()
            print(f"journal saved; resume with --resume {run_id}", file=sys.stderr)
        obs.write_outputs(args.metrics, args.trace)
        return 130
    finally:
        engine.close()

    if journal is not None:
        journal.append({"event": "run_end", "replayed": replayed})
        journal.close()
    if out_dir is not None:
        # The historical keys stay put; "metrics" carries the full
        # registry snapshot (cache hit/miss counters, per-cell-kind
        # wall-time histograms, ...) for `bitmod-repro obs diff`.
        meta = {
            "experiments": names,
            "quick": args.quick,
            "jobs": args.jobs,
            "wall_seconds": time.perf_counter() - t0,
            "cache": engine.stats(),
            "cache_dir": None if args.no_cache else str(engine.store.root),
            "metrics": obs.snapshot(),
            "numpy_dispatch": numpy_dispatch(),
        }
        if run_id is not None:
            meta["run_id"] = run_id
            meta["replayed"] = replayed
        atomic_write_json(out_dir / "_run_meta.json", meta, indent=2)
    obs.write_outputs(args.metrics, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
