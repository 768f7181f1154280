"""Command-line entry point for the paper-reproduction experiments.

Usage::

    python -m repro.experiments fig6a               # full paper-scale run
    python -m repro.experiments fig6b --quick       # reduced IRQ counts
    python -m repro.experiments all --jobs 4        # parallel campaign
    python -m repro.experiments all --smoke --jobs 2  # CI smoke target

Experiment ids match the per-experiment index in DESIGN.md:
fig6a, fig6b, fig6c, fig7, tab62, validation, ablation, sweep, design.

Campaigns decompose into independent tasks (see
:mod:`repro.experiments.runner`) executed across ``--jobs`` worker
processes; results are byte-identical for every jobs count because the
per-task seeds are derived deterministically and merges consume task
results in serial order.  Timing goes to stderr so stdout can be
diffed across jobs counts.

Campaigns are **incremental** by default: task results are replayed
from a content-addressed on-disk cache (see
:mod:`repro.experiments.cache`) whenever kind, kwargs — which carry
the scale and seed — and the transitive source fingerprint all match
a previous run, so a warm re-run skips simulation entirely while
staying byte-identical.  ``--no-cache`` restores the recompute-always
behaviour, ``--cache-dir`` relocates the store (default:
``.repro-cache`` or ``$REPRO_CACHE_DIR``), ``--cache-stats`` prints
hit/miss/bytes/time-saved counters to stderr.

Observability (see docs/reproducing.md): ``--metrics-json FILE``
writes a metrics snapshot of the run (engine, hypervisor/IRQ path,
cache, campaign runner), ``--trace-out FILE`` writes a Chrome
trace-event JSON (open in ui.perfetto.dev) from a deterministic
traced replay at this run's scale and seed, ``--progress`` streams
per-task completion to stderr, and ``--export DIR`` also drops a
``manifest.json`` describing the invocation next to the CSVs.

``--store DIR`` additionally persists one columnar run artifact per
campaign task (plus a campaign index) into ``DIR`` — see
:mod:`repro.store` — and the ``query`` subcommand answers filter /
aggregate / diff questions over such directories without re-running
any simulation::

    python -m repro.experiments query aggregate store/ --percentiles 99.9
    python -m repro.experiments query diff store-a/ store-b/
"""

from __future__ import annotations

import argparse
import os
import sys
import time

EXPERIMENTS = ("fig6a", "fig6b", "fig6c", "fig7", "tab62",
               "validation", "ablation", "sweep", "design")

#: Convenience aliases expanding to several experiment ids.
ALIASES = {
    "all": EXPERIMENTS,
    "fig6": ("fig6a", "fig6b", "fig6c"),
}


def run_campaign(names, scale, **kwargs):
    """Run the campaign of ``names``: :func:`repro.experiments.runner.run_campaign`.

    The runner imports every experiment and the simulator, so it is
    imported here, on the first call, rather than with this module: the
    ``query`` subcommand never calls it.  :func:`main` calls the
    campaign through this module attribute, so a caller can rebind it
    to wrap every campaign the CLI runs.
    """
    from repro.experiments.runner import run_campaign as run

    return run(names, scale, **kwargs)


def _render_one(name: str, result, export_dir: "str | None") -> str:
    """Render one experiment's merged campaign result."""
    if name.startswith("fig6"):
        from repro.experiments.fig6 import render_fig6

        if export_dir is not None:
            _export_fig6(export_dir, name, result)
        return render_fig6(result)
    if name == "fig7":
        from repro.experiments.fig7 import render_fig7

        if export_dir is not None:
            _export_fig7(export_dir, result)
        return render_fig7(result)
    if name == "tab62":
        from repro.experiments.overhead import render_overhead

        return render_overhead(result)
    if name == "validation":
        from repro.experiments.validation import render_validation

        return render_validation(result)
    if name == "ablation":
        from repro.experiments.ablation import (
            render_boost_ablation,
            render_depth_ablation,
            render_throttle_ablation,
        )

        boost, throttle, depth = result
        return (render_boost_ablation(boost) + "\n\n"
                + render_throttle_ablation(throttle) + "\n\n"
                + render_depth_ablation(depth))
    if name == "design":
        from repro.experiments.design import render_design

        return render_design(result)
    if name == "sweep":
        from repro.experiments.sweep import render_cycle_sweep, render_dmin_sweep

        cycle, dmin = result
        return render_cycle_sweep(cycle) + "\n\n" + render_dmin_sweep(dmin)
    raise ValueError(f"unknown experiment {name!r}")


def _export_fig6(export_dir: str, name: str, result) -> None:
    from pathlib import Path

    from repro.metrics.export import write_histogram_csv, write_series_csv

    directory = Path(export_dir)
    directory.mkdir(parents=True, exist_ok=True)
    write_histogram_csv(directory / f"{name}_histogram.csv", result.histogram)
    write_series_csv(directory / f"{name}_latencies.csv",
                     result.latencies_us, column="latency_us")


def _export_fig7(export_dir: str, results) -> None:
    from pathlib import Path

    from repro.metrics.export import write_series_csv

    directory = Path(export_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for label, case in results.items():
        write_series_csv(directory / f"fig7_{label}_running_avg.csv",
                         case.series_us, column="avg_latency_us")


def _write_manifest(export_dir: str, *, names, scale, args, jobs: int,
                    experiment_seconds: "dict[str, float]",
                    cache) -> None:
    """Drop a ``manifest.json`` describing the run next to the CSVs."""
    import json
    from pathlib import Path

    import repro
    from repro.experiments.cache import source_fingerprint

    directory = Path(export_dir)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": "repro-export-manifest-v1",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()) + "Z",
        "version": repro.__version__,
        "experiments": list(names),
        "scale": scale.name,
        "seed": args.seed,
        "jobs": jobs,
        # Transitive source digest: exported CSVs carry the same
        # fingerprint fields as store artifacts and cache entries, so
        # the three stay joinable.
        "source_digest": source_fingerprint("repro.experiments.runner"),
        "experiment_wall_seconds": {
            name: round(seconds, 3)
            for name, seconds in experiment_seconds.items()
        },
        "total_wall_seconds": round(sum(experiment_seconds.values()), 3),
        "cache": cache.stats.as_dict() if cache is not None else None,
        "files": sorted(path.name for path in directory.glob("*.csv")),
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n"
    )


def _start_traced_tail(args, *, scale, jobs: int, store):
    """Start what ``--trace-out`` / ``--metrics-json`` need but the campaign.

    Campaign workers run with tracing disabled, so the Chrome trace and
    the reconciled hypervisor counters come from a deterministic traced
    replay of one representative fig6b cell at this run's scale and
    seed (see :mod:`repro.telemetry.run`).  It depends on nothing the
    campaign computes, so with ``jobs > 1`` it runs in its own worker
    process alongside the campaign; at ``--jobs 1`` it runs in-process
    after it.
    """
    from repro.telemetry.perfetto import new_trace_fragment
    from repro.telemetry.run import TracedTailJob

    tail_store = None
    if store is not None:
        from repro.store import CampaignStoreWriter

        # The replay's own writer on the same directory, merged into
        # the campaign's after the campaign (see _export_telemetry).
        tail_store = CampaignStoreWriter(store.directory, store.campaign_meta)
    fragment = (new_trace_fragment(args.trace_out)
                if args.trace_out is not None else None)
    return TracedTailJob(jobs > 1, irqs=scale.fig6_irqs_per_load,
                         seed=args.seed, fragment=fragment,
                         store=tail_store,
                         metrics=args.metrics_json is not None)


def _export_telemetry(args, tail, *, scale, jobs: int, cache, telemetry,
                      store=None) -> None:
    """Serve ``--trace-out`` / ``--metrics-json`` from the traced tail.

    ``tail`` is the :class:`repro.telemetry.run.TracedTail` of the
    replay; the campaign's spans finish its trace fragment, and cache,
    campaign-runner and store metrics are sampled from the run itself.
    """
    if store is not None:
        # After the campaign's entries, as a serial write would be.
        store.merge(tail.store)
    if args.trace_out is not None:
        from repro.telemetry.perfetto import finish_chrome_trace

        written = finish_chrome_trace(
            tail.fragment, args.trace_out, tail.events, campaign=telemetry,
            metadata=dict(tail.metadata, scale=scale.name, jobs=jobs))
        print(f"[trace] {written} events -> {args.trace_out} "
              f"(traced fig6b replay, scale={scale.name}, "
              f"seed={args.seed})", file=sys.stderr)
    registry = tail.registry
    if registry is not None:
        from repro.telemetry import collect_cache, collect_campaign

        if cache is not None:
            collect_cache(registry, cache.stats)
        if telemetry is not None:
            collect_campaign(registry, telemetry)
        if store is not None:
            from repro.telemetry import collect_store

            collect_store(registry, write_stats=store.stats)
        registry.write_json(args.metrics_json, metadata={
            "scale": scale.name,
            "seed": args.seed,
            "jobs": jobs,
            "traced_replay": tail.scenario,
        })
        print(f"[metrics] snapshot -> {args.metrics_json}", file=sys.stderr)


def main(argv: "list[str] | None" = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "query":
        # The query subcommand runs no experiments — it answers from
        # persisted artifacts — so it routes to its own parser before
        # the experiment parser constrains the positional.
        from repro.store.cli import main as query_main

        return query_main(arguments[1:])
    from repro.experiments.cache import ResultCache, default_cache_dir
    from repro.experiments.runner import CampaignTelemetry
    from repro.experiments.scale import resolve_scale

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument("experiment",
                        choices=EXPERIMENTS + tuple(ALIASES),
                        help="experiment id (see DESIGN.md), or an alias: "
                             "'all', 'fig6' (= fig6a+fig6b+fig6c); the "
                             "'query' subcommand (python -m "
                             "repro.experiments query --help) answers "
                             "aggregate/diff questions from a --store "
                             "directory without running experiments")
    scale_group = parser.add_mutually_exclusive_group()
    scale_group.add_argument("--quick", action="store_true",
                             help="reduced IRQ counts for a fast smoke run")
    scale_group.add_argument("--smoke", action="store_true",
                             help="tiny IRQ counts for CI smoke tests")
    scale_group.add_argument("--paper-scale", action="store_true",
                             help="full paper-scale IRQ counts (the default; "
                                  "spelled out for explicitness)")
    parser.add_argument("--seed", type=int, default=1,
                        help="base random seed (default 1); per-task seeds "
                             "are derived as seed + task index")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for the campaign "
                             "(default: os.cpu_count(); 1 = serial, "
                             "in-process)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="directory of the incremental result cache "
                             "(default: $REPRO_CACHE_DIR or .repro-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every task; do not read or write "
                             "the result cache")
    parser.add_argument("--cache-stats", action="store_true",
                        help="print cache hit/miss/bytes/time-saved "
                             "statistics to stderr")
    parser.add_argument("--export", metavar="DIR", default=None,
                        help="write CSV data (histograms, latency series) "
                             "to this directory")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="persist one columnar run artifact per "
                             "campaign task (plus a campaign index) into "
                             "this directory; query later with "
                             "'python -m repro.experiments query'")
    parser.add_argument("--metrics-json", metavar="FILE", default=None,
                        help="write a metrics snapshot (engine, "
                             "hypervisor/IRQ path, cache, campaign runner) "
                             "as JSON after the run")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="write a Chrome trace-event JSON (open in "
                             "ui.perfetto.dev) of a deterministic traced "
                             "replay of the fig6b scenario at this run's "
                             "scale and seed")
    parser.add_argument("--progress", action="store_true",
                        help="print per-task completion progress to stderr")
    args = parser.parse_args(arguments)
    if args.jobs is not None and args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")

    names = ALIASES.get(args.experiment, (args.experiment,))
    scale = resolve_scale(quick=args.quick, smoke=args.smoke)
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())

    instrument = (args.metrics_json is not None
                  or args.trace_out is not None
                  or args.progress)
    telemetry = CampaignTelemetry() if instrument else None

    def show_progress(done: int, total: int, task) -> None:
        print(f"[{task.experiment}] task {done}/{total} done ({task.kind})",
              file=sys.stderr)

    progress = show_progress if args.progress else None

    store = None
    if args.store is not None:
        from repro.store import CampaignStoreWriter, campaign_metadata

        store = CampaignStoreWriter(
            args.store,
            campaign_metadata(scale_name=scale.name, seed=args.seed),
        )

    # Each experiment's seconds run from the previous experiment's
    # emission (or the campaign start) to the end of its own, so with
    # --jobs > 1 they overlap other experiments' work but still sum to
    # the campaign wall.
    experiment_seconds: "dict[str, float]" = {}
    last_emission = time.perf_counter()

    def emit(name: str, merged) -> None:
        nonlocal last_emission
        output = _render_one(name, merged, args.export)
        print(f"=== {name} " + "=" * max(0, 50 - len(name)))
        print(output)
        print()
        now = time.perf_counter()
        experiment_seconds[name] = now - last_emission
        last_emission = now
        print(f"[{name}] {experiment_seconds[name]:.1f}s "
              f"(scale={scale.name}, jobs={jobs})", file=sys.stderr)

    tail = None
    if args.metrics_json is not None or args.trace_out is not None:
        tail = _start_traced_tail(args, scale=scale, jobs=jobs, store=store)
    try:
        run_campaign(names, scale, seed=args.seed, jobs=jobs, cache=cache,
                     telemetry=telemetry, progress=progress, store=store,
                     sink=emit)

        if args.cache_stats and cache is not None:
            print(f"[cache] {cache.stats.render()} dir={cache.directory}",
                  file=sys.stderr)

        if args.export is not None:
            _write_manifest(args.export, names=names, scale=scale,
                            args=args, jobs=jobs,
                            experiment_seconds=experiment_seconds,
                            cache=cache)

        if tail is not None:
            _export_telemetry(args, tail.result(), scale=scale, jobs=jobs,
                              cache=cache, telemetry=telemetry, store=store)
    except BaseException:
        # Stop a tail still running and drop its trace fragment.
        if tail is not None:
            tail.cancel()
        raise

    if store is not None:
        stats = store.finalize()
        print(f"[store] {stats.artifacts_written} artifacts, "
              f"{stats.rows_written} latency rows, "
              f"{stats.bytes_written:,} bytes -> {args.store} "
              f"({stats.write_seconds:.2f}s; "
              f"{stats.skipped_tasks} tasks without latency data)",
              file=sys.stderr)

    return 0


if __name__ == "__main__":
    sys.exit(main())
