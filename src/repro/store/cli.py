"""The ``python -m repro.experiments query`` subcommand.

Answers store questions from persisted artifacts without re-running
any simulation:

* ``query list STORE`` — one row per artifact (experiment, scenario,
  load, seed);
* ``query aggregate STORE [filters] [--percentiles 50,99,99.9]`` —
  merged percentile summary over the matching latency rows, via the
  same :func:`repro.metrics.stats.summarize` the live runs use;
* ``query diff STORE_A STORE_B [filters]`` — per-(experiment,
  scenario, load) latency deltas between two campaigns.

Every subcommand prints an aligned table by default or a JSON
document with ``--json`` (for CI assertions and downstream tooling).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional, Sequence

from repro.metrics.report import render_table
from repro.store.runstore import RunStore, StoreQueryStats


def _parse_percentiles(text: str) -> "list[float]":
    values = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            value = float(piece)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"percentile must be a number, got {piece!r}"
            ) from None
        if not 0.0 <= value <= 100.0:
            raise argparse.ArgumentTypeError(
                f"percentile must be in [0, 100], got {piece!r}"
            )
        values.append(value)
    if not values:
        raise argparse.ArgumentTypeError(
            f"no percentiles given in {text!r}"
        )
    return values


def _add_filters(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--experiment", action="append", default=None,
                        help="filter by experiment id (repeatable)")
    parser.add_argument("--kind", default=None,
                        help="filter by task kind (e.g. fig6-load)")
    parser.add_argument("--scenario", default=None,
                        help="filter by scenario / case label")
    parser.add_argument("--seed", type=int, default=None,
                        help="filter by per-task seed")
    parser.add_argument("--load", type=float, default=None,
                        help="filter by interrupt load bound")


def _filters(args: argparse.Namespace) -> "dict[str, Any]":
    experiment = args.experiment
    if experiment is not None and len(experiment) == 1:
        experiment = experiment[0]
    return {
        "experiment": experiment,
        "kind": args.kind,
        "scenario": args.scenario,
        "seed": args.seed,
        "load": args.load,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments query",
        description="Query persisted campaign run artifacts "
                    "(no simulation runs).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser(
        "list", help="list the artifacts in a store directory")
    list_parser.add_argument("store", help="store directory")
    _add_filters(list_parser)
    list_parser.add_argument("--json", action="store_true",
                             help="print JSON instead of a table")

    agg_parser = commands.add_parser(
        "aggregate",
        help="percentile summary over the matching latency rows")
    agg_parser.add_argument("store", help="store directory")
    _add_filters(agg_parser)
    agg_parser.add_argument("--leg", default=None,
                            help="row filter: result leg "
                                 "(e.g. monitored, boosted, scenario)")
    agg_parser.add_argument("--source", default=None,
                            help="row filter: IRQ source name")
    agg_parser.add_argument("--mode", default=None,
                            choices=("direct", "interposed", "delayed"),
                            help="row filter: handling mode")
    agg_parser.add_argument("--percentiles", type=_parse_percentiles,
                            default=None, metavar="P,P,...",
                            help="extra percentiles, e.g. 50,95,99,99.9")
    agg_parser.add_argument("--json", action="store_true",
                            help="print JSON instead of a table")

    diff_parser = commands.add_parser(
        "diff", help="per-scenario latency deltas between two stores")
    diff_parser.add_argument("store_a", help="baseline store directory")
    diff_parser.add_argument("store_b", help="comparison store directory")
    _add_filters(diff_parser)
    diff_parser.add_argument("--json", action="store_true",
                             help="print JSON instead of a table")

    return parser


def _cmd_list(args: argparse.Namespace, stats: StoreQueryStats) -> int:
    store = RunStore(args.store, stats=stats)
    refs = store.select(**_filters(args))
    selected = {ref.path.name for ref in refs}
    rows = [row for row in store.describe() if row["artifact"] in selected]
    if args.json:
        print(json.dumps({"artifacts": rows}, indent=2))
        return 0
    print(render_table(
        ("artifact", "experiment", "scenario", "load", "seed"),
        [(row["artifact"], row["experiment"], row["scenario"],
          "-" if row["load"] is None else row["load"],
          "-" if row["seed"] is None else row["seed"])
         for row in rows],
        title=f"{len(rows)} artifacts in {args.store}",
    ))
    return 0


def _cmd_aggregate(args: argparse.Namespace, stats: StoreQueryStats) -> int:
    store = RunStore(args.store, stats=stats)
    result = store.aggregate(
        percentiles=args.percentiles or (),
        leg=args.leg, source=args.source, mode=args.mode,
        **_filters(args),
    )
    if args.json:
        print(json.dumps(result.as_dict(), indent=2))
        return 0 if result.count else 1
    if not result.count:
        print(f"no latency rows matched in {args.store} "
              f"({result.artifacts} artifacts selected)", file=sys.stderr)
        return 1
    summary = result.summary
    rows = [
        ("samples", summary.count),
        ("artifacts", result.artifacts),
        ("mean (us)", summary.mean),
        ("min (us)", summary.minimum),
        ("p50 (us)", summary.p50),
        ("p95 (us)", summary.p95),
        ("p99 (us)", summary.p99),
        ("max (us)", summary.maximum),
        ("stddev (us)", summary.stddev),
    ]
    rows += [(f"{name} (us)", value)
             for name, value in result.percentiles.items()]
    print(render_table(("metric", "value"), rows,
                       title=f"latency aggregate over {args.store}"))
    return 0


def _cmd_diff(args: argparse.Namespace, stats: StoreQueryStats) -> int:
    store_a = RunStore(args.store_a, stats=stats)
    store_b = RunStore(args.store_b, stats=stats)
    result = store_a.diff(store_b, **_filters(args))
    if args.json:
        print(json.dumps(result.as_dict(), indent=2))
        return 0 if result.groups else 1
    if not result.groups:
        print(f"no common (experiment, scenario, load) groups between "
              f"{args.store_a} and {args.store_b}", file=sys.stderr)
        return 1
    print(render_table(
        ("experiment", "scenario", "load", "n(A)", "n(B)",
         "mean A (us)", "mean B (us)", "Δmean", "Δp50", "Δp99", "Δmax"),
        [(delta.group[0], delta.group[1],
          "-" if delta.group[2] is None else delta.group[2],
          delta.count_a, delta.count_b, delta.mean_a, delta.mean_b,
          delta.mean_delta, delta.p50_delta, delta.p99_delta,
          delta.max_delta)
         for delta in result.groups],
        title=f"latency deltas: {args.store_b} minus {args.store_a}",
    ))
    for group in result.only_in_a:
        print(f"only in {args.store_a}: {group}", file=sys.stderr)
    for group in result.only_in_b:
        print(f"only in {args.store_b}: {group}", file=sys.stderr)
    return 0


def main(argv: "Optional[Sequence[str]]" = None) -> int:
    """Entry point for the ``query`` subcommand."""
    args = build_parser().parse_args(argv)
    stats = StoreQueryStats()
    try:
        if args.command == "list":
            return _cmd_list(args, stats)
        if args.command == "aggregate":
            return _cmd_aggregate(args, stats)
        return _cmd_diff(args, stats)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout went away mid-table (e.g. `query list ... | head`);
        # exit quietly the way other unix table printers do.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
