"""One benchmark command: the experiments CLI in a fresh process.

Usage::

    python benchmarks/e2e/child.py --report FILE [--traced [--spans]] \\
        -- <python -m repro.experiments arguments>

The CLI's stdout and stderr pass through unchanged.  Untraced, the only
instrumentation is a timer around each ``run_campaign`` call the CLI
makes, and the host-speed sampler (``speed.py``); ``--traced`` wraps
every layer boundary instead (see ``layers.py``).  The report written
to ``--report`` is JSON: the CLI's exit code and per-experiment
``run_campaign`` walls.  Untraced, it also holds those walls in
reference seconds and the mean speed outside ``run_campaign``.  Traced,
it holds the layer totals (plus the span records with ``--spans``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", action="store_true")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_argv = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import repro.experiments.__main__ as cli
    import speed

    sampler = None if args.traced else speed.SpeedSampler()

    report: "dict" = {"experiments": {}}
    windows: "dict[str, list[tuple[float, float]]]" = {}
    tracer = None
    if args.traced:
        import layers

        tracer = layers.Tracer(clock=time.monotonic, keep_spans=args.spans)
        layers.install(tracer)
        for target in tracer.missing:
            print(f"[bench] boundary not found: {target}", file=sys.stderr)
    else:
        run_campaign = cli.run_campaign

        def timed_run_campaign(names, *rest, **kwargs):
            started = time.perf_counter()
            try:
                return run_campaign(names, *rest, **kwargs)
            finally:
                windows.setdefault("+".join(names), []).append(
                    (started, time.perf_counter()))

        cli.run_campaign = timed_run_campaign

    try:
        if sampler is not None:
            sampler.start()
        code = cli.main(cli_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        # Disarm the timer on every way out: once the interpreter shuts
        # down, a SIGALRM would kill the process.
        if sampler is not None:
            sampler.stop()
    sys.stdout.flush()

    report["rc"] = code
    if sampler is not None:
        report["experiments"] = {
            key: sum(end - start for start, end in spans)
            for key, spans in windows.items()}
        report["reference"] = {
            key: sum(sampler.reference_seconds(start, end)
                     for start, end in spans)
            for key, spans in windows.items()}
        report["rest_speed"] = sampler.speed(
            [span for spans in windows.values() for span in spans],
            inside=False)
    if tracer is not None:
        layers.finish(tracer)
        report.update(tracer.report())
        report["experiments"] = {
            experiment: tracer.totals.get(f"experiments.{experiment}.s", 0.0)
            for experiment in layers.EXPERIMENTS
            if f"experiments.{experiment}.s" in tracer.totals
        }
        if args.spans:
            report["spans"] = [
                [span[0], span[1], span[2], span[3], span[6], span[8],
                 span[9]]
                for span in tracer.spans
            ]
            report["dropped_spans"] = tracer.dropped_spans
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
