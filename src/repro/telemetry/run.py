"""Deterministic traced replay backing ``--trace-out``.

Parallel campaigns run their workers with tracing disabled — the trace
stream is too large to pickle across process boundaries, and recording
it would distort the timing the campaign measures.  To still produce a
Chrome trace for a campaign invocation, this module re-runs one
*representative cell* of the fig6 experiment in-process with tracing
and CPU-segment recording enabled: scenario "b" (monitored
interposing, so the trace exercises the full IRQ path — raise, top
handler, monitor accept *and* deny, interposed windows, slot switches)
at the campaign's own scale and seed.

The replay is fully deterministic: the interarrival stream depends
only on (scale, seed), exactly as the campaign's own fig6b task does,
so the exported trace faithfully shows what the campaign simulated —
and its recorder counts reconcile exactly with the collected
hypervisor metrics, which the acceptance test pins.

Because the replay depends only on (scale, seed), the CLI starts it
before the campaign: :class:`TracedTailJob` runs
:func:`run_traced_tail` — the replay, its ``.rpart`` artifact and
every trace event that does not depend on the campaign — in a
one-worker fork process while the campaign runs, or in-process after
it at ``--jobs 1``.  The worker hands back only small data (see
:class:`TracedTail`); the trace stays on disk as a fragment that
:func:`~repro.telemetry.perfetto.finish_chrome_trace` completes with
the campaign's spans.
"""

from __future__ import annotations

import multiprocessing
import signal
import traceback
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Optional

from repro.experiments.cache import import_closure
from repro.experiments.common import PaperSystemConfig, ScenarioResult
from repro.store.artifact import encode_trace_data
from repro.telemetry.collectors import collect_hypervisor
from repro.telemetry.perfetto import (
    discard_trace_fragment,
    write_chrome_trace,
    write_trace_fragment,
)
from repro.telemetry.registry import MetricsRegistry

#: Scenario the traced replay runs (see module docstring).
TRACED_SCENARIO = "b"


@dataclass
class TracedRun:
    """One in-process run with tracing + CPU segments enabled."""

    scenario: str
    load: float
    seed: int
    result: ScenarioResult

    @property
    def hypervisor(self) -> Any:
        return self.result.hypervisor

    @property
    def trace(self) -> Any:
        return self.result.hypervisor.trace

    @property
    def clock(self) -> Any:
        return self.result.hypervisor.clock

    @property
    def cpu_segments(self) -> "list[Any]":
        segments = self.result.hypervisor.cpu.segments
        return list(segments) if segments is not None else []


def run_traced_fig6(irqs: int, seed: int,
                    scenario: str = TRACED_SCENARIO,
                    load_index: int = 0,
                    system: Optional[PaperSystemConfig] = None) -> TracedRun:
    """Replay one fig6 (scenario, load) cell with full observability.

    Runs :func:`repro.experiments.fig6.run_fig6_cell`, the campaign's
    own cell builder, on a system built with ``trace_enabled=True`` and
    ``record_cpu_segments=True``, and keeps the *full*
    :class:`ScenarioResult` so the caller can reach the live hypervisor.
    """
    import dataclasses

    from repro.experiments.fig6 import Fig6Config, run_fig6_cell

    base = system if system is not None else PaperSystemConfig()
    traced_system = dataclasses.replace(
        base, trace_enabled=True, record_cpu_segments=True
    )
    config = Fig6Config(system=traced_system, irqs_per_load=irqs, seed=seed)
    result = run_fig6_cell(scenario, config, load_index)
    return TracedRun(scenario=scenario, load=config.loads[load_index],
                     seed=config.seed + load_index, result=result)


def export_traced_run(run: TracedRun,
                      trace_path: "str | None" = None,
                      registry: Optional[MetricsRegistry] = None,
                      campaign: Any = None,
                      metadata: Optional[dict] = None) -> Optional[int]:
    """Export a traced run: Chrome trace file and/or metrics sampling.

    Returns the number of trace events written (None when no
    ``trace_path`` was given).

    The trace is streamed straight from the live recorder, one event
    at a time (see :func:`~repro.telemetry.perfetto.write_chrome_trace`).
    A persisted artifact's recorder (``RunArtifact.trace_recorder``)
    renders the same bytes; the store tests pin that as an oracle
    rather than every export paying for a columnar round trip.
    """
    written = None
    if trace_path is not None:
        meta = _trace_metadata(run)
        if metadata:
            meta.update(metadata)
        written = write_chrome_trace(
            trace_path,
            run.trace,
            clock=run.clock,
            cpu_segments=run.cpu_segments,
            campaign=campaign,
            engine=run.hypervisor.engine,
            metadata=meta,
        )
    if registry is not None:
        collect_hypervisor(registry, run.hypervisor,
                           run=f"fig6{run.scenario}")
    return written


def _trace_metadata(run: TracedRun) -> "dict[str, Any]":
    """The ``otherData`` fields a traced run contributes to its trace."""
    return {
        "scenario": f"fig6{run.scenario}",
        "load": run.load,
        "seed": run.seed,
        "recorded_events": len(run.trace),
        "dropped_events": run.trace.dropped,
    }


@dataclass
class TracedTail:
    """What :func:`run_traced_tail` hands back: small data only.

    The trace itself stays in the ``fragment`` file: pickling the
    recorder and the CPU segments across a process line would cost
    more than the replay.
    """

    scenario: str
    #: Trace fragment path, and the events written into it.
    fragment: Optional[str]
    events: int
    #: The replay's ``otherData`` fields (see :func:`export_traced_run`).
    metadata: "dict[str, Any]"
    #: The replay's ``hv_*`` metrics, when metrics were asked for.
    registry: Optional[MetricsRegistry]
    #: The writer that stored the replay's artifact, for
    #: :meth:`~repro.store.capture.CampaignStoreWriter.merge`.
    store: Any


def run_traced_tail(irqs: int, seed: int, *,
                    fragment: Optional[str] = None,
                    store: Any = None,
                    metrics: bool = False) -> TracedTail:
    """Everything ``--trace-out`` / ``--metrics-json`` need but the campaign.

    Replays the traced fig6b cell (:func:`run_traced_fig6`), stores it
    through ``store`` (a
    :class:`~repro.store.capture.CampaignStoreWriter` of its own),
    writes its events into ``fragment``
    (:func:`~repro.telemetry.perfetto.write_trace_fragment`) and
    samples its hypervisor metrics.  Each event's args are encoded once,
    for both the store and the fragment.
    """
    run = run_traced_fig6(irqs=irqs, seed=seed)
    payloads = (encode_trace_data(run.trace)
                if store is not None or fragment is not None else None)
    if store is not None:
        store.write_traced_run(run, payloads=payloads)
    events = 0
    if fragment is not None:
        events = write_trace_fragment(
            fragment, run.trace, clock=run.clock,
            cpu_segments=run.cpu_segments, engine=run.hypervisor.engine,
            payloads=payloads)
    registry = None
    if metrics:
        registry = MetricsRegistry()
        collect_hypervisor(registry, run.hypervisor,
                           run=f"fig6{run.scenario}")
    return TracedTail(scenario=f"fig6{run.scenario}", fragment=fragment,
                      events=events, metadata=_trace_metadata(run),
                      registry=registry, store=store)


#: How long a cancelled tail worker may take to unwind before it is
#: killed outright.
_TERMINATE_GRACE_SECONDS = 5.0


class _RemoteTraceback(Exception):
    """The formatted traceback of an error raised in the tail worker."""

    def __str__(self) -> str:
        return self.args[0]


def _exit_on_terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def _tail_worker(connection: Any, kwargs: "dict[str, Any]") -> None:
    """Body of the tail's worker process: run, send back the outcome."""
    # terminate() from the parent unwinds the tail like an error, so
    # the store's temp artifact is removed on the way out.
    signal.signal(signal.SIGTERM, _exit_on_terminate)
    try:
        outcome = (run_traced_tail(**kwargs), None, None)
    except Exception as error:
        outcome = (None, error, traceback.format_exc())
    try:
        connection.send(outcome)
    except Exception as failure:
        # The outcome does not pickle: send the error as text instead.
        error = outcome[1] if outcome[1] is not None else failure
        connection.send((None, RuntimeError(repr(error)), outcome[2]))
    finally:
        connection.close()


class TracedTailJob:
    """One CLI run's traced tail, started before its campaign.

    With ``background`` the tail runs in a one-worker fork process
    while the campaign runs; otherwise :meth:`result` runs it
    in-process.  Either way :func:`run_traced_tail` does the work.  The
    job owns the trace fragment: :meth:`cancel` stops the tail and
    removes it, and the caller calls it whenever the run fails, the
    tail included.  A worker that dies without an answer raises
    :class:`~concurrent.futures.process.BrokenProcessPool`, as a dead
    campaign worker does.
    """

    def __init__(self, background: bool, **kwargs: Any):
        self._kwargs = kwargs
        self._process = None
        self._connection = None
        if background:
            # fork is cheapest and inherits the imported modules (the
            # job starts before the campaign's pool, so the process has
            # no other threads yet); fall back to the platform default
            # where fork is unavailable.
            context = (multiprocessing.get_context("fork")
                       if "fork" in multiprocessing.get_all_start_methods()
                       else multiprocessing.get_context())
            # The replay imports the simulator inside its functions:
            # import it here, so the campaign's pool inherits it too.
            import_closure(__name__)
            self._connection, sender = context.Pipe(duplex=False)
            self._process = context.Process(
                target=_tail_worker, args=(sender, kwargs),
                name="traced-tail", daemon=True)
            self._process.start()
            sender.close()

    def result(self) -> TracedTail:
        """Wait for the tail and return what it hands back.

        Raises what the tail raised; the caller then calls
        :meth:`cancel`, as it does when anything else fails first.
        """
        if self._process is None:
            return run_traced_tail(**self._kwargs)
        try:
            tail, error, remote = self._connection.recv()
        except EOFError:
            self._process.join()
            raise BrokenProcessPool(
                "the traced-tail worker died without an answer (exit "
                f"code {self._process.exitcode})") from None
        self._process.join()
        if error is not None:
            raise error from _RemoteTraceback(remote)
        return tail

    def cancel(self) -> None:
        """Stop the tail if it still runs and remove its fragment."""
        if self._process is not None:
            self._process.terminate()
            self._process.join(_TERMINATE_GRACE_SECONDS)
            if self._process.is_alive():
                self._process.kill()
                self._process.join()
            self._connection.close()
        fragment = self._kwargs.get("fragment")
        if fragment is not None:
            discard_trace_fragment(fragment)
