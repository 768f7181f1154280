"""Smoke and shape tests for the experiment runners.

These run reduced-size versions of every paper experiment and assert
the *shape* results the reproduction must exhibit (who wins, rough
factors, orderings) — not absolute microsecond values.
"""

import pytest

from repro.experiments.ablation import (
    run_boost_ablation,
    run_throttle_ablation,
)
from repro.experiments.common import PaperSystemConfig
from repro.experiments.fig6 import Fig6Config, render_fig6, run_fig6
from repro.experiments.fig7 import (
    Fig7Config,
    render_fig7,
    run_fig7,
)
from repro.experiments.overhead import (
    overhead_scenarios,
    render_overhead,
    run_overhead,
)
from repro.experiments.runner import TASK_FUNCTIONS
from repro.experiments.scale import QUICK
from repro.experiments.sweep import (
    render_cycle_sweep,
    render_dmin_sweep,
    run_cycle_sweep,
    run_dmin_sweep,
)
from repro.experiments.validation import render_validation, run_validation
from repro.hypervisor.context import SwitchReason
from repro.workloads.automotive import AutomotiveTraceConfig


@pytest.fixture(scope="module")
def fig6_results():
    config = Fig6Config(irqs_per_load=600)
    return {scenario: run_fig6(scenario, config) for scenario in "abc"}


class TestPaperSystemConfig:
    def test_tdma_geometry(self):
        system = PaperSystemConfig()
        assert system.tdma_cycle_us == 14_000
        assert system.foreign_time_us == 8_000


class TestFig6(object):
    def test_scenario_a_shape(self, fig6_results):
        """Fig. 6a: ~40% direct / ~60% delayed, avg ~2500 us, delayed
        tail reaching toward T_TDMA - T_i = 8000 us."""
        result = fig6_results["a"]
        fractions = result.mode_fractions()
        assert 0.3 < fractions.get("direct", 0) < 0.55
        assert 0.45 < fractions.get("delayed", 0) < 0.7
        assert fractions.get("interposed", 0) == 0
        assert 1_800 < result.avg_latency_us < 3_200
        assert 7_000 < result.max_latency_us < 8_500      # T_TDMA - T_i bound

    def test_scenario_b_shape(self, fig6_results):
        """Fig. 6b: a large share of delayed IRQs becomes interposed;
        the average roughly halves; worst case stays TDMA-bound."""
        a, b = fig6_results["a"], fig6_results["b"]
        fractions = b.mode_fractions()
        assert fractions.get("interposed", 0) > 0.15
        assert fractions.get("delayed", 0) > 0.05
        assert b.avg_latency_us < 0.65 * a.avg_latency_us
        assert b.max_latency_us > 5_000
        assert b.max_latency_us > 0.8 * a.max_latency_us

    def test_scenario_c_shape(self, fig6_results):
        """Fig. 6c: no delayed IRQs; large improvement (paper: ~16x);
        worst case decoupled from the TDMA cycle."""
        a, c = fig6_results["a"], fig6_results["c"]
        fractions = c.mode_fractions()
        assert fractions.get("delayed", 0) == 0
        assert a.avg_latency_us / c.avg_latency_us > 8
        assert c.max_latency_us < 1_000

    def test_histograms_complete(self, fig6_results):
        for result in fig6_results.values():
            assert result.histogram.total == len(result.latencies_us)

    def test_render(self, fig6_results):
        text = render_fig6(fig6_results["a"])
        assert "Fig. 6a" in text
        assert "avg latency" in text

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_fig6("x")


class TestFig7:
    @pytest.fixture(scope="class")
    def results(self):
        config = Fig7Config(
            trace=AutomotiveTraceConfig(activation_count=2_500)
        )
        return run_fig7(config)

    def test_learning_phase_at_unmonitored_level(self, results):
        """During learning only direct/delayed handling is active, so
        the learn average sits at the unmonitored level (~2200 us in
        the paper's system)."""
        for result in results.values():
            assert result.learn_avg_us > 1_500

    def test_run_averages_strictly_ordered(self, results):
        """Fig. 7: a < b < c < d."""
        assert (results["a"].run_avg_us < results["b"].run_avg_us
                < results["c"].run_avg_us < results["d"].run_avg_us)

    def test_case_a_drops_an_order_of_magnitude(self, results):
        assert results["a"].run_avg_us < results["a"].learn_avg_us / 10

    def test_bounds_trade_latency_for_load(self, results):
        """Tighter load bounds mean fewer interposed, more delayed."""
        interposed = [results[k].scenario.mode_counts.get("interposed", 0)
                      for k in "abcd"]
        delayed = [results[k].scenario.mode_counts.get("delayed", 0)
                   for k in "abcd"]
        assert interposed == sorted(interposed, reverse=True)
        assert delayed == sorted(delayed)
        assert delayed[-1] > delayed[0]

    def test_monitor_tables_scale(self, results):
        assert results["b"].monitor_table[0] >= 4 * results["a"].monitor_table[0]

    def test_render(self, results):
        text = render_fig7(results)
        assert "Fig. 7" in text
        assert "unbounded" in text

    def test_unknown_case_rejected(self):
        from repro.experiments.fig7 import run_fig7_case
        with pytest.raises(ValueError):
            run_fig7_case("z")


class TestOverhead:
    @pytest.fixture(scope="class")
    def result(self):
        return run_overhead(irqs_per_load=300)

    def test_paper_constants(self, result):
        assert result.monitor_cycles == 128
        assert result.scheduler_cycles == 877
        assert result.context_switch_cycles == 10_000
        assert result.paper_code_bytes == 1120
        assert result.paper_data_bytes == 28
        assert result.modelled_monitor_data_bytes == 28

    def test_context_switches_increase_with_monitoring(self, result):
        for comparison in result.context_switch_comparisons:
            assert comparison.switches_with > comparison.switches_without
            assert comparison.increase > 0
        assert result.overall_context_switch_increase > 0

    def test_increase_grows_with_load(self, result):
        increases = [c.increase for c in result.context_switch_comparisons]
        assert increases == sorted(increases)

    def test_render(self, result):
        text = render_overhead(result)
        assert "C_Mon" in text
        assert "1120" in text

    @pytest.mark.parametrize("load_index", [0, 1, 2])
    def test_increase_is_two_switches_per_window(self, load_index):
        """Each interposed window costs exactly one switch in and one
        out; the residue of the increase is the difference in slot
        switches, because the monitored run finishes earlier."""
        baseline, monitored = overhead_scenarios(load_index,
                                                 irqs_per_load=300)
        without = baseline.hypervisor.context_switches
        with_ = monitored.hypervisor.context_switches
        windows = monitored.hypervisor.stats.windows_opened
        assert windows > 0
        assert (with_.count(SwitchReason.INTERPOSE_ENTER)
                == with_.count(SwitchReason.INTERPOSE_EXIT) == windows)
        assert with_.total - without.total == 2 * windows + (
            with_.count(SwitchReason.SLOT) - without.count(SwitchReason.SLOT))

    def test_effective_cbh_of_400us_gives_the_papers_ten_percent(self):
        """EXPERIMENTS.md infers that the paper's ~10 % increase at
        U = 1 % means an effective C'_BH of about 400 µs per window on
        its platform.  With that cost (and the tab62 arrival stream
        it implies, lambda = C'_BH / U), the increase must land within
        2.5 points of 10 %."""
        system = PaperSystemConfig()
        clock = system.clock()
        costs = system.costs
        c_bh = (clock.us_to_cycles(400) - costs.scheduler_cycles()
                - 2 * costs.context_switch_cycles())
        system = PaperSystemConfig(bottom_handler_us=clock.cycles_to_us(c_bh))
        assert system.effective_bottom_cycles(clock) == clock.us_to_cycles(400)
        baseline, monitored = overhead_scenarios(
            0, loads=(0.01,), irqs_per_load=2_000, system=system)
        without = baseline.hypervisor.context_switches.total
        with_ = monitored.hypervisor.context_switches.total
        assert 0.075 <= (with_ - without) / without <= 0.125


class TestValidation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_validation(irq_count=800)

    def test_all_bounds_hold(self, result):
        assert result.classic_holds
        assert result.interposed_holds
        assert result.independence_holds
        assert result.all_hold

    def test_classic_bound_is_tdma_dominated(self, result):
        assert result.classic_bound_us > 8_000

    def test_interposed_bound_is_tdma_free(self, result):
        assert result.interposed_bound_us < 200

    def test_bounds_are_reasonably_tight(self, result):
        assert result.classic_measured_max_us > 0.9 * result.classic_bound_us
        assert result.interposed_measured_max_us > 0.5 * result.interposed_bound_us

    def test_render(self, result):
        text = render_validation(result)
        assert "holds=True" in text


class TestAblations:
    def test_boost_ablation(self):
        result = run_boost_ablation(irq_count=400)
        assert result.monitored_within_budget
        assert result.boost_breaks_budget
        assert (result.boosted_worst_interference_us
                > 2 * result.monitored_worst_interference_us)
        # boost is fast but unsafe; monitored is safe:
        assert result.boosted.avg_latency_us < result.monitored.avg_latency_us

    def test_throttle_ablation(self):
        result = run_throttle_ablation(irq_count=450)
        assert result.suppressed_irqs > 0
        assert len(result.monitored.records) == 450       # nothing lost
        assert len(result.throttled.records) < 450        # IRQs lost
        assert result.throttling_keeps_tdma_latency


class TestSweeps:
    def test_cycle_sweep_shapes(self):
        points = run_cycle_sweep(irq_count=200, scales=(1.0, 2.0, 4.0))
        classic = [p.classic_measured_max_us for p in points]
        interposed = [p.interposed_measured_max_us for p in points]
        # classic worst case grows with the cycle...
        assert classic[0] < classic[1] < classic[2]
        # ...the interposed worst case does not (observation 2, §5.1)
        assert max(interposed) - min(interposed) < 50
        # analytic bounds hold at every scale
        for point in points:
            assert point.classic_measured_max_us <= point.classic_bound_us
            assert point.interposed_measured_max_us <= point.interposed_bound_us

    def test_cycle_sweep_at_quick_scale(self):
        """The default scales (0.5x to 4x) at ``--quick`` size: an 8x
        longer cycle gives a more than 4x larger classic worst case."""
        points = run_cycle_sweep(irq_count=QUICK.sweep_irqs)
        classic = [p.classic_measured_max_us for p in points]
        interposed = [p.interposed_measured_max_us for p in points]
        assert classic == sorted(classic)
        assert classic[-1] > 4 * classic[0]
        assert max(interposed) - min(interposed) < 50
        for point in points:
            assert point.classic_measured_max_us <= point.classic_bound_us
            assert point.interposed_measured_max_us <= point.interposed_bound_us

    def test_dmin_sweep_tradeoff(self):
        points = run_dmin_sweep(irq_count=200,
                                dmin_multipliers=(1.0, 4.0, 16.0))
        budgets = [p.interference_budget_fraction for p in points]
        latencies = [p.avg_latency_us for p in points]
        assert budgets == sorted(budgets, reverse=True)
        assert latencies == sorted(latencies)

    def test_renders(self):
        cycle = run_cycle_sweep(irq_count=100, scales=(1.0, 2.0))
        dmin = run_dmin_sweep(irq_count=100, dmin_multipliers=(1.0, 2.0))
        assert "T_TDMA" in render_cycle_sweep(cycle)
        assert "d_min" in render_dmin_sweep(dmin)


@pytest.mark.parametrize("idle_skip", ["1", "0"])
def test_lightweight_frees_the_hypervisor_without_the_cyclic_gc(idle_skip):
    """After ``lightweight()`` a finished hypervisor is freed by reference
    counting alone: nothing it owns points back at it any more, under
    the idle-skip engine ("1") and its tick-by-tick oracle ("0")."""
    import gc
    import weakref

    from conftest import engine_mode
    from repro.core.monitor import DeltaMinusMonitor
    from repro.core.policy import MonitoredInterposing
    from repro.experiments.common import run_irq_scenario
    from repro.workloads.synthetic import exponential_interarrivals

    system = PaperSystemConfig()
    dmin = system.clock().us_to_cycles(1_000)
    enabled = gc.isenabled()
    gc.disable()
    try:
        with engine_mode(idle_skip == "1"):
            result = run_irq_scenario(
                system,
                MonitoredInterposing(DeltaMinusMonitor.from_dmin(dmin)),
                exponential_interarrivals(200, dmin, seed=3))
        alive = weakref.ref(result.hypervisor)
        summary = result.lightweight()
        del result
        assert alive() is None
    finally:
        if enabled:
            gc.enable()
    assert len(summary.latencies_us) == 200


def _first_smoke_task(kind):
    from repro.experiments.__main__ import EXPERIMENTS
    from repro.experiments.runner import plan_campaign
    from repro.experiments.scale import SMOKE

    tasks, _ = plan_campaign(EXPERIMENTS, SMOKE, seed=1)
    return next(task for task in tasks if task.kind == kind)


@pytest.mark.parametrize("kind", sorted(TASK_FUNCTIONS))
def test_campaign_tasks_leave_no_hypervisor_to_the_cyclic_gc(kind,
                                                             monkeypatch):
    """Every task kind frees the hypervisors it builds by reference
    counting alone, so a campaign's peak memory follows its live data
    rather than the cyclic collector's timing."""
    import gc
    import weakref

    from repro.experiments.runner import execute_task
    from repro.hypervisor.hypervisor import Hypervisor

    task = _first_smoke_task(kind)
    built = []
    init = Hypervisor.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(Hypervisor, "__init__", tracking_init)
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = execute_task(task)
        del result
        alive = sum(ref() is not None for ref in built)
    finally:
        if enabled:
            gc.enable()
    assert built, f"{kind} built no hypervisor"
    assert alive == 0, f"{alive} of {len(built)} hypervisors of {kind} " \
                       f"survive their task's result"


@pytest.mark.parametrize("load_index", [0, 1, 2])
def test_fig6c_latency_is_exactly_direct_or_interposed(load_index):
    """Scenario (c) keeps every arrival d_min apart, so the monitor
    admits each IRQ it is asked about and no IRQ waits for a slot: each
    is handled directly, costing C_TH + C_BH, or in an interposed
    window, costing C_TH + C_Mon + C_sched + C_ctx + C_BH — exactly,
    per IRQ.  The shape gate's ``fig6c-band`` constants are these two
    costs.

    The interposed cost is the Eq. 16 bound for the load's d_min-sporadic
    stream, C'_TH + C'_BH = 29,405 cycles, minus one C_ctx: C'_BH
    (Eq. 13) counts the exit switch, which runs after the bottom handler
    has completed.  That is the slack ``validation`` prints as a
    147.0 us bound against 97.0 us measured."""
    from repro.analysis.event_models import PeriodicEventModel
    from repro.analysis.latency import interposed_irq_latency
    from repro.core.policy import HandlingMode
    from repro.experiments.fig6 import run_fig6_load
    from repro.experiments.scale import SMOKE
    from repro.experiments.shape import FIG6C_DIRECT_US, FIG6C_INTERPOSED_US
    from repro.workloads.synthetic import lambda_for_load

    config = Fig6Config(irqs_per_load=SMOKE.fig6_irqs_per_load)
    system = config.system
    clock, costs = system.clock(), system.costs
    c_th = clock.us_to_cycles(system.top_handler_us)
    c_bh = clock.us_to_cycles(system.bottom_handler_us)
    expected = {
        HandlingMode.DIRECT: c_th + c_bh,
        HandlingMode.INTERPOSED: c_th + c_bh + costs.monitor_cycles()
        + costs.scheduler_cycles() + costs.context_switch_cycles(),
    }
    assert clock.cycles_to_us(expected[HandlingMode.DIRECT]) \
        == FIG6C_DIRECT_US
    assert clock.cycles_to_us(expected[HandlingMode.INTERPOSED]) \
        == FIG6C_INTERPOSED_US
    dmin = lambda_for_load(c_bh, config.loads[load_index], costs)
    eq16 = interposed_irq_latency(PeriodicEventModel(dmin), c_th, c_bh,
                                  costs=costs).response_time_cycles
    assert eq16 - costs.context_switch_cycles() \
        == expected[HandlingMode.INTERPOSED] == 19_405
    records = run_fig6_load("c", config, load_index).records
    assert len(records) == SMOKE.fig6_irqs_per_load
    assert {record.mode for record in records} == set(expected)
    for record in records:
        assert record.latency == expected[record.mode], record

