"""Benchmark eq-analysis — analysis-vs-simulation validation.

Regenerates the paper's correctness claims (Sections 4/5.1): the
busy-window bounds of Eqs. 11/12 and Eq. 16 dominate the measured
latencies, and the Eq. 14 interference bound holds on every victim
partition over arbitrary sliding windows.
"""

from repro.experiments.validation import render_validation, run_validation


def test_eq_analysis(benchmark, scale):
    result = benchmark.pedantic(
        run_validation,
        kwargs={"irq_count": scale.validation_irqs},
        rounds=1, iterations=1,
    )
    print()
    print(render_validation(result))

    benchmark.extra_info["classic_bound_us"] = result.classic_bound_us
    benchmark.extra_info["classic_measured_max_us"] = result.classic_measured_max_us
    benchmark.extra_info["interposed_bound_us"] = result.interposed_bound_us
    benchmark.extra_info["interposed_measured_max_us"] = (
        result.interposed_measured_max_us
    )
    benchmark.extra_info["analytic_improvement"] = round(
        result.analytic_improvement, 1
    )
    benchmark.extra_info["eq14_worst_ratio"] = max(
        report.worst_ratio() for report in result.independence_reports
    )

    assert result.all_hold
    # the classic bound is TDMA-dominated and tight
    assert result.classic_bound_us > 8_000
    assert result.classic_measured_max_us > 0.9 * result.classic_bound_us
    # the interposed bound is TDMA-free
    assert result.interposed_bound_us < 200
    # Eq. 14 is tight (the monitor admits exactly the budgeted pattern)
    assert all(report.worst_ratio() <= 1.0
               for report in result.independence_reports)

