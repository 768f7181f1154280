"""Experiment runners — one per paper table/figure (see DESIGN.md §4).

Run from the command line::

    python -m repro.experiments fig6a
    python -m repro.experiments fig7 --quick
    python -m repro.experiments all

The runners resolve on first use (see :mod:`repro._lazy`), so the
``query`` subcommand never imports the simulator.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BoostAblationResult",
    "DepthAblationResult",
    "ThrottleAblationResult",
    "render_boost_ablation",
    "render_depth_ablation",
    "render_throttle_ablation",
    "run_boost_ablation",
    "run_depth_ablation",
    "run_throttle_ablation",
    "DesignResult",
    "render_design",
    "run_design",
    "PaperSystemConfig",
    "ScenarioResult",
    "run_irq_scenario",
    "Fig6Config",
    "Fig6Result",
    "FIG6_PAPER_REFERENCE",
    "render_fig6",
    "run_fig6",
    "FIG7_CASES",
    "Fig7CaseResult",
    "Fig7Config",
    "FIG7_PAPER_REFERENCE",
    "render_fig7",
    "run_fig7",
    "run_fig7_case",
    "ContextSwitchComparison",
    "OverheadResult",
    "render_overhead",
    "run_overhead",
    "CycleSweepPoint",
    "DminSweepPoint",
    "render_cycle_sweep",
    "render_dmin_sweep",
    "run_cycle_sweep",
    "run_dmin_sweep",
    "ValidationResult",
    "render_validation",
    "run_validation",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "ablation": ("BoostAblationResult", "DepthAblationResult",
                 "ThrottleAblationResult", "render_boost_ablation",
                 "render_depth_ablation", "render_throttle_ablation",
                 "run_boost_ablation", "run_depth_ablation",
                 "run_throttle_ablation"),
    "design": ("DesignResult", "render_design", "run_design"),
    "common": ("PaperSystemConfig", "ScenarioResult", "run_irq_scenario"),
    "fig6": ("Fig6Config", "Fig6Result",
             ("FIG6_PAPER_REFERENCE", "PAPER_REFERENCE"), "render_fig6",
             "run_fig6"),
    "fig7": ("FIG7_CASES", "Fig7CaseResult", "Fig7Config",
             ("FIG7_PAPER_REFERENCE", "PAPER_REFERENCE"), "render_fig7",
             "run_fig7", "run_fig7_case"),
    "overhead": ("ContextSwitchComparison", "OverheadResult",
                 "render_overhead", "run_overhead"),
    "sweep": ("CycleSweepPoint", "DminSweepPoint", "render_cycle_sweep",
              "render_dmin_sweep", "run_cycle_sweep", "run_dmin_sweep"),
    "validation": ("ValidationResult", "render_validation", "run_validation"),
})
