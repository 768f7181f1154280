"""The single source of truth for experiment sizes.

EXPERIMENTS.md describes the paper-scale fig6 runs as 15000 IRQs per
scenario; that is 3 interrupt loads x 5000 IRQs per load (Section 6.1
runs U_IRQ in {1 %, 5 %, 10 %} cumulatively), so ``fig6_irqs_per_load``
is 5000 at paper scale.  The ``python -m repro.experiments`` CLI
(full / ``--quick`` / ``--smoke``) resolves its IRQ counts from this
module, and tests that need a tier's size import it from here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ExperimentScale:
    """IRQ / activation counts for one tier of experiment runs."""

    name: str
    #: IRQs per interrupt load; fig6 runs 3 loads, so the per-scenario
    #: total is three times this (15000 at paper scale).
    fig6_irqs_per_load: int
    #: Activations of the automotive trace (paper: ~11000).
    fig7_activations: int
    tab62_irqs_per_load: int
    validation_irqs: int
    #: abl-boost / abl-throttle IRQ count.
    ablation_irqs: int
    #: abl-depth trace activations.
    ablation_depth_activations: int
    design_irqs: int
    sweep_irqs: int


#: Full paper-scale counts (the defaults of the respective run_*
#: functions; fig6: 3 x 5000 = 15000 IRQs per scenario).
PAPER = ExperimentScale(
    name="paper",
    fig6_irqs_per_load=5_000,
    fig7_activations=11_000,
    tab62_irqs_per_load=2_000,
    validation_irqs=3_000,
    ablation_irqs=1_500,
    ablation_depth_activations=3_000,
    design_irqs=600,
    sweep_irqs=1_000,
)

#: Reduced counts for a fast interactive run (CLI ``--quick``).
QUICK = ExperimentScale(
    name="quick",
    fig6_irqs_per_load=1_000,
    fig7_activations=3_000,
    tab62_irqs_per_load=500,
    validation_irqs=1_000,
    ablation_irqs=500,
    ablation_depth_activations=1_500,
    design_irqs=300,
    sweep_irqs=300,
)

#: Tiny counts for smoke tests of the campaign machinery itself
#: (CLI ``--smoke``); statistics at this size are meaningless.
SMOKE = ExperimentScale(
    name="smoke",
    fig6_irqs_per_load=150,
    fig7_activations=600,
    tab62_irqs_per_load=100,
    validation_irqs=200,
    ablation_irqs=120,
    ablation_depth_activations=400,
    design_irqs=60,
    sweep_irqs=80,
)


def resolve_scale(quick: bool = False, smoke: bool = False) -> ExperimentScale:
    """Map the CLI flags to a scale tier (smoke wins over quick)."""
    if smoke:
        return SMOKE
    if quick:
        return QUICK
    return PAPER
