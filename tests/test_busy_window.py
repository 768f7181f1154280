"""Tests for the busy-window fixed point and response-time analysis
(Eqs. 3–5)."""

from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from busy_window_oracle import cold_busy_time, cold_response_time
from event_model_oracle import (
    DeltaTableEventModel,
    interposed_interference_table,
)
from repro.analysis import latency, schedulability
from repro.analysis.busy_window import (
    NotSchedulableError,
    response_time,
)
from repro.analysis.event_models import PeriodicEventModel
from repro.analysis.interference import interposed_interference_dmin
from repro.analysis.latency import (
    InterferingIrq,
    classic_irq_latency,
    interposed_irq_latency,
    violated_irq_latency,
)
from repro.analysis.schedulability import (
    InterposingLoad,
    TaskSpec,
    task_response_time,
)
from repro.analysis.tdma import tdma_interference


class TestBusyTime:
    """One W(q) fixed point, solved by the cold-start oracle that
    ``test_warm_start_equals_cold_start_oracle`` holds the production
    solver to."""

    def test_no_interference(self):
        assert cold_busy_time(1, 10, lambda w: 0) == 10
        assert cold_busy_time(5, 10, lambda w: 0) == 50

    def test_constant_interference(self):
        assert cold_busy_time(2, 10, lambda w: 7) == 27

    def test_classic_rta_fixed_point(self):
        # Analysed task C=2; interferer C=1, P=4 (textbook example):
        # W = 2 + ceil(W/4)*1 -> W = 3
        interferer = PeriodicEventModel(4)
        w = cold_busy_time(1, 2, lambda win: interferer.eta_plus(win) * 1)
        assert w == 3

    def test_two_interferers(self):
        # C=5, hp1: C=2,P=10; hp2: C=3,P=20
        # W = 5 + 2*ceil(W/10) + 3*ceil(W/20) -> W=10
        hp1 = PeriodicEventModel(10)
        hp2 = PeriodicEventModel(20)
        w = cold_busy_time(1, 5, lambda win: 2 * hp1.eta_plus(win)
                           + 3 * hp2.eta_plus(win))
        assert w == 10

    def test_divergence_detected(self):
        # Interference grows faster than the window: never converges.
        with pytest.raises(NotSchedulableError):
            cold_busy_time(1, 10, lambda w: w + 1, horizon=10_000)

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            cold_busy_time(0, 10, lambda w: 0)

    def test_invalid_cost(self):
        with pytest.raises(ValueError):
            cold_busy_time(1, -1, lambda w: 0)


class TestResponseTime:
    def test_single_activation(self):
        model = PeriodicEventModel(100)
        result = response_time(10, model, lambda w: 0)
        assert result.response_time == 10
        assert result.q_max == 1
        assert result.busy_times == (10,)

    def test_multi_activation_busy_window(self):
        # C=60, P=100: W(1)=60 <= delta(2)=100 -> single activation.
        model = PeriodicEventModel(100)
        result = response_time(60, model, lambda w: 0)
        assert result.q_max == 1
        assert result.response_time == 60

    def test_overload_spans_activations(self):
        # C=70 with an interferer making W(1)=110 > P=100 so the busy
        # window spans multiple activations:
        # W(q) = 70q + 40 (one-shot blocking interference)
        model = PeriodicEventModel(100)
        result = response_time(70, model, lambda w: 40)
        # W(1)=110 > delta(2)=100 -> q=2: W(2)=180 <= delta(3)=200 stop.
        assert result.q_max == 2
        assert result.response_time == max(110 - 0, 180 - 100)

    def test_critical_q(self):
        model = PeriodicEventModel(100)
        result = response_time(70, model, lambda w: 40)
        assert result.critical_q == 1

    def test_busy_time_accessor(self):
        model = PeriodicEventModel(100)
        result = response_time(70, model, lambda w: 40)
        assert result.busy_time(1) == 110
        assert result.busy_time(2) == 180

    def test_q_limit(self):
        model = PeriodicEventModel(10)
        with pytest.raises(NotSchedulableError):
            # C == P: busy window never ends within the limit
            response_time(10, model, lambda w: 5, q_limit=50)


@settings(max_examples=100, deadline=None)
@given(
    cost=st.integers(min_value=1, max_value=50),
    period=st.integers(min_value=51, max_value=500),
    hp_cost=st.integers(min_value=0, max_value=25),
    hp_period=st.integers(min_value=26, max_value=500),
)
def test_property_response_time_bounds_busy_times(cost, period, hp_cost,
                                                  hp_period):
    """R >= W(q) - δ(q) for every analysed q, and the task is
    schedulable when total utilization < 1."""
    from hypothesis import assume
    assume(cost / period + hp_cost / hp_period < 0.95)
    model = PeriodicEventModel(period)
    interferer = PeriodicEventModel(hp_period)
    result = response_time(
        cost, model, lambda w: hp_cost * interferer.eta_plus(w)
    )
    for q in range(1, result.q_max + 1):
        assert result.response_time >= result.busy_time(q) - model.delta_minus(q)
    assert result.response_time >= cost


# -- warm start vs the cold-start oracle ---------------------------------


@st.composite
def interference_terms(draw):
    """One monotone interference term of the kinds the analyses combine."""
    kind = draw(st.sampled_from(["tdma", "periodic", "dmin", "table"]))
    if kind == "tdma":
        cycle = draw(st.integers(2, 400))
        slot = draw(st.integers(1, cycle))
        return lambda w: tdma_interference(w, cycle, slot)
    if kind == "periodic":
        model = PeriodicEventModel(draw(st.integers(1, 300)),
                                   jitter=draw(st.integers(0, 600)))
        cost = draw(st.integers(0, 40))
        return lambda w: model.eta_plus(w) * cost
    if kind == "dmin":
        dmin = draw(st.integers(1, 300))
        cost = draw(st.integers(0, 40))
        return lambda w: interposed_interference_dmin(w, dmin, cost)
    # δ⁻ entries of at least 100 keep the table's closure short at the
    # window sizes the horizons below allow
    table = draw(st.lists(st.integers(100, 300), min_size=1, max_size=5))
    return interposed_interference_table(table, draw(st.integers(0, 40)))


def _solve(solver, *args, **kwargs):
    """The solver's result, or which limit its NotSchedulableError hit."""
    try:
        return solver(*args, **kwargs)
    except NotSchedulableError as error:
        return "horizon" if "horizon" in str(error) else "q_limit"


@settings(max_examples=300, deadline=None)
@given(
    own_cost=st.integers(0, 60),
    period=st.integers(1, 300),
    jitter=st.integers(0, 900),
    terms=st.lists(interference_terms(), max_size=4),
    q_limit=st.integers(1, 40),
    horizon=st.sampled_from([500, 5_000, 20_000]),
)
def test_warm_start_equals_cold_start_oracle(own_cost, period, jitter, terms,
                                             q_limit, horizon):
    """The whole result, or the NotSchedulableError, matches a cold
    solve of every W(q) from max(q*C, 1)."""
    model = PeriodicEventModel(period, jitter=jitter)

    def interference(window):
        return sum(term(window) for term in terms)

    # Iterates climb strictly and never pass the horizon (at most
    # 20,000), so neither solver can run out of its 100,000 iterations:
    # the limit hit must agree too.
    kwargs = {"q_limit": q_limit, "horizon": horizon}
    warm = _solve(response_time, own_cost, model, interference, **kwargs)
    assert warm == _solve(cold_response_time, own_cost, model, interference,
                          **kwargs)
    event(warm if isinstance(warm, str) else
          "q_max > 1" if warm.q_max > 1 else "q_max == 1")


@pytest.mark.parametrize("reason, own_cost, interference, q_limit", [
    # interference alone has slope 3/2: W(1) grows past the horizon
    ("horizon", 10, lambda w: interposed_interference_dmin(w, 2, 3), 50),
    # slope 1/2 interference plus own load C/P = 3/4: every W(q)
    # converges, but the busy window never closes
    ("activations", 30, lambda w: tdma_interference(w, 80, 40), 25),
], ids=["horizon", "q_limit"])
def test_overload_raises_in_both_solvers(reason, own_cost, interference,
                                         q_limit):
    model = PeriodicEventModel(40, jitter=100)
    for solver in (response_time, cold_response_time):
        with pytest.raises(NotSchedulableError, match=reason):
            solver(own_cost, model, interference, q_limit=q_limit,
                   horizon=10**7)


# -- the analyses' interference sums are monotone ------------------------


class _Captured(Exception):
    def __init__(self, interference):
        super().__init__()
        self.interference = interference


def _captured_interference(module, analysis):
    """The interference callable ``analysis()`` hands to response_time."""
    def spy(own_cost, model, interference, **kwargs):
        raise _Captured(interference)

    with mock.patch.object(module, "response_time", spy):
        with pytest.raises(_Captured) as captured:
            analysis()
    return captured.value.interference


def _assert_monotone(interference, windows):
    values = [interference(window) for window in sorted(windows)]
    assert all(a <= b for a, b in zip(values, values[1:])), values


windows = st.lists(st.integers(0, 50_000), min_size=2, max_size=40)


@settings(max_examples=100, deadline=None)
@given(
    tasks=st.lists(
        st.tuples(st.integers(0, 5), st.integers(1, 200),
                  st.integers(1, 2_000), st.integers(0, 1_000)),
        min_size=1, max_size=4),
    cycle=st.integers(2, 4_000),
    slot_share=st.floats(0.05, 1.0),
    loads=st.lists(st.tuples(st.integers(1, 3_000), st.integers(1, 200)),
                   max_size=3),
    windows=windows,
)
def test_task_response_time_interference_is_monotone(tasks, cycle,
                                                     slot_share, loads,
                                                     windows):
    specs = [TaskSpec(f"t{index}", priority, wcet, period, jitter)
             for index, (priority, wcet, period, jitter) in enumerate(tasks)]
    slot = max(1, int(cycle * slot_share))
    interposing = [InterposingLoad(dmin, c_bh) for dmin, c_bh in loads]
    interference = _captured_interference(
        schedulability,
        lambda: task_response_time(specs[-1], specs, cycle, slot,
                                   interposing))
    _assert_monotone(interference, windows)


@st.composite
def irq_models(draw):
    if draw(st.booleans()):
        return PeriodicEventModel(draw(st.integers(1, 2_000)),
                                  jitter=draw(st.integers(0, 2_000)))
    return DeltaTableEventModel(
        draw(st.lists(st.integers(200, 2_000), min_size=1, max_size=4)))


@settings(max_examples=100, deadline=None)
@given(
    variant=st.sampled_from(["classic", "interposed", "violated"]),
    model=irq_models(),
    c_th=st.integers(1, 50),
    c_bh=st.integers(1, 200),
    interferers=st.lists(
        st.tuples(irq_models(), st.integers(1, 50), st.booleans()),
        max_size=3),
    windows=windows,
)
def test_irq_latency_interference_is_monotone(variant, model, c_th, c_bh,
                                              interferers, windows):
    others = [InterferingIrq(other, top, monitored)
              for other, top, monitored in interferers]
    analyses = {
        "classic": lambda: classic_irq_latency(
            model, c_th, c_bh, 4_000, 1_500, others),
        "interposed": lambda: interposed_irq_latency(
            model, c_th, c_bh, interferers=others),
        "violated": lambda: violated_irq_latency(
            model, c_th, c_bh, 4_000, 1_500, interferers=others),
    }
    interference = _captured_interference(latency, analyses[variant])
    _assert_monotone(interference, windows)
