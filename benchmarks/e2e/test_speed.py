"""Host-speed sampling: speed and reference-second arithmetic.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

import signal
import time

import pytest

import speed

REF = speed.REFERENCE_PROBE_S


def _sampler(samples):
    sampler = speed.SpeedSampler()
    for moment, seconds in samples:
        sampler.times.append(moment)
        sampler.probes.append(seconds)
    return sampler


def test_speed_is_the_mean_share_of_reference_speed_in_a_window():
    sampler = _sampler([(0.5, REF), (1.5, 2 * REF), (2.5, 4 * REF)])
    assert sampler.speed([(0.0, 2.0)]) == pytest.approx(0.75)
    assert sampler.speed([(2.0, 3.0)]) == pytest.approx(0.25)
    # a window holds its start, not its end
    assert sampler.speed([(1.5, 2.5)]) == pytest.approx(0.5)


def test_speed_outside_windows_and_fallback_to_every_sample():
    sampler = _sampler([(0.5, REF), (1.5, 2 * REF), (2.5, 4 * REF)])
    assert sampler.speed([(0.0, 1.0), (2.0, 3.0)],
                         inside=False) == pytest.approx(0.5)
    everything = (1 + 0.5 + 0.25) / 3
    assert sampler.speed([(5.0, 6.0)]) == pytest.approx(everything)
    assert sampler.speed([(0.0, 3.0)], inside=False) == pytest.approx(
        everything)


def test_reference_seconds_scale_a_window_by_its_speed():
    sampler = _sampler([(1.0, 2 * REF), (2.0, 2 * REF)])
    assert sampler.reference_seconds(0.5, 2.5) == pytest.approx(1.0)
    # a host twice as fast halves the probe and doubles the speed
    fast = _sampler([(1.0, REF / 2), (2.0, REF / 2)])
    assert fast.reference_seconds(0.5, 2.5) == pytest.approx(4.0)


def test_the_sampler_samples_on_a_timer_until_stopped():
    sampler = speed.SpeedSampler()
    sampler.start()
    try:
        assert len(sampler.probes) == 1
        deadline = time.monotonic() + 0.3
        while time.monotonic() < deadline:
            sum(range(1000))
    finally:
        sampler.stop()
    taken = len(sampler.probes)
    assert taken >= 5
    assert all(seconds > 0 for seconds in sampler.probes)
    assert list(sampler.times) == sorted(sampler.times)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    time.sleep(3 * speed.INTERVAL_S)
    assert len(sampler.probes) == taken
