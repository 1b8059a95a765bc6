"""Circuit-breaker state machine, driven entirely by a virtual clock."""

from __future__ import annotations

import logging
import threading

import pytest

from repro.serve import CircuitBreaker, CircuitState
from repro.testing import VirtualClock


@pytest.fixture
def breaker(clock):
    return CircuitBreaker("test", failure_threshold=3, cooldown=10.0, clock=clock)


class TestClosed:
    def test_starts_closed_and_allows(self, breaker):
        assert breaker.state is CircuitState.CLOSED
        assert breaker.allow()

    def test_failures_below_threshold_stay_closed(self, breaker):
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is CircuitState.CLOSED
        assert breaker.allow()

    def test_success_resets_the_failure_count(self, breaker):
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is CircuitState.CLOSED

    def test_threshold_consecutive_failures_open(self, breaker):
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state is CircuitState.OPEN
        assert not breaker.allow()


class TestOpen:
    @pytest.fixture
    def opened(self, breaker):
        for _ in range(3):
            breaker.record_failure()
        return breaker

    def test_rejects_during_cooldown(self, opened, clock):
        clock.advance(9.999)
        assert not opened.allow()
        assert opened.state is CircuitState.OPEN

    def test_retry_after_counts_down(self, opened, clock):
        assert opened.retry_after() == pytest.approx(10.0)
        clock.advance(4.0)
        assert opened.retry_after() == pytest.approx(6.0)

    def test_cooldown_elapsed_admits_one_half_open_probe(self, opened, clock):
        clock.advance(10.0)
        assert opened.allow()
        assert opened.state is CircuitState.HALF_OPEN
        # the single probe slot is taken; everyone else is rejected
        assert not opened.allow()

    def test_backwards_clock_skew_rearms_cooldown(self, opened, clock):
        clock.advance(5.0)
        clock.advance(-7.0)  # skew: now *before* the recorded open time
        assert not opened.allow()
        # the cooldown restarted from the skewed time, not the original
        clock.advance(9.999)
        assert not opened.allow()
        clock.advance(0.001)
        assert opened.allow()


class TestHalfOpen:
    @pytest.fixture
    def probing(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        return breaker

    def test_probe_success_closes(self, probing):
        probing.record_success()
        assert probing.state is CircuitState.CLOSED
        assert probing.allow()

    def test_probe_failure_reopens_and_rearms(self, probing, clock):
        probing.record_failure()
        assert probing.state is CircuitState.OPEN
        clock.advance(9.999)
        assert not probing.allow()
        clock.advance(0.001)
        assert probing.allow()

    def test_abandon_probe_frees_the_slot_without_transition(self, probing):
        probing.abandon_probe()
        assert probing.state is CircuitState.HALF_OPEN
        assert probing.allow()  # slot available again

    def test_close_then_full_cycle_repeats(self, probing, clock):
        probing.record_success()
        for _ in range(3):
            probing.record_failure()
        assert probing.state is CircuitState.OPEN
        clock.advance(10.0)
        assert probing.allow()
        assert probing.state is CircuitState.HALF_OPEN


class TestObservability:
    def test_gauge_tracks_state_values(self, clock, metrics_delta):
        breaker = CircuitBreaker(
            "gaugetest", failure_threshold=1, cooldown=5.0, clock=clock
        )
        breaker.record_failure()
        assert metrics_delta()["gauges"]['circuit_state{name="gaugetest"}'] == 1.0
        clock.advance(5.0)
        breaker.allow()
        assert metrics_delta()["gauges"]['circuit_state{name="gaugetest"}'] == 2.0
        breaker.record_success()
        delta = metrics_delta()
        # closed == 0.0 == the gauge's start value, so it drops from the
        # delta; transitions prove the path was walked
        transitions = delta["counters"]
        assert transitions['circuit_transitions_total{name="gaugetest",to="open"}'] == 1
        assert transitions['circuit_transitions_total{name="gaugetest",to="half_open"}'] == 1
        assert transitions['circuit_transitions_total{name="gaugetest",to="closed"}'] == 1

    def test_transition_logs_at_info_instead_of_raising(self, clock):
        """``LogRecord`` reserves ``name``: the transition event must not
        pass it as a field, or every transition raises under INFO."""
        logger = logging.getLogger("repro.serve.breaker")
        records: list[logging.LogRecord] = []
        handler = logging.Handler(level=logging.INFO)
        handler.emit = records.append
        previous = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            breaker = CircuitBreaker(
                "logtest", failure_threshold=1, cooldown=5.0, clock=clock
            )
            breaker.record_failure()
        finally:
            logger.removeHandler(handler)
            logger.setLevel(previous)
        assert breaker.state is CircuitState.OPEN
        (record,) = [r for r in records if r.getMessage() == "circuit.transition"]
        assert record.breaker == "logtest"
        assert record.to == "open"


class TestValidationAndThreads:
    def test_rejects_bad_threshold(self, clock):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0, clock=clock)

    def test_rejects_negative_cooldown(self, clock):
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=-1.0, clock=clock)

    def test_half_open_admits_exactly_one_probe_across_threads(self, clock):
        breaker = CircuitBreaker(
            "race", failure_threshold=1, cooldown=1.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(1.0)
        admitted = []
        barrier = threading.Barrier(8)

        def contend():
            barrier.wait()
            if breaker.allow():
                admitted.append(True)

        threads = [threading.Thread(target=contend) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(admitted) == 1
