"""Retransmission timeout schedule of the reliable legs (Section 4.4)."""

from repro.core.coherence import CoherenceProtocol


class TestBackoffPolicy:
    def test_schedule_is_exponential_and_capped(self):
        schedule = [CoherenceProtocol.retry_timeout_us(k) for k in range(6)]
        assert schedule == [100.0, 200.0, 400.0, 800.0, 800.0, 800.0]

    def test_timeout_grows_per_attempt(self):
        base = CoherenceProtocol.ACK_TIMEOUT_US
        assert CoherenceProtocol.retry_timeout_us(0) == base
        assert CoherenceProtocol.retry_timeout_us(1) == 2 * base
        assert CoherenceProtocol.retry_timeout_us(2) == 4 * base
