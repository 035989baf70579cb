"""Program time scaled to a reference host speed, for the end-to-end times.

On a shared host the same work takes up to 1.8 times longer while other
tenants load the machine, in episodes from a fraction of a second to
minutes; neither the run length nor a before-and-after probe averages
that out. A `HostClock` therefore samples the host's speed throughout the
measured work: a timer signal runs a fixed pure-Python loop every
SAMPLE_INTERVAL_S, and each slice of program time between two samples is
scaled by REFERENCE_PROBE_S over the mean duration of the two samples
around it. The sum is the time the program would have taken on a host
where the loop takes REFERENCE_PROBE_S. The probes' own time is left out.
The program's work is untouched: a faster program shows in full.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_ITERATIONS = 10_000
REFERENCE_PROBE_S = 0.8e-3  # the loop's duration on the reference host, uncontended
SAMPLE_INTERVAL_S = 0.025


def probe() -> int:
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return total


class HostClock:
    """Samples the probe on SIGALRM while in use (`with clock: ...`)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, end) of each probe

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        probe()
        self.samples.append((start, time.perf_counter()))

    def __enter__(self) -> HostClock:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *_) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scaled_s(self, start: float, end: float) -> float:
        """Program time within [start, end] at the reference host speed.

        Both ends must lie inside the `with` block, so that a sample
        precedes and follows every slice.
        """
        total = 0.0
        samples = self.samples
        for (s0, e0), (s1, e1) in zip(samples, samples[1:]):
            low, high = max(e0, start), min(s1, end)
            if high > low:
                total += (high - low) * 2 * REFERENCE_PROBE_S / (e0 - s0 + e1 - s1)
        return total

    def probe_ms(self) -> float:
        """Median probe duration while sampling (ms): marks host contention."""
        return statistics.median(end - start for start, end in self.samples) * 1e3
