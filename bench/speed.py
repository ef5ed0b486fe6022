"""Machine-speed probe: scales measured times to a fixed reference speed.

The machine this benchmark was built on is shared: when another tenant
keeps the sibling hardware thread busy, the same pure-Python work takes up
to twice as long, and that state switches every few seconds. Raw wall
times of two runs of the same code then differ by up to 2x.

Before and after each job, and every SAMPLE_INTERVAL_S while it runs (a
timer signal interrupts it), the probe times a fixed piece of pure-Python
work that shares no code with smalldigits. Samples inside a job are uniform in
wall time, so the mean of REFERENCE_S / sample over a job is the average
speed of the machine relative to the reference while it ran; the job's
time multiplied by that factor is the time the same work takes at the
reference speed. The probe's own time is removed from every measurement
through ``clock()``.
"""

from __future__ import annotations

import signal
import statistics
import time

SAMPLE_INTERVAL_S = 0.05
# About the time of one calibration_work() call on an idle core of the
# reference machine (Intel Xeon, 2 vCPUs, Python 3.11.7). Only a unit: it
# sets the scale of every scaled time, not its spread.
REFERENCE_S = 0.00095


def calibration_work() -> int:
    """A fixed amount of interpreter work: divmod digit loops on
    machine-size integers, then building, sorting and summing a list.

    The mix matters. Under contention the digit loop alone slowed about a
    third more than smalldigits did on hunt, and the list work alone
    hardly slowed at all; the sum of the two lies between them."""
    count = 0
    for m in range(1, 301):
        x = m * 2654435761
        while x:
            x, d = divmod(x, 7)
            count += d > 3
    xs = [(i * 7919) % 1000 for i in range(3000)]
    xs.sort()
    return count + sum(xs)


class SpeedProbe:
    """Samples the speed of the machine at fixed wall-clock intervals while
    ``active``, and on demand with ``sample_now``."""

    def __init__(self) -> None:
        self.speeds: list[float] = []  # REFERENCE_S / sample duration
        self.spent = 0.0  # seconds spent inside the probe
        self.active = False
        self._previous = None

    def clock(self) -> float:
        """perf_counter minus the time the probe itself took."""
        return time.perf_counter() - self.spent

    def _sample(self, signum, frame) -> None:
        if not self.active:
            return
        t0 = time.perf_counter()
        calibration_work()
        t1 = time.perf_counter()
        self.speeds.append(REFERENCE_S / (t1 - t0))
        self.spent += time.perf_counter() - t0

    def sample_now(self, count: int = 1) -> None:
        active, self.active = self.active, True
        for _ in range(count):
            self._sample(None, None)
        self.active = active

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: int = 0) -> float:
        """Average speed relative to the reference over the samples from
        index ``start`` on (1.0 = reference speed). Multiply a measured time
        by it to get the time the same work takes at reference speed."""
        if len(self.speeds) <= start:
            raise ValueError("no speed samples taken")
        return statistics.fmean(self.speeds[start:])
