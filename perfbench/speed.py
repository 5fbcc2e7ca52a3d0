"""Host speed probe.

The benchmark's hosts share their cores with other tenants, and the speed of
a single-threaded Python process swings by up to 2x from one second to the
next and drifts over minutes. A fixed pure-Python kernel, sampled on a
timer in the measured process itself, measures that speed where and when
the program runs. Times are reported scaled to the reference speed, at
which the kernel takes REFERENCE_S: ``t * REFERENCE_S / mean(sample)``.
On an idle core of the reference host the scaled time equals the wall time.

The kernel is pure Python (float arithmetic and formatting, the staple of
the CLI's CSV writer and of solve_ivp's Python callbacks) so that sampling
imports nothing and can run before the program is imported.
"""

import signal
import time

# Kernel time on an idle core of the reference host (Intel Xeon, 2.0 GHz):
# the fast mode of many samples.
REFERENCE_S = 0.0019


def kernel() -> int:
    # Only small objects: a large allocation could keep the C heap from
    # shrinking and so move the program's peak RSS.
    size = 0
    acc = 0.0
    for i in range(3000):
        x = i * 1.0000001 + 0.5
        acc += (x * x) % 7.0
        size += len("%.12g" % (acc / x))
    return size


class SpeedProbe:
    """Runs ``kernel`` every ``interval_s`` on SIGALRM and records its durations.

    ``timed`` marks whether the measured code was running when a sample was
    taken, so that the samples' own time can be taken out of its wall time.
    """

    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.timed_s = 0.0          # time spent sampling while ``timed`` was set
        self.timed = False
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:              # a late timer tick while sampling
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        duration = time.perf_counter() - t0
        self.samples.append(duration)
        if self.timed:
            self.timed_s += duration
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
