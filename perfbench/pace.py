"""Host-speed pacing: times in seconds at a fixed reference speed.

The benchmark runs on a few vCPUs of a shared host whose speed swings by
up to ~2x, in episodes from a fraction of a second to minutes (other
tenants contend for the physical cores; steal time stays near zero), so
the same pass on the same input can take 2.5 s or 5.6 s. To measure the
program and not its neighbours, a ``Sampler`` interrupts the timed work
every ``INTERVAL_S`` of wall time (``SIGALRM``) and runs a fixed burst of
dict and string work in the same process, on the same CPU. Each burst's
time says how fast the host ran at that moment, relative to
``BURST_REFERENCE_S``, its time on an uncontended host. The paced time is
the work's own wall time (the bursts taken out) times the mean of those
speed ratios: the time the work would take on the uncontended host.
Bursts are uniform in wall time, so the mean ratio is the share of the
host's full speed the work got. The raw wall times are kept too.

The burst is interpreter work, like most of phonoprep; it tracks BLAS-heavy
stretches (the geometry pass) less closely. Bursts cost ~1% of a pass and
land inside whichever traced span is open.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
# the burst's mean time inside a pass on this benchmark's reference host
# (2-vCPU Xeon Sapphire Rapids KVM guest) at its fastest; it only fixes the
# unit of the paced times
BURST_REFERENCE_S = 0.00032
_KEYS = ["w%d" % i for i in range(97)]


def burst() -> float:
    """Run the fixed burst once; return its wall time."""
    t0 = time.perf_counter()
    counts: dict[str, int] = {}
    for i in range(1500):
        key = _KEYS[i % 97] + "@"
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - t0


class Sampler:
    """Times the work between ``start`` and ``stop`` (or inside ``with``),
    with a burst every ``INTERVAL_S`` of wall time. One at a time; main
    thread only."""

    def __init__(self):
        self.bursts: list[float] = []
        self.wall_s = 0.0

    def _on_alarm(self, signum, frame) -> None:
        self.bursts.append(burst())

    def start(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall_s = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self) -> Sampler:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def own_s(self) -> float:
        """Wall time of the work itself, the bursts taken out."""
        return self.wall_s - sum(self.bursts)

    @property
    def speed(self) -> float:
        """Mean share of the reference host's speed; 1.0 if no burst ran."""
        if not self.bursts:
            return 1.0
        return statistics.fmean(BURST_REFERENCE_S / b for b in self.bursts)

    @property
    def paced_s(self) -> float:
        return self.own_s * self.speed
