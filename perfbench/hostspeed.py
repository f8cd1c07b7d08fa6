"""Host speed sampled while a workload runs, to scale timings to a reference host.

On a shared virtual machine other tenants use the same CPUs.  On the 2-vCPU
machine the reference was recorded on, the same unit of work took 1.5 to 2.8 s
within one process, drifting over tens of seconds, with no steal time
reported.  A fixed slice of pure-Python work owned by the benchmark, shaped
like the simulator's hot loop, slows down with it.  `SpeedSampler` times
that slice every 50 ms from a SIGALRM handler while the workload runs;
dividing a timing by the slice's mean time (and multiplying by the slice's
time on the reference host) removes most of the drift.  The slice never
calls the program, so a faster program cannot change it.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05


class _Tx:
    __slots__ = ("sender", "end")

    def __init__(self, sender: int, end: int) -> None:
        self.sender = sender
        self.end = end


# built once, so a probe allocates nothing the garbage collector tracks
_ACTIVE = [_Tx(i * 7 % 50, i) for i in range(8)]
_SENSES = {n: frozenset((n * 13 + j) % 50 for j in range(12)) for n in range(50)}


def probe() -> float:
    """Seconds taken by one fixed slice of the work that dominates the
    simulator: for each node, scan the active transmissions for a sender it
    senses (attribute loads and frozenset membership over small lists)."""
    start = time.perf_counter()
    senses, active = _SENSES, _ACTIVE
    hits = 0
    for _ in range(6):
        for node in range(50):
            sensed = senses[node]
            for tx in active:
                if tx.sender in sensed:
                    hits += 1
                    break
    return time.perf_counter() - start


def probe_mean(n: int) -> float:
    return statistics.fmean(probe() for _ in range(n))


class SpeedSampler:
    """Context manager that probes the host every `INTERVAL_S` of wall time.

    The probes run inside the measured region; `busy_s` is their total, to be
    subtracted from the region's wall time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def busy_s(self) -> float:
        return sum(self.samples)

    def mean(self) -> float:
        """Mean probe time over the region; probes now if none fired."""
        return statistics.fmean(self.samples) if self.samples else probe_mean(20)
