"""Machine-speed probe: reads wall-clock samples at a reference speed.

The machine the benchmark was tuned on is shared.  For spells of a
second to a minute it runs the same instructions about 1.4-1.7x slower
than usual, and CPU time slows with wall time, so it is not stolen
time.  A spell can cover a whole run, so no statistic over one run's
own samples removes it.

A fixed kernel that shares nothing with the program, timed between the
program's steps, reads how fast the machine runs at that moment.  Each
sample is multiplied by ``REFERENCE_NS`` over the kernel's median time
around the sample, raised to ``SCALE_POWER``, which reads it as if the
machine had run at the reference speed throughout.  A change to the
program moves the scaled samples as much as the raw ones; a change of
machine speed moves both the samples and the kernel, and cancels.
"""

from __future__ import annotations

import time

import numpy as np

_clock = time.perf_counter_ns

_VECTOR = np.arange(2048, dtype=np.float64)

#: The kernel's time between program steps in a fast spell of the
#: machine the benchmark was tuned on (2-vCPU Intel Xeon, Python 3.11;
#: 120 us in a tight loop, slower between steps, whose work evicts its
#: caches).  Scaled samples read as if the machine ran at that speed; on
#: another machine they keep its ratios, not its absolute times.
REFERENCE_NS = 145_000

#: The program slows a little more than the kernel does: over 40 runs
#: (seeds 0-19 of both workloads), metrics scaled linearly still moved
#: as the 0.15-0.33th power of the run's kernel time (median 0.27).
SCALE_POWER = 1.25

#: Least wall time between two probes taken at step boundaries.
PROBE_EVERY_NS = 10_000_000

#: Probes on each side of a sample whose median times the machine there.
WINDOW = 10


def kernel() -> float:
    """Fixed work of about 0.1 ms: interpreter arithmetic, dict stores
    and a numpy reduction, the operations the program spends its time
    in."""
    total = 0
    for i in range(1500):
        total += i * i % 7
    table = {}
    for i in range(300):
        table[i] = i
    return total + len(table) + float(np.cumsum(_VECTOR)[-1])


class SpeedProbe:
    """Kernel timings taken through a run, and the scaling they give."""

    def __init__(self):
        #: When each probe ended, and how long its kernel took.
        self.at_ns: list[int] = []
        self.took_ns: list[int] = []

    def probe(self, times: int = 1) -> int:
        """Time the kernel ``times`` times; returns when the last ended."""
        end = _clock()
        for _ in range(times):
            start = _clock()
            kernel()
            end = _clock()
            self.at_ns.append(end)
            self.took_ns.append(end - start)
        return end

    def due(self, now_ns: int) -> bool:
        return not self.at_ns or now_ns - self.at_ns[-1] >= PROBE_EVERY_NS

    def scale(self, at_ns, samples_ns) -> np.ndarray:
        """``samples_ns``, each ending at ``at_ns``, read at the
        reference speed (in ns)."""
        took = np.asarray(self.took_ns, dtype=np.float64)
        local = np.array([
            np.median(took[max(0, i - WINDOW):i + WINDOW + 1])
            for i in range(len(took))
        ])
        nearest = np.clip(
            np.searchsorted(self.at_ns, at_ns), 0, len(took) - 1
        )
        return (
            np.asarray(samples_ns, dtype=np.float64)
            * (REFERENCE_NS / local[nearest]) ** SCALE_POWER
        )

    def factor(self) -> float:
        """The run's median kernel time over the reference: how much
        slower than the reference the machine ran."""
        return float(np.median(self.took_ns)) / REFERENCE_NS
