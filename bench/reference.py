"""Fixed reference work: how fast the machine runs at each moment.

The benchmark shares a few cores of a host with other tenants.  The speed
of the machine wanders by about 30% (standard deviation) within a minute,
with swings that last from a fraction of a second to minutes, and process
CPU time slows with it, so neither wall nor CPU time of a command repeats
across runs.  The benchmark therefore measures the machine's speed while it
times a command: a probe of fixed work runs every PROBE_INTERVAL_S, from a
SIGALRM handler, in between the command's own bytecodes, and the command's
time, less the probes, is divided by the mean probe time during it.  A slow
spell stretches both, so the quotient holds still, while a change to
wgscatter moves only the command.  Probes at the edges of a command alone do
not do: over a 2-second command the machine's speed changes too much.

The probe mixes what wgscatter spends its time on: 17-digit float
formatting and string joins (CSV output), scalar complex arithmetic (search
and validate), small dense complex solves (the boundary-matching solver)
and 2001-point vector expressions (closed-form rows).  It uses only Python
and numpy, never wgscatter, so a change to the program cannot change it.
Measured over 200 s of fig9 commands on a 2-vCPU host, the log of the
command time follows the log of this probe's time with a slope of 0.97,
and dividing by it cuts the spread of single command times from 16.5% to
6.3%; on spectrum --engine both, slope 0.87 and 21% to 10%.
"""

from __future__ import annotations

import cmath
import math
import random
import signal
import statistics
import time
from typing import NamedTuple

import numpy as np

#: Seconds that one probe counts for.  A time divided by the mean probe time
#: is multiplied by this, so that it reads as seconds on a machine that runs
#: the probe in PROBE_SECONDS (about the median on a 2-vCPU cloud host).
#: It is a fixed scale: it never changes between commits, so ratios of
#: reported values are exact.
PROBE_SECONDS = 0.001

#: Wall time between probes while a SpeedProbes is active.  A probe takes
#: 2-4 ms in all, about 5% of the time.
PROBE_INTERVAL_S = 0.05

_VALUES = [random.Random(5).uniform(-10.0, 10.0) for _ in range(600)]
_GRID = np.linspace(-10.0, 10.0, 2001)


def _probe_work() -> float:
    text = "\n".join(",".join(f"{v:.17g}" for v in _VALUES[k:k + 6]) for k in range(0, 300, 6))
    total = float(len(text))
    for v in _VALUES:
        total += math.sqrt(v * v + 1.0) - cmath.exp(1j * v).real
    matrix = np.eye(8, dtype=complex)
    rhs = np.ones(8, dtype=complex)
    for k in range(20):
        matrix[k % 8, (k * 3) % 8] += cmath.exp(1j * _VALUES[k])
        total += abs(np.linalg.solve(matrix, rhs)[0])
    for _ in range(4):
        total += float(np.abs(np.exp(1j * _GRID) / (_GRID + 1j)).sum())
    return total


class Probe(NamedTuple):
    """perf_counter readings of one probe.

    The work runs twice and only the second run is timed: the first
    reloads the caches that the program under test evicted, so the timed
    run measures the machine and not the program's memory footprint.
    """

    start: float
    timed: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.timed


def probe() -> Probe:
    start = time.perf_counter()
    _probe_work()
    timed = time.perf_counter()
    _probe_work()
    return Probe(start, timed, time.perf_counter())


def reference_seconds(count: int = 20) -> float:
    """Mean time of `count` probes run back to back."""
    return statistics.fmean(probe().seconds for _ in range(count))


class SpeedProbes:
    """Runs a probe every PROBE_INTERVAL_S of wall time while active.

    A probe runs whole in the main thread between two bytecodes, so it lies
    either wholly inside or wholly outside any interval the main thread
    timed.
    """

    def __init__(self) -> None:
        self.samples: list[Probe] = [probe()]

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> SpeedProbes:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def within(self, start: float, end: float) -> list[Probe]:
        """The probes that ran between start and end."""
        return [p for p in self.samples if p.start >= start and p.end <= end]

    def last_before(self, t: float) -> Probe:
        return next(p for p in reversed(self.samples) if p.end <= t)
