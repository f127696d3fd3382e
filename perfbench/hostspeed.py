"""Host-speed normalisation of the measured times.

The benchmark runs on a small shared host whose speed is not steady: a
fixed piece of Python work, timed in windows of a few seconds, takes up
to twice as long in some windows as in others, and the level changes
every few seconds.  The process's CPU time slows down with its wall
time, so the slowdown is not time spent off the processor (steal) that
a CPU clock would leave out; it is the processor running the same
instructions more slowly.  Two runs of the same code then differ by as
much as the host's level differs between them, far more than the
benchmark's bounds allow.

So every time the benchmark reports is normalised to a reference host
speed.  A *probe* times a fixed piece of pure-Python work, made of
nothing from the program: iterating a set of integers, and building
tuples, a frozenset and a dict from them and looking them up — the
interpreter, allocation and hashing work the relational engine does.
:class:`HostClock` times each operation between two probes, one just
before it and one just after it, and scales the time by ``REFERENCE_S``
over the geometric mean of the two.  A time
that took ``t`` seconds while the probe took twice its reference time
is reported as ``t / 2``: what it would have taken at the reference
speed.  A change to the program moves its operations' times and not the
probe's, so it shows in the normalised times in full.  The probe is
short (about 1.5 ms) so that it can bracket every operation: the host's
speed also varies within a second, and probes shared by the operations
of a round tracked the medians but stretched the tails.

``REFERENCE_S`` is the probe's time at this benchmark's reference
speed, a constant: about the probe's median time over whole benchmark
runs on a 2-core x86-64 virtual host with CPython 3.11.  Normalised
times then read as milliseconds on that host at its usual speed.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

__all__ = ['HostClock', 'Unscaled', 'probe', 'REFERENCE_S']

#: The probe's time at the reference speed, in seconds.
REFERENCE_S = 0.0015

_INTS = 10_000
_ROWS = 4_000


def _ints() -> int:
    total = 0
    for value in set(range(_INTS)):
        total += value
    return total


def _rows() -> int:
    rows = [(i, f'v{i % 97}', i * 7) for i in range(_ROWS)]
    frozen = frozenset(rows)
    by_key = {row[0]: row for row in frozen}
    return sum(1 for row in rows if row in frozen and row[0] in by_key)


def _timed(work) -> float:
    started = perf_counter()
    work()
    return perf_counter() - started


def probe() -> float:
    """Seconds the reference work takes now: the geometric mean of its
    two parts' times, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return (_timed(_ints) * _timed(_rows)) ** 0.5
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Times operations scaled to the reference host speed (see the
    module docstring)."""

    def __init__(self):
        self.probes: list[float] = []

    def _probe(self) -> float:
        seconds = probe()
        self.probes.append(seconds)
        return seconds

    def measure(self, fn, *args) -> tuple:
        """``(fn(*args), its scaled seconds)``, scaled by the geometric
        mean of a probe just before and one just after it."""
        before = self._probe()
        started = perf_counter()
        result = fn(*args)
        elapsed = perf_counter() - started
        after = self._probe()
        return result, elapsed * REFERENCE_S / (before * after) ** 0.5

    def summary(self) -> dict:
        """What the probes saw, for the run's provenance."""
        if not self.probes:
            return {'probes': 0}
        ms = sorted(seconds * 1000.0 for seconds in self.probes)
        return {'probes': len(ms), 'reference_ms': REFERENCE_S * 1000.0,
                'probe_ms_min': ms[0],
                'probe_ms_median': statistics.median(ms),
                'probe_ms_max': ms[-1]}


class Unscaled(HostClock):
    """Leaves times as measured (the traced run's clock)."""

    def measure(self, fn, *args) -> tuple:
        started = perf_counter()
        result = fn(*args)
        return result, perf_counter() - started
