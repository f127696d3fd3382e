"""The shared runner core for the benchmark entry points.

Every ``benchmarks/bench_*.py`` script used to hand-roll the same
scaffolding — build engines, time a loop, compute a mean — which made
one-shot runs the norm and warm-cache bias invisible (the first
configuration measured always pays compilation and page faults for
everyone).  This module is the ROADMAP observability item's runner
core: **seeded iterated runs with execution-order rotation**.

A benchmark is a list of :class:`BenchCase` objects.  The harness

1. runs every case's ``setup`` once (all contexts alive together, so
   RSS comparisons are apples-to-apples),
2. runs ``warmup`` untimed passes per case (plan compilation, cache
   materialisation, branch warmup),
3. then for each of ``rounds`` timed rounds runs every case once — in
   an order **rotated** by the round index, so no case systematically
   benefits from running after another warmed the machine,
4. tears every case down in a ``finally`` (engines own SQLite
   connections and worker processes; leaking them skews later rounds'
   RSS — and the next benchmark's).

Per round the harness wall-clocks the ``op`` call; an op may
additionally return finer-grained samples (one float, or a list of
per-sub-operation latencies in seconds) which feed the P50/P95/P99
summary from :mod:`repro.benchsuite.latency`.  Results come back as
:class:`CaseResult` — raw wall times, raw samples, and the latency
summary — for the script to turn into its own throughput metrics and
JSON shape.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.benchsuite.latency import summarize_latencies

__all__ = ['BenchCase', 'CaseResult', 'run_cases']


@dataclass
class BenchCase:
    """One benchmark configuration.

    ``setup()`` returns the case's context (an engine, a tuple of
    engines, whatever ``op`` needs); ``op(ctx, round_index)`` runs one
    timed round and may return ``None`` (wall time is the sample), a
    single latency in seconds, or a list of sub-operation latencies;
    ``teardown(ctx)`` releases the context (engines are closed here —
    pass one even when setup "cannot fail", leaks surface in the next
    case's numbers).  Warmup rounds call ``op`` with negative indices
    (``-warmup .. -1``), so ops keyed on the round (fresh key blocks
    per round) stay collision-free."""

    name: str
    setup: Callable[[], object]
    op: Callable[[object, int], object]
    teardown: Callable[[object], None] | None = None
    warmup: int = 1
    meta: Mapping[str, object] = field(default_factory=dict)


@dataclass
class CaseResult:
    """Timed rounds of one case: per-round wall seconds, the op-level
    samples (defaulting to the wall times), and their summary."""

    name: str
    wall: list[float]
    samples: list[float]
    meta: dict

    @property
    def latency(self) -> dict:
        return summarize_latencies(self.samples)

    @property
    def total_seconds(self) -> float:
        return sum(self.wall)


def _collect(samples: list[float], returned) -> None:
    if returned is None:
        return
    if isinstance(returned, (int, float)):
        samples.append(float(returned))
        return
    samples.extend(float(s) for s in returned)


def run_cases(cases: Sequence[BenchCase], *, rounds: int,
              seed: int = 0,
              progress: Callable[[str], None] | None = None
              ) -> list[CaseResult]:
    """Run every case ``rounds`` times with rotated execution order.

    ``seed`` drives the rotation offset (and is recorded nowhere else:
    cases wanting seeded workloads derive their own RNG from it via
    ``meta``), so two invocations with the same seed time the same
    interleaving."""
    if rounds < 1:
        raise ValueError(f'rounds must be >= 1, got {rounds}')
    offset = random.Random(seed).randrange(max(len(cases), 1))
    contexts: dict[str, object] = {}
    results = {case.name: CaseResult(name=case.name, wall=[],
                                     samples=[], meta=dict(case.meta))
               for case in cases}
    if len(results) != len(cases):
        raise ValueError('duplicate case names')
    try:
        for case in cases:
            contexts[case.name] = case.setup()
            if progress:
                progress(f'setup {case.name}')
        for case in cases:
            for w in range(case.warmup):
                case.op(contexts[case.name], w - case.warmup)
        for round_index in range(rounds):
            pivot = (round_index + offset) % len(cases)
            rotation = list(cases[pivot:]) + list(cases[:pivot])
            for case in rotation:
                t0 = time.perf_counter()
                returned = case.op(contexts[case.name], round_index)
                elapsed = time.perf_counter() - t0
                result = results[case.name]
                result.wall.append(elapsed)
                before = len(result.samples)
                _collect(result.samples, returned)
                if len(result.samples) == before:
                    result.samples.append(elapsed)
            if progress:
                progress(f'round {round_index + 1}/{rounds}')
    finally:
        for case in cases:
            ctx = contexts.pop(case.name, None)
            if ctx is not None and case.teardown is not None:
                try:
                    case.teardown(ctx)
                except Exception:   # a failed teardown must not mask
                    pass            # the measurement (or the real error)
    return [results[case.name] for case in cases]
