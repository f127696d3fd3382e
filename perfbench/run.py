"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload fig6_oltp --seed 1 --seconds 40 \\
        --trace 0

Run from the repository root (the program is imported from ``src/``).
Workloads (see ``perfbench/README.md`` for why each exists):

* ``fig6_oltp`` — the five-class round on the four Figure 6 views, one
  memory-backed ``Engine``, 20,000-row base tables;
* ``sharded_durable`` — the same round on ``luxuryitems`` over a
  two-process ``ShardedEngine`` with SQLite storage and a WAL fsynced
  at every commit.

``--trace 0`` reports the end-to-end metrics, every time normalised to a
reference host speed (see ``hostspeed``); ``--trace 1`` traces the
set-up's view definitions, then runs rounds untraced and traced in
turn, with span tracing installed around each layer, and reports the
per-layer metrics (the span file and the waterfall go to
``.perfbench_out/``).  The last line
of standard output is the JSON result; the lines before it give the
provenance.  The exit code is 0 when the run completed, whether or not
its outputs were correct (``"correct"`` says that).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import sqlite3
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, 'src'))
OUT_DIR = os.path.join(ROOT, '.perfbench_out')

from repro.benchsuite.catalog import FIGURE6_VIEWS  # noqa: E402
from repro.benchsuite.latency import percentile  # noqa: E402
from repro.datalog.plan import (clear_plan_cache,  # noqa: E402
                                 plan_cache_info)
from repro.rdbms.sharded import ShardedEngine  # noqa: E402

import layers  # noqa: E402
from hostspeed import HostClock  # noqa: E402
from oltp import (OP_CLASSES, TXN_CLASSES, Fig6Client,  # noqa: E402
                  Fig6Data, RoundRunner, build_memory_engine,
                  build_sharded_engine, catalog_pass, check_against_oracle,
                  check_fresh_get)
from tracing import Tracer, install, span_cost, uninstall  # noqa: E402

#: Scale of each workload's base tables (rows per base table; ``flow``
#: is 0.6× in the catalog's size weights).
FIG6_SCALE = 20_000
SHARDED_SCALE = 2_000
#: Set-ups per run, (before, after) the timed phase; ``setup_s`` is the
#: median of all of them.  The host's speed shifts over seconds, so the
#: set-ups are split to sample it at both ends of the run.
SETUPS = {'fig6_oltp': (2, 2), 'sharded_durable': (5, 4)}
#: Stretches of rounds in the timed phase, each followed by one cold
#: catalog pass over the Figure 6 strategies (``catalog_define_s`` and
#: ``define_p50_ms`` come from these passes), so the passes are spread
#: over the run.
WINDOWS = 6
#: Untimed rounds before the measured ones: the first transaction after
#: the set-up compiles the incremental plans (about 0.2 s on
#: ``fig6_oltp``), a one-off that would otherwise land in one sample.
WARMUP_ROUNDS = 1
#: Every op class needs at least this many samples (p90 has ten beyond).
MIN_ROUNDS = 100
#: Traced rounds of a traced run, each after an untraced one (fixed, so
#: counts repeat exactly).
TRACE_ROUNDS = {'fig6_oltp': 40, 'sharded_durable': 300}
#: Largest relative gap allowed between an op class's mean traced time
#: (its layers' self times plus the unattributed time), less the
#: tracing's estimated cost, and its mean latency in the untraced rounds
#: alternated with the traced ones.
WATERFALL_TOLERANCE = 0.25


# -- measurement helpers ----------------------------------------------


def _hwm_mb(pid='self') -> float:
    """Peak resident set of a live process, from /proc (Linux)."""
    try:
        with open(f'/proc/{pid}/status') as status:
            for line in status:
                if line.startswith('VmHWM:'):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid == 'self':
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0


def _ms(samples, q) -> float:
    return percentile(samples, q) * 1000.0


def _windowed_ms(samples, q) -> float:
    """The ``q``-th percentile of ``samples`` in ms, as the median of
    its value over consecutive windows of at least MIN_ROUNDS samples
    (one window when there are fewer than twice as many): a burst of
    contention from the host's other tenants then moves one window's
    tail, not the run's."""
    windows = max(1, len(samples) // MIN_ROUNDS)
    size = len(samples) // windows
    return statistics.median(
        _ms(samples[i * size:(i + 1) * size], q) for i in range(windows))


def _class_metrics(windows: list, metrics: dict, counts: dict):
    """Per-class p50 over all the samples of the timed phase's
    ``windows``, and p90 windowed (see :func:`_windowed_ms`)."""
    for op_class in OP_CLASSES:
        samples = [value for window in windows
                   for value in window.samples[op_class]]
        counts[op_class] = len(samples)
        metrics[f'{op_class}_p50_ms'] = _ms(samples, 50)
        metrics[f'{op_class}_p90_ms'] = _windowed_ms(samples, 90)


def _ops_per_s(runners) -> float:
    """Operations per second of operation time."""
    return sum(runner.n_ops() for runner in runners) / sum(
        sum(samples) for runner in runners
        for samples in runner.samples.values())


class Result:
    """What one run reports: metrics, sample counts and failures."""

    def __init__(self):
        self.metrics: dict = {}
        self.samples: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fsync = 'no WAL (nothing is flushed)'
        self.tracer: Tracer | None = None
        self.clock: HostClock | None = None

    def absorb(self, runner: RoundRunner) -> None:
        self.attempted += runner.attempted
        self.failed += runner.failed
        self.problems += runner.errors

    def check(self, problems) -> None:
        """A failed end-of-run check counts as one failed operation."""
        if problems:
            self.failed += 1
            self.problems += problems


def _setups(build, clock, count: int, setup_times: list):
    """Run ``build(None, clock)`` — which returns ``(engine, set-up
    seconds)`` — ``count`` times, appending each set-up's seconds to
    ``setup_times``; every engine but the last is closed, which is
    returned."""
    engine = None
    for _ in range(count):
        if engine is not None:
            engine.close()
            engine = None
        engine, seconds = build(None, clock)
        setup_times.append(seconds)
    return engine


def _quiesce() -> None:
    """Collect, then freeze what is alive (the set-up data) so the
    collections of the timed phase do not traverse it; see the
    ``oltp`` module docstring."""
    gc.collect()
    gc.freeze()


def _setup_metrics(result: Result, setup_times, passes) -> None:
    """``passes`` holds each catalog pass's definition seconds, one per
    strategy in a fixed order.  Each strategy's time is its median over
    the passes; ``define_p50_ms`` is the median of those times and
    ``catalog_define_s`` their sum, the time of a typical pass."""
    result.metrics['setup_s'] = statistics.median(setup_times)
    per_strategy = [statistics.median(times) for times in zip(*passes)]
    result.metrics['define_p50_ms'] = _ms(per_strategy, 50)
    result.metrics['catalog_define_s'] = sum(per_strategy)
    result.samples['setup'] = len(setup_times)
    result.samples['define'] = sum(len(times) for times in passes)
    result.samples['catalog_pass'] = len(passes)


def _timed_phase(result: Result, client, clock,
                 seconds: float) -> tuple:
    """The untraced timed phase: WINDOWS stretches of rounds, together
    ``seconds`` long and at least MIN_ROUNDS rounds, each followed by a
    catalog pass and an untimed warm-up round (the pass cleared the
    plan cache the rounds use).  Returns (one runner per stretch, each
    catalog pass's definition seconds)."""
    windows, passes = [], []
    for _ in range(WINDOWS):
        window = RoundRunner(clock=clock)
        window.rounds(client, seconds=seconds / WINDOWS,
                      min_rounds=-(-MIN_ROUNDS // WINDOWS))
        windows.append(window)
        passes.append(catalog_pass(FIGURE6_VIEWS, clock))
        warmup = RoundRunner()
        warmup.rounds(client, count=WARMUP_ROUNDS)
        result.absorb(window)
        result.absorb(warmup)
    return windows, passes


def _traced_rounds(result: Result, client, rounds: int, tracer: Tracer,
                   plan_lookups: tuple, *, rpc_probe=None,
                   cluster_metrics=None) -> None:
    """A traced run of an OLTP workload: ``rounds`` untraced rounds
    alternating with ``rounds`` traced ones, so a drift of the host's
    speed falls on both and their ratio is the tracing overhead; the
    per-layer metrics come from the traced rounds and from the traced
    ``define`` operations of the set-up, whose plan-cache ``(hits,
    misses)`` are ``plan_lookups``."""
    baseline = RoundRunner()
    traced = RoundRunner(tracer=tracer, probe=rpc_probe)
    targets = layers.targets()
    cluster: dict = {}
    hits, misses = plan_lookups
    for _ in range(rounds):
        baseline.rounds(client, count=1)
        before = layers.cluster_totals(cluster_metrics()) \
            if cluster_metrics else {}
        plan_before = plan_cache_info()
        undo = install(tracer, targets)
        tracer.active = True
        try:
            traced.rounds(client, count=1)
        finally:
            tracer.active = False
            uninstall(undo)
        plan_after = plan_cache_info()
        hits += plan_after.hits - plan_before.hits
        misses += plan_after.misses - plan_before.misses
        if cluster_metrics:
            after = layers.cluster_totals(cluster_metrics())
            for name, value in after.items():
                cluster[name] = cluster.get(name, 0) + value - before[name]
    result.absorb(baseline)
    result.absorb(traced)
    tracer.untraced = {op_class: statistics.fmean(samples)
                       for op_class, samples in baseline.samples.items()
                       if samples}
    tracer.per_span = span_cost()
    result.metrics = layers.layer_metrics(
        tracer, txn_classes=TXN_CLASSES, cluster=cluster,
        rpc_requests=traced.probed, plan_hits=hits, plan_misses=misses,
        untraced_ops_per_s=_ops_per_s([baseline]),
        traced_ops_per_s=_ops_per_s([traced]))
    result.samples['traced_ops'] = traced.n_ops()
    result.tracer = tracer


# -- workloads --------------------------------------------------------


def _oltp(name: str, data: Fig6Data, build, seed: int, seconds: float,
          trace: bool, oracle: bool) -> Result:
    """An OLTP workload: set up (several times when measuring set-up),
    then time rounds, or trace them; then check the final state, and
    when measuring set-up, set up again.  Untraced, every time is
    scaled to the reference host speed (see ``hostspeed``)."""
    result = Result()
    tracer = plan_lookups = None
    if trace:
        # One set-up, its definitions traced.
        tracer = Tracer()
        clear_plan_cache()      # as the set-up does, before reading it
        plan_before = plan_cache_info()
        undo = install(tracer, layers.targets())
        tracer.active = True
        try:
            engine, _ = build(tracer)
        finally:
            tracer.active = False
            uninstall(undo)
        plan_after = plan_cache_info()
        plan_lookups = (plan_after.hits - plan_before.hits,
                        plan_after.misses - plan_before.misses)
    else:
        setup_times = []
        result.clock = clock = HostClock()
        engine = _setups(build, clock, SETUPS[name][0], setup_times)
    sharded = isinstance(engine, ShardedEngine)
    try:
        client = Fig6Client(engine, data.views, random.Random(seed),
                            data.flow_tids)
        warmup = RoundRunner()
        warmup.rounds(client, count=WARMUP_ROUNDS)
        result.absorb(warmup)
        _quiesce()
        if trace:
            _traced_rounds(
                result, client, TRACE_ROUNDS[name], tracer, plan_lookups,
                rpc_probe=(lambda: sum(shard.rpc_requests
                                       for shard in engine.shards))
                if sharded else None,
                cluster_metrics=engine.metrics if sharded else None)
        else:
            windows, passes = _timed_phase(result, client, clock,
                                           seconds)
            _class_metrics(windows, result.metrics, result.samples)
            result.metrics['ops_per_s'] = _ops_per_s(windows)
            workers = [shard.process.pid for shard in engine.shards] \
                if sharded else []
            result.metrics['peak_rss_mb'] = _hwm_mb() + sum(
                _hwm_mb(pid) for pid in workers)
        result.problems += client.mismatches
        result.check(check_against_oracle(engine, data, client.history)
                     if oracle else check_fresh_get(engine, data.views))
    finally:
        engine.close()
    if not trace:
        gc.unfreeze()
        _setups(build, clock, SETUPS[name][1], setup_times).close()
        _setup_metrics(result, setup_times, passes)
    return result


def fig6_oltp(seed: int, seconds: float, trace: bool) -> Result:
    data = Fig6Data(FIGURE6_VIEWS, FIG6_SCALE, seed)
    return _oltp('fig6_oltp', data,
                 lambda tracer, clock=None: build_memory_engine(
                     data, tracer, clock),
                 seed, seconds, trace, oracle=False)


def sharded_durable(seed: int, seconds: float, trace: bool) -> Result:
    data = Fig6Data(('luxuryitems',), SHARDED_SCALE, seed)
    wal_dir = os.path.join(OUT_DIR, f'wal-{os.getpid()}')
    try:
        result = _oltp('sharded_durable', data,
                       lambda tracer, clock=None: build_sharded_engine(
                           data, wal_dir, tracer, clock),
                       seed, seconds, trace, oracle=True)
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)
    result.fsync = 'WAL fsynced at every commit (wal_sync=True)'
    return result


WORKLOADS = {'fig6_oltp': fig6_oltp, 'sharded_durable': sharded_durable}


# -- reporting --------------------------------------------------------


def provenance(args) -> dict:
    return {
        'workload': args.workload,
        'seed': args.seed,
        'python_hash_seed': os.environ.get('PYTHONHASHSEED'),
        'seconds': args.seconds,
        'trace': args.trace,
        'cpu_count': os.cpu_count(),
        'nproc': len(os.sched_getaffinity(0))
        if hasattr(os, 'sched_getaffinity') else os.cpu_count(),
        'python': platform.python_version(),
        'sqlite': sqlite3.sqlite_version,
        'platform': platform.platform(),
        'loop': 'closed loop, one client in one process',
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--workload', required=True, choices=WORKLOADS)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Set iteration order over strings follows the interpreter's hash
    # seed, and the solver's search order (so its plan-cache lookups)
    # follows set iteration order: fix the hash seed from --seed, so a
    # seed repeats every count exactly.
    hash_seed = str(args.seed % 2**32)
    if os.environ.get('PYTHONHASHSEED') != hash_seed:
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)]
                  + list(sys.argv[1:] if argv is None else argv),
                  dict(os.environ, PYTHONHASHSEED=hash_seed))

    with open(os.path.join(ROOT, 'BENCHMARK.json')) as spec_file:
        spec = json.load(spec_file)
    declared = spec['per_layer' if args.trace else 'end_to_end']
    units = {metric['name']: metric['unit'] for metric in declared}

    os.makedirs(OUT_DIR, exist_ok=True)
    result = WORKLOADS[args.workload](args.seed, args.seconds,
                                      bool(args.trace))
    if set(result.metrics) != set(units):
        raise SystemExit(
            f'metrics do not match BENCHMARK.json: missing '
            f'{sorted(set(units) - set(result.metrics))}, undeclared '
            f'{sorted(set(result.metrics) - set(units))}')

    info = provenance(args)
    info['fsync'] = result.fsync
    info['samples'] = result.samples
    if result.clock is not None:
        info['host_speed'] = result.clock.summary()
    stem = os.path.join(OUT_DIR, f'{args.workload}-seed{args.seed}-'
                                 f'trace{args.trace}')
    tracer = result.tracer
    if tracer is not None:
        info['waterfall'] = tracer.waterfall()
        info['waterfall_tolerance'] = WATERFALL_TOLERANCE
        info['span_cost_us'] = tracer.per_span * 1e6
        tracer.write(stem + '-spans.tsv.gz')
        result.check([
            f'{op_class}: traced {fall["wall_ms"]:.3f} ms less tracing '
            f'{fall["tracing_ms"]:.3f} ms is {fall["gap_ratio"]:.1%} '
            f'away from untraced {fall["untraced_ms"]:.3f} ms'
            for op_class, fall in info['waterfall'].items()
            if fall['gap_ratio'] is not None
            and fall['gap_ratio'] > WATERFALL_TOLERANCE])
    report = {
        'correct': result.failed == 0 and not result.problems,
        'attempted': result.attempted,
        'failed': result.failed,
        'metrics': {name: {'value': value, 'unit': units[name]}
                    for name, value in sorted(result.metrics.items())},
    }
    info['problems'] = result.problems[:20]
    with open(stem + '.json', 'w') as out:
        json.dump({'provenance': info, 'result': report}, out, indent=1)
    print('# provenance ' + json.dumps(
        {k: v for k, v in info.items() if k != 'waterfall'}))
    if 'waterfall' in info:
        for op_class, fall in info['waterfall'].items():
            layers_text = ', '.join(
                f'{name} {ms:.3f}' for name, ms in sorted(
                    fall['layers_ms'].items(), key=lambda kv: -kv[1])
                if ms >= 0.0005)
            untraced = '' if fall['gap_ratio'] is None else (
                f'; less tracing {fall["tracing_ms"]:.3f} ms against '
                f'untraced {fall["untraced_ms"]:.3f} ms: gap '
                f'{fall["gap_ratio"]:.1%}')
            print(f'# waterfall {op_class}: traced {fall["wall_ms"]:.3f} '
                  f'ms = {layers_text}, unattributed '
                  f'{fall["unattributed_ms"]:.3f}{untraced}')
    for problem in result.problems[:20]:
        print(f'# problem: {problem}')
    print(json.dumps(report))
    return 0


if __name__ == '__main__':
    sys.exit(main())
