"""Replication benchmark: delta-shipped read replicas.

Three claims, one JSON artifact (``BENCH_replica.json``):

1. **Maintained reads everywhere** — a read-heavy mix (each write
   followed by ``--reads-per-write`` ``get``\\ s of the
   ``luxuryitems`` view) against a primary alone vs the same primary
   with 1 and 2 replicas behind a ``ReplicaSet`` (round-robin, bounded
   staleness ``--max-lag``).  A direct base write no longer
   invalidates the view cache: the primary maintains it through the
   view's ∂get, and the commit record ships that cache delta, so every
   replica applies it to its own cache too.  No configuration
   re-materialises the view (``cache_drops`` stays 0) and every read
   is a cache hit; the reads/s columns then compare the routing cost
   of a replica read (staleness check, rotation) with a direct one —
   in one process, replicas add no read capacity.

2. **Replication cost tracks |Δ|, not |DB|** — the WAL bytes appended
   per transaction stay flat as the base table grows 4×, because the
   log carries the coalesced *delta*, never state.

3. **O(|Δ|) catch-up** — a cold replica replays the primary's whole
   history through ``Backend.apply_deltas`` (no ∂put/get plan runs)
   at ≥ the rate the primary originally committed it; the replica
   skips derivation, so catch-up is strictly cheaper than primary
   apply.

Run:  python benchmarks/bench_replica.py [--quick] [--check] [--json P]

``--check`` is the CI smoke gate: no cache drop on the read-heavy mix
(primary and replicas serve it from maintained caches), replica
catch-up ≥ 0.9× the primary's apply rate, and flat WAL bytes/txn.
"""

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / 'src'))

from repro.benchsuite.harness import BenchCase, run_cases      # noqa: E402
from repro.core.strategy import UpdateStrategy                 # noqa: E402
from repro.rdbms.engine import Engine                          # noqa: E402
from repro.rdbms.replica import ReplicaEngine, ReplicaSet      # noqa: E402
from repro.relational.schema import DatabaseSchema             # noqa: E402


def _strategy() -> UpdateStrategy:
    sources = DatabaseSchema.build(
        items={'iid': 'int', 'iname': 'string', 'price': 'int'})
    return UpdateStrategy.parse('luxuryitems', sources, """
        ⊥ :- luxuryitems(I, N, P), not P > 1000.
        +items(I, N, P) :- luxuryitems(I, N, P), not items(I, N, P).
        expensive(I, N, P) :- items(I, N, P), P > 1000.
        -items(I, N, P) :- expensive(I, N, P), not luxuryitems(I, N, P).
    """, expected_get='luxuryitems(I, N, P) :- items(I, N, P), '
                      'P > 1000.')


def _base_rows(size: int) -> list[tuple]:
    return [(i, f'item_{i}', 2000 + i % 500) for i in range(size)]


def _build_primary(strategy, size: int, wal_dir: str,
                   tag: str) -> Engine:
    engine = Engine(strategy.sources, backend='memory',
                    wal=Path(wal_dir) / f'{tag}.wal', wal_sync=False)
    engine.load('items', _base_rows(size))
    engine.define_view(strategy, validate_first=False)
    engine.rows('luxuryitems')
    return engine


# -- part 1: read throughput vs replica count -------------------------

def _cache_drops(engine: Engine) -> int:
    return engine.metrics.snapshot()['counters'].get('cache.dropped', 0)


def _read_mix_cases(strategy, size: int, wal_dir: str, *,
                    writes: int, reads_per_write: int,
                    max_lag: int, drops: dict) -> list[BenchCase]:
    def make_case(replicas: int) -> BenchCase:
        name = 'primary-only' if replicas == 0 \
            else f'replica-{replicas}'

        def setup():
            primary = _build_primary(strategy, size, wal_dir,
                                     name.replace('-', '_'))
            replica_set = ReplicaSet(
                primary,
                [ReplicaEngine(strategy.sources, primary.wal)
                 for _ in range(replicas)],
                policy='round-robin', max_lag=max_lag)
            replica_set.catch_up()
            return {'primary': primary, 'router': replica_set,
                    'next_key': size + 10}

        def op(ctx, round_index):
            primary, router = ctx['primary'], ctx['router']
            read_latencies = []
            for _ in range(writes):
                key = ctx['next_key']
                ctx['next_key'] += 1
                # A direct base write (writes stay on the primary): the
                # view cache is maintained, here and on each replica.
                primary.insert('items', (key, f'w{key}', 5000))
                for _ in range(reads_per_write):
                    t0 = time.perf_counter()
                    router.read('luxuryitems')
                    read_latencies.append(time.perf_counter() - t0)
            return read_latencies

        def teardown(ctx):
            router = ctx['router']
            drops[name] = _cache_drops(ctx['primary']) + sum(
                _cache_drops(replica.engine)
                for replica in router.replicas)
            router.close()
            ctx['primary'].close()

        return BenchCase(name=name, setup=setup, op=op,
                         teardown=teardown, warmup=1,
                         meta={'replicas': replicas})
    return [make_case(n) for n in (0, 1, 2)]


def run_read_scaling(size: int, *, rounds: int, writes: int,
                     reads_per_write: int, max_lag: int,
                     progress=None) -> list[dict]:
    strategy = _strategy()
    drops: dict = {}
    with tempfile.TemporaryDirectory(prefix='repro-bench-wal-') as d:
        results = run_cases(
            _read_mix_cases(strategy, size, d, writes=writes,
                            reads_per_write=reads_per_write,
                            max_lag=max_lag, drops=drops),
            rounds=rounds, seed=7, progress=progress)
    points = []
    for result in results:
        reads = len(result.samples)
        read_seconds = sum(result.samples)
        points.append({
            'config': result.name,
            'replicas': result.meta['replicas'],
            'base_size': size, 'rounds': len(result.wall),
            'writes_per_round': writes,
            'reads_per_write': reads_per_write, 'max_lag': max_lag,
            'reads_per_second': reads / read_seconds,
            'read_latency': result.latency,
            'cache_drops': drops[result.name],
        })
    baseline = points[0]['reads_per_second']
    for point in points:
        point['speedup'] = point['reads_per_second'] / baseline
    return points


# -- part 2: replication bytes per txn vs |DB| ------------------------

def run_replication_cost(sizes, *, txns: int,
                         delta_rows: int = 4) -> list[dict]:
    strategy = _strategy()
    points = []
    for size in sizes:
        with tempfile.TemporaryDirectory(
                prefix='repro-bench-wal-') as d:
            engine = _build_primary(strategy, size, d, 'cost')
            try:
                before = dict(engine.wal.stats)
                key = size + 10
                for _ in range(txns):
                    rows = [(key + j, f'd{key + j}', 5000)
                            for j in range(delta_rows)]
                    key += delta_rows
                    with engine.transaction() as txn:
                        for row in rows:
                            txn.insert('items', row)
                appended = engine.wal.stats['bytes'] - before['bytes']
                points.append({
                    'base_size': size, 'txns': txns,
                    'delta_rows_per_txn': delta_rows,
                    'wal_bytes_per_txn': appended / txns,
                })
            finally:
                engine.close()
    return points


# -- part 3: catch-up rate vs primary apply rate ----------------------

def run_catch_up(size: int, *, txns: int,
                 delta_rows: int = 4) -> dict:
    strategy = _strategy()
    with tempfile.TemporaryDirectory(prefix='repro-bench-wal-') as d:
        engine = _build_primary(strategy, size, d, 'catchup')
        try:
            # Sync the replica to the pre-transaction LSN first, so
            # both sides are then timed over the SAME work: the
            # primary derives + applies `txns` transactions, the
            # replica replays exactly those commit records.
            replica = ReplicaEngine(strategy.sources, engine.wal)
            try:
                replica.catch_up()
                key = size + 10
                batches = []
                for _ in range(txns):
                    batches.append([(key + j, f'c{key + j}', 5000)
                                    for j in range(delta_rows)])
                    key += delta_rows
                t0 = time.perf_counter()
                for rows in batches:
                    with engine.transaction() as txn:
                        for row in rows:
                            txn.insert('items', row)
                primary_seconds = time.perf_counter() - t0
                t0 = time.perf_counter()
                applied = replica.catch_up()
                catch_up_seconds = time.perf_counter() - t0
                assert applied == txns
                assert frozenset(replica.rows('items')) \
                    == frozenset(engine.rows('items'))
            finally:
                replica.close()
        finally:
            engine.close()
    # Catch-up is pure delta application (no ∂put derivation, no
    # constraint checks) — strictly less work per transaction than
    # the primary's commit path.
    return {'base_size': size, 'txns': txns,
            'records_replayed': applied,
            'primary_txns_per_second': txns / primary_seconds,
            'catch_up_txns_per_second': txns / catch_up_seconds,
            'catch_up_vs_primary': primary_seconds / catch_up_seconds}


def format_read_points(points) -> str:
    lines = [f'{"config":<14} {"replicas":>8} {"reads/s":>10} '
             f'{"speedup":>8} {"p50 ms":>8} {"p95 ms":>8} '
             f'{"p99 ms":>8}']
    lines.append('-' * len(lines[0]))
    for p in points:
        latency = p['read_latency']
        lines.append(
            f'{p["config"]:<14} {p["replicas"]:>8} '
            f'{p["reads_per_second"]:>10.0f} {p["speedup"]:>7.2f}x '
            f'{latency["p50_ms"]:>8.3f} {latency["p95_ms"]:>8.3f} '
            f'{latency["p99_ms"]:>8.3f}')
    return '\n'.join(lines)


def format_cost_points(points) -> str:
    lines = [f'{"base size":>10} {"txns":>6} {"bytes/txn":>10}']
    lines.append('-' * len(lines[0]))
    for p in points:
        lines.append(f'{p["base_size"]:>10} {p["txns"]:>6} '
                     f'{p["wal_bytes_per_txn"]:>10.0f}')
    return '\n'.join(lines)


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument('--size', type=int, default=20_000,
                        help='base items rows for the read mix')
    parser.add_argument('--rounds', type=int, default=6,
                        help='timed harness rounds per configuration')
    parser.add_argument('--writes', type=int, default=8,
                        help='write transactions per round')
    parser.add_argument('--reads-per-write', type=int, default=6)
    parser.add_argument('--max-lag', type=int, default=24,
                        help='bounded-staleness catch-up threshold '
                             '(logged records) for replica reads')
    parser.add_argument('--txns', type=int, default=200,
                        help='transactions for the cost/catch-up parts')
    parser.add_argument('--quick', action='store_true',
                        help='small sizes: a CI smoke run')
    parser.add_argument('--check', action='store_true',
                        help='fail when the read mix drops a view '
                             'cache, catch-up falls below 0.9x the '
                             'primary apply rate, or WAL bytes/txn '
                             'grow with the base size')
    parser.add_argument('--json', type=Path,
                        default=Path(__file__).resolve().parent /
                        'BENCH_replica.json')
    args = parser.parse_args(argv)
    size, rounds, txns = args.size, args.rounds, args.txns
    cost_sizes = [size // 2, size, size * 2]
    if args.quick:
        size, rounds, txns = 10_000, 4, 120
        cost_sizes = [5_000, 10_000, 20_000]

    read_points = run_read_scaling(
        size, rounds=rounds, writes=args.writes,
        reads_per_write=args.reads_per_write, max_lag=args.max_lag,
        progress=lambda msg: print(f'  read-mix: {msg}',
                                   file=sys.stderr))
    print(format_read_points(read_points))
    cost_points = run_replication_cost(cost_sizes, txns=txns)
    print(format_cost_points(cost_points))
    catch_up = run_catch_up(size, txns=txns)
    print(f'catch-up: replica replayed {catch_up["records_replayed"]} '
          f'records at {catch_up["catch_up_vs_primary"]:.1f}x the '
          f'primary apply rate')

    by_config = {p['config']: p for p in read_points}
    per_txn = [p['wal_bytes_per_txn'] for p in cost_points]
    cost_flatness = max(per_txn) / min(per_txn)
    payload = {
        'benchmark': 'replica', 'size': size, 'rounds': rounds,
        'cpu_count': os.cpu_count(),
        'note': ('replicas serve reads at their applied LSN with '
                 'bounded staleness (max_lag); a base write maintains '
                 'the view cache through its delta-get on the primary '
                 'and, via the shipped cache delta, on every replica, '
                 'so no configuration re-materialises '
                 '(cache_drops 0) and reads/s compares routing cost '
                 'only.  wal_bytes_per_txn flat across a 4x base-size '
                 'sweep shows the log carries O(|delta|), not '
                 'O(|DB|)'),
        'read_scaling': read_points,
        'replication_cost': cost_points,
        'cost_flatness_max_over_min': cost_flatness,
        'catch_up': catch_up,
    }
    args.json.write_text(json.dumps(payload, indent=2) + '\n',
                         encoding='utf-8')
    print(f'wrote {args.json}')

    if args.check:
        failed = False
        dropped = {config: p['cache_drops']
                   for config, p in by_config.items() if p['cache_drops']}
        if dropped:
            print(f'FAIL: the read mix dropped view caches {dropped} '
                  f'(base writes must maintain them)', file=sys.stderr)
            failed = True
        if catch_up['catch_up_vs_primary'] < 0.9:
            print(f'FAIL: catch-up ran at '
                  f'{catch_up["catch_up_vs_primary"]:.2f}x the '
                  f'primary apply rate (needed >= 0.9x)',
                  file=sys.stderr)
            failed = True
        if cost_flatness > 1.5:
            print(f'FAIL: wal bytes/txn varied '
                  f'{cost_flatness:.2f}x across the base-size sweep '
                  f'(should be flat; needed <= 1.5x)',
                  file=sys.stderr)
            failed = True
        if failed:
            return 1
        print(f'check passed: no cache drop on the read mix, catch-up '
              f'= {catch_up["catch_up_vs_primary"]:.1f}x primary '
              f'apply, cost flatness = {cost_flatness:.2f}x')
    return 0


if __name__ == '__main__':
    raise SystemExit(_main())
