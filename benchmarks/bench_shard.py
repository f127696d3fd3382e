"""Sharded engine benchmark: throughput vs shard count on a key-local
workload.

The workload is the Figure-6a selection view (``luxuryitems``) over an
``items`` table of ``--size`` rows, range-partitioned on ``iid``.  Each
measured transaction is ``--statements`` (default 100) statements whose
keys all fall inside one shard's key range — the key-local access
pattern sharding exists for (a tenant, a region, a hot time window) —
mixing single-tuple view INSERTs with ``--keyed`` (default 8) by-key
UPDATE/DELETE statements.  The keyed statements are what gives sharding
its leverage: an unindexed ``WHERE iid = k`` is a scan over the whole
relation on a single engine, but routes to the owning shard — which
scans ``1/N`` of the data — under the sharded router.  (The insert-only
extreme is also reported for transparency: since the batched pipeline
coalesces it into one O(|Δ|) derivation, a single engine serves it at
memory speed and sharding is pure routing overhead there.)

Measured configurations: a plain single ``Engine`` (memory backend) and
``ShardedEngine`` with 1, 2 and 4 memory shards (1-shard isolates the
routing overhead).  Results are printed as a table and written to
``BENCH_shard.json`` together with the host's CPU count.

All configurations run on the shared ``benchsuite.harness`` core:
engines are set up once, rounds interleave the configurations in
rotated order (no config systematically inherits a warm machine), and
every engine is closed by the harness teardown.

Run:  python benchmarks/bench_shard.py [--quick] [--check] [--json PATH]

``--quick`` shrinks sizes for CI smoke runs; ``--check`` exits nonzero
if sharded(N=4) throughput falls below the single engine — the CI
regression gate; the tracked JSON shows the actual multiples.
"""

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / 'src'))

from repro.benchsuite.harness import BenchCase, run_cases    # noqa: E402
from repro.core.strategy import UpdateStrategy               # noqa: E402
from repro.rdbms.dml import Delete, Insert, Update           # noqa: E402
from repro.rdbms.engine import Engine                        # noqa: E402
from repro.rdbms.sharded import (RangePartitioner,           # noqa: E402
                                 ShardedEngine)
from repro.relational.schema import DatabaseSchema           # noqa: E402

SHARD_COUNTS = (1, 2, 4)

#: Key space per shard slot: shard i of N owns iids in
#: [i * SLOT, (i+1) * SLOT) under the range partitioner below.
SLOT = 10 ** 9


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


def _base_rows(size: int, shards: int) -> list[tuple]:
    """``size`` rows spread evenly over the ``shards`` key ranges (all
    prices above the selection threshold, so |view| == |items|)."""
    rows = []
    per_shard = size // shards
    for shard in range(shards):
        base = shard * SLOT
        rows.extend((base + i, f'item_{shard}_{i}', 2000 + i % 500)
                    for i in range(per_shard))
    return rows


def _build_single(strategy, size: int, shards_in_data: int) -> Engine:
    engine = Engine(strategy.sources, backend='memory')
    engine.load('items', _base_rows(size, shards_in_data))
    engine.define_view(strategy, validate_first=False)
    engine.rows('luxuryitems')
    return engine


def _build_sharded(strategy, size: int, shards: int) -> ShardedEngine:
    partitioner = RangePartitioner([i * SLOT for i in range(1, shards)])
    engine = ShardedEngine(strategy.sources, partitioner=partitioner,
                           backends='memory',
                           shard_keys={'luxuryitems': 'iid',
                                       'items': 'iid'})
    engine.load('items', _base_rows(size, shards))
    engine.define_view(strategy, validate_first=False)
    engine.rows('luxuryitems')
    return engine


def _hot_mix_transaction(counter: list[int], hot_shard: int,
                         statements: int, keyed: int) -> list:
    """One transaction keyed inside ``hot_shard``'s range: fresh
    single-tuple view INSERTs, interleaved with ``keyed`` by-key
    UPDATE/DELETE statements against rows inserted earlier in the same
    transaction (alternating, so the table size stays stable)."""
    batches = []
    recent: list[int] = []
    keyed_every = max(statements // keyed, 2) if keyed else 0
    for n in range(statements):
        counter[0] += 1
        serial = counter[0]
        if keyed and recent and n % keyed_every == keyed_every - 1:
            if (n // keyed_every) % 2:
                batches.append(('luxuryitems',
                                [Delete({'iid': recent.pop(0)})]))
            else:
                batches.append(('luxuryitems',
                                [Update({'iname': f'renamed_{serial}'},
                                        {'iid': recent[-1]})]))
        else:
            iid = hot_shard * SLOT + SLOT // 2 + serial
            recent.append(iid)
            batches.append(('luxuryitems',
                            [Insert((iid, f'fresh_{serial}', 5000))]))
    return batches


def _mix_case(name: str, build, key_shards: int, statements: int,
              keyed: int, *, shards: int) -> BenchCase:
    """One harness case: the engine plus its own key counter; each
    timed round runs one hot-range transaction (hot shard rotated by
    the round index; warmup rounds use the negative indices and the
    same counter, so keys never collide)."""
    def setup():
        return {'engine': build(), 'counter': [0]}

    def op(ctx, round_index):
        work = _hot_mix_transaction(ctx['counter'],
                                    round_index % key_shards,
                                    statements, keyed)
        ctx['engine'].execute_many(work)

    return BenchCase(name=name, setup=setup, op=op,
                     teardown=lambda ctx: ctx['engine'].close(),
                     warmup=1,
                     meta={'shards': shards})


def _case_points(results, *, size: int, statements: int,
                 keyed: int) -> list[dict]:
    """Harness results → the JSON point shape (throughput from the
    median round, the full latency summary from every round)."""
    points = []
    for result in results:
        tput = statements / statistics.median(result.wall)
        points.append({'config': result.name,
                       'shards': result.meta['shards'],
                       'base_size': size, 'statements': statements,
                       'keyed': keyed, 'stmts_per_second': tput,
                       'txn_latency': result.latency})
    baseline = points[0]['stmts_per_second']
    for point in points:
        point['speedup'] = point['stmts_per_second'] / baseline
    return points


def run_bench(size: int, statements: int, keyed: int, repeats: int,
              shard_counts=SHARD_COUNTS, progress=None) -> list[dict]:
    strategy = _strategy()
    max_shards = max(shard_counts)
    cases = [_mix_case('single',
                       lambda: _build_single(strategy, size, max_shards),
                       max_shards, statements, keyed, shards=1)]
    for n in shard_counts:
        cases.append(_mix_case(
            f'sharded-{n}',
            lambda n=n: _build_sharded(strategy, size, n),
            n, statements, keyed, shards=n))
    results = run_cases(cases, rounds=repeats, seed=11,
                        progress=progress)
    return _case_points(results, size=size, statements=statements,
                        keyed=keyed)


def run_insert_only(size: int, statements: int, repeats: int) -> dict:
    """The insert-only extreme (informational): one coalesced O(|Δ|)
    bucket per transaction, where the single engine needs no help."""
    strategy = _strategy()
    cases = [_mix_case('single',
                       lambda: _build_single(strategy, size, 4),
                       4, statements, 0, shards=1),
             _mix_case('sharded-4',
                       lambda: _build_sharded(strategy, size, 4),
                       4, statements, 0, shards=4)]
    results = run_cases(cases, rounds=repeats, seed=13)
    single_tput, sharded_tput = (
        statements / statistics.median(result.wall)
        for result in results)
    return {'workload': 'insert-only', 'base_size': size,
            'statements': statements,
            'single_stmts_per_second': single_tput,
            'sharded4_stmts_per_second': sharded_tput,
            'sharded4_vs_single': sharded_tput / single_tput}


def format_points(points) -> str:
    lines = [f'{"config":<14} {"shards":>6} {"n":>8} '
             f'{"stmts":>6} {"keyed":>6} {"stmts/s":>10} '
             f'{"vs single":>10} {"p50 ms":>8} {"p99 ms":>8}']
    lines.append('-' * len(lines[0]))
    for p in points:
        latency = p['txn_latency']
        lines.append(
            f'{p["config"]:<14} {p["shards"]:>6} '
            f'{p["base_size"]:>8} {p["statements"]:>6} '
            f'{p["keyed"]:>6} {p["stmts_per_second"]:>10.0f} '
            f'{p["speedup"]:>9.2f}x {latency["p50_ms"]:>8.1f} '
            f'{latency["p99_ms"]:>8.1f}')
    return '\n'.join(lines)


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument('--size', type=int, default=100_000,
                        help='total items rows across the key space')
    parser.add_argument('--statements', type=int, default=100,
                        help='DML statements per measured transaction')
    parser.add_argument('--keyed', type=int, default=8,
                        help='by-key UPDATE/DELETE statements per '
                             'transaction (the scan-bound share)')
    parser.add_argument('--repeats', type=int, default=7)
    parser.add_argument('--quick', action='store_true',
                        help='small size/rounds: a CI smoke run')
    parser.add_argument('--check', action='store_true',
                        help='fail when sharded(4) is below the single '
                             'engine')
    parser.add_argument('--json', type=Path,
                        default=Path(__file__).resolve().parent /
                        'BENCH_shard.json')
    args = parser.parse_args(argv)
    size, repeats = args.size, args.repeats
    if args.quick:
        size, repeats = 20_000, 4
    points = run_bench(size, args.statements, args.keyed, repeats,
                       progress=lambda msg: print(f'  {msg}',
                                                  file=sys.stderr))
    insert_only = run_insert_only(size, args.statements, repeats)
    print(format_points(points))
    print(f'insert-only extreme: single '
          f'{insert_only["single_stmts_per_second"]:.0f} stmts/s, '
          f'sharded-4 {insert_only["sharded4_stmts_per_second"]:.0f} '
          f'({insert_only["sharded4_vs_single"]:.2f}x)')
    payload = {
        'benchmark': 'shard', 'size': size, 'repeats': repeats,
        'statements': args.statements, 'keyed': args.keyed,
        'cpu_count': os.cpu_count(),
        'results': points,
        'insert_only': insert_only,
    }
    args.json.write_text(json.dumps(payload, indent=2) + '\n',
                         encoding='utf-8')
    print(f'wrote {args.json}')
    if args.check:
        four = next(p for p in points if p['config'] == 'sharded-4')
        if four['speedup'] < 1.0:
            print(f'FAIL: sharded(4) is {four["speedup"]:.2f}x the '
                  f'single-engine throughput (expected >= 1.0)',
                  file=sys.stderr)
            return 1
        print(f'check passed: sharded(4) = {four["speedup"]:.2f}x '
              f'single engine')
    return 0


if __name__ == '__main__':
    raise SystemExit(_main())
