"""The five-class round on the Figure 6 views, and its workloads.

One round runs one operation of each class, in this order, each
touching every view of the workload, so every sample of a class does
the same work:

* ``view_write`` — one ``execute_many`` inserting ``K`` rows into each
  view;
* ``keyed_dml`` — one transaction with one keyed ``DELETE … WHERE key =
  v`` per view, ``v`` a key the previous round wrote;
* ``base_write`` — ``K`` rows inserted into each view's base table(s);
* ``read_after_write`` — read every view (the caches the base write
  invalidated are rebuilt here);
* ``steady_read`` — read every view again.

The keyed statement is a DELETE, not an UPDATE, because deleting what
the previous round wrote is what keeps the tables at their generated
size: without it every round adds rows and a run's medians would
depend on how many rounds it made.

A read hands every row to the caller, which iterates the whole result,
so a backend that returns live sets and one that copies do the same
client-side work.  After each ``read_after_write`` the client checks
that every row the round committed is visible and the key it deleted
is gone; a mismatch is a failed operation.

Inputs come from a ``random.Random(seed)`` and counters, never from
the iteration order of a result set, so a seed fixes the whole
operation sequence.

Before each round the runner collects garbage, untimed, so every round
starts from the same collector state and each collection then falls
in the operation whose allocations trigger it — in practice the
re-materialising ``read_after_write``, every round.  Left alone, a
full collection (tens of milliseconds over the 20,000-row tables)
falls in whichever operation happens to cross the collector's
threshold, which depends on the seed: ``view_write`` measured 1.4 ms
on some seeds and 6.6 ms on others.  The workloads also
``gc.freeze()`` the set-up data before the timed phase, so no
collection traverses the base tables.  (Collecting before every
operation instead was rejected: the collection touches every cached
row, so the next read ran cache-warm and its latency depended on the
benchmark rather than on the program.)
"""

from __future__ import annotations

import gc
import os
import pickle
import shutil
import time

from repro.benchsuite.catalog import entry_by_name
from repro.datalog.evaluator import evaluate
from repro.datalog.plan import clear_plan_cache
from repro.rdbms.dml import Delete, Insert
from repro.rdbms.engine import Engine
from repro.rdbms.sharded import ShardedEngine
from repro.relational.generators import random_database
from repro.relational.schema import DatabaseSchema
from repro.sql import triggers

from hostspeed import Unscaled

__all__ = ['OP_CLASSES', 'WRITE_CLASSES', 'TXN_CLASSES', 'Fig6Client',
           'Fig6Data', 'RoundRunner', 'build_memory_engine',
           'build_sharded_engine', 'catalog_pass', 'check_fresh_get',
           'check_against_oracle']

OP_CLASSES = ('view_write', 'keyed_dml', 'base_write', 'read_after_write',
              'steady_read')
WRITE_CLASSES = ('view_write', 'keyed_dml', 'base_write')
#: Every transaction the client makes: the write classes plus the
#: untimed ``cleanup`` of a multi-shard engine (see Fig6Client).
TXN_CLASSES = WRITE_CLASSES + ('cleanup',)

#: Rows per view in one view write and one base write (the ROADMAP's
#: 10-row transaction).
K = 10

#: The column each view's keyed DELETE names.
KEY_ATTR = {'luxuryitems': 'iid', 'officeinfo': 'wname',
            'outstanding_task': 'title', 'vw_brands': 'bid'}
KEY_POS = {'luxuryitems': 0, 'officeinfo': 0, 'outstanding_task': 1,
           'vw_brands': 0}


def _fresh_key(view: str, n: int):
    if view in ('luxuryitems', 'vw_brands'):
        return 10_000_000 + n
    return f'k{n}'


def _view_row(view: str, key, n: int, rng, flow_tids: list) -> tuple:
    """A view tuple under ``key`` satisfying the view's ⊥-constraints."""
    if view == 'luxuryitems':
        return (key, f'v{n}', 1001 + rng.randrange(999))
    if view == 'officeinfo':
        return (key, f'office{n}')
    if view == 'outstanding_task':
        return (rng.choice(flow_tids), key, f'owner{n}', rng.randrange(4))
    return (key, f'v{n}', 'domestic' if n % 2 else 'imported')


def _base_row(view: str, key, n: int, rng, flow_tids: list) -> tuple:
    """``(base table, row, the view row it produces)`` under ``key``."""
    if view == 'luxuryitems':
        row = (key, f'b{n}', 1001 + rng.randrange(999))
        return 'items', row, row
    if view == 'officeinfo':
        return 'works', (key, f'office{n}', 'n/a', 'n/a'), \
            (key, f'office{n}')
    if view == 'outstanding_task':
        tid, priority = rng.choice(flow_tids), rng.randrange(4)
        return 'tasks', (tid, key, f'o{n}', '2020-01-01', priority,
                         'open'), (tid, key, f'o{n}', priority)
    if n % 2:
        return 'brands_domestic', (key, f'b{n}'), (key, f'b{n}',
                                                   'domestic')
    return 'brands_imported', (key, f'b{n}'), (key, f'b{n}', 'imported')


def _schema(strategies) -> DatabaseSchema:
    """The combined schema of the source relations of ``strategies``."""
    relations = {}
    for strategy in strategies:
        for relation in strategy.sources:
            relations[relation.name] = relation
    return DatabaseSchema(tuple(relations.values()))


class Fig6Data:
    """The generated inputs of one workload: the combined schema of
    ``views``, their strategies, and a random instance at scale
    ``scale`` drawn from ``seed``."""

    def __init__(self, views, scale: int, seed: int):
        self.views = tuple(views)
        self.entries = [entry_by_name(view) for view in self.views]
        self.strategies = [entry.strategy() for entry in self.entries]
        sizes: dict[str, int] = {}
        pools: dict = {}
        for entry in self.entries:
            sizes.update(entry.sizes(scale))
            pools.update(entry.column_pools)
        self.schema = _schema(self.strategies)
        self.data = random_database(self.schema, sizes, seed=seed,
                                    column_pools=pools)
        flow = self.data['flow'] if 'flow' in self.schema else ()
        self.flow_tids = sorted({row[0] for row in flow})

    def load_into(self, engine) -> None:
        for name in self.schema.names():
            engine.load(name, self.data[name])


def _consume(rows) -> None:
    """Iterate the whole result, as a caller reading the view does."""
    for _ in rows:
        pass


def read_views(engine, views) -> list:
    """One read of every view: each result is fully iterated."""
    results = []
    for view in views:
        rows = engine.rows(view)
        _consume(rows)
        results.append(rows)
    return results


class Fig6Client:
    """Builds each round's statements and checks what the reads show.

    Round ``r`` writes its view and base rows under fresh keys, one per
    shard so that a multi-shard engine commits both writes on every
    shard.  Its keyed DELETE removes the first key of round ``r - 1``
    (one shard), and an untimed ``cleanup`` transaction removes that
    round's other keys, so the tables keep their size however many
    rounds run.  A priming transaction before the first round writes
    the keys that round deletes.

    ``history`` keeps every committed write batch, in order, so an
    oracle engine can replay the same operation sequence.  The batches
    are kept pickled: as bytes they are invisible to the garbage
    collector, which would otherwise traverse a history that grows
    with every round, and slow each later round's collections."""

    def __init__(self, engine, views, rng, flow_tids):
        self.engine = engine
        self.views = tuple(views)
        self.rng = rng
        self.flow_tids = flow_tids
        partitioner = getattr(engine, 'partitioner', None)
        self.shard_of = partitioner.shard_of if partitioner else None
        self.n_keys = partitioner.n_shards if partitioner else 1
        self.counter = 0
        self.history: list = []
        self.mismatches: list[str] = []
        self.previous = self._fresh_keys()
        view_batches, base_batches, _ = self._writes(self.previous)
        self._commit(None, view_batches + base_batches)

    def _next(self) -> int:
        self.counter += 1
        return self.counter

    def _fresh_keys(self) -> dict:
        """One fresh key per shard for every view."""
        keys = {}
        for view in self.views:
            by_shard: dict = {}
            while len(by_shard) < self.n_keys:
                key = _fresh_key(view, self._next())
                shard = self.shard_of(key) if self.shard_of else 0
                by_shard.setdefault(shard, key)
            keys[view] = [by_shard[shard] for shard in sorted(by_shard)]
        return keys

    def _writes(self, keys) -> tuple:
        """(view-write batches, base-write batches, the view rows the
        two produce per view) for one round's ``keys``."""
        rng, tids = self.rng, self.flow_tids
        view_batches, buckets, present = [], {}, {}
        for view in self.views:
            view_keys = keys[view]
            rows = [_view_row(view, view_keys[j % len(view_keys)],
                              self._next(), rng, tids) for j in range(K)]
            view_batches.append((view, [Insert(row) for row in rows]))
            present[view] = set(rows)
            for j in range(K):
                table, row, shown = _base_row(
                    view, view_keys[j % len(view_keys)], self._next(), rng,
                    tids)
                buckets.setdefault(table, []).append(Insert(row))
                present[view].add(shown)
        return view_batches, list(buckets.items()), present

    def _commit(self, run, batches) -> None:
        if run is None:
            self.engine.execute_many(batches)
        else:
            run('cleanup', self.engine.execute_many, batches)
        self.history.append(pickle.dumps(batches))

    def play_round(self, run) -> None:
        """One round; ``run(op_class, fn, *args)`` times and records
        each operation and returns its result (it re-raises a failed
        operation, which abandons the rest of the round)."""
        keys = self._fresh_keys()
        view_batches, base_batches, present = self._writes(keys)
        run('view_write', self.engine.execute_many, view_batches)
        self.history.append(pickle.dumps(view_batches))
        deletes = [(view, [Delete({KEY_ATTR[view]: self.previous[view][0]})])
                   for view in self.views]
        run('keyed_dml', self.engine.execute_many, deletes)
        self.history.append(pickle.dumps(deletes))
        run('base_write', self.engine.execute_many, base_batches)
        self.history.append(pickle.dumps(base_batches))
        results = run('read_after_write', read_views, self.engine,
                      self.views)
        for view, rows in zip(self.views, results):
            self._check(view, rows, present[view],
                        self.previous[view][0])
        run('steady_read', read_views, self.engine, self.views)
        if self.n_keys > 1:
            self._commit(run, [
                (view, [Delete({KEY_ATTR[view]: key})
                        for key in self.previous[view][1:]])
                for view in self.views])
        self.previous = keys

    def _check(self, view, rows, present, deleted) -> None:
        missing = [row for row in present if row not in rows]
        if missing:
            self.mismatches.append(
                f'{view}: committed insert not visible: {missing[0]}')
        pos = KEY_POS[view]
        if any(row[pos] == deleted for row in rows):
            self.mismatches.append(
                f'{view}: deleted key {deleted!r} still visible')


class RoundRunner:
    """Runs rounds and keeps per-class latency samples and failures.

    With a ``tracer`` each operation runs as a traced root span; with a
    ``probe`` (a zero-argument counter reader) the counter's growth
    over each transaction is summed into ``probed``.  Untraced, each
    operation is timed by ``clock`` (a :class:`hostspeed.HostClock`; by
    default times are kept as measured)."""

    def __init__(self, tracer=None, probe=None, clock=None):
        self.clock = clock or Unscaled()
        self.samples = {op: [] for op in OP_CLASSES}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tracer = tracer
        self.probe = probe
        self.probed = 0

    def run(self, op_class: str, fn, *args):
        """Run one operation; the client's ``cleanup`` is traced and
        probed like the other transactions but gives no latency
        sample."""
        self.attempted += 1
        before = self.probe() if self.probe is not None \
            and op_class in TXN_CLASSES else None
        try:
            if self.tracer is not None:
                elapsed, result = self.tracer.run_op(op_class, fn, *args)
            else:
                result, elapsed = self.clock.measure(fn, *args)
        except Exception as error:
            self.failed += 1
            self.errors.append(f'{op_class}: {error!r}')
            raise
        if before is not None:
            self.probed += self.probe() - before
        if op_class in self.samples:
            self.samples[op_class].append(elapsed)
        return result

    def rounds(self, client: Fig6Client, *, count: int | None = None,
               seconds: float | None = None, min_rounds: int = 0) -> int:
        """Play ``count`` rounds, or rounds until ``seconds`` passed
        and at least ``min_rounds`` were played."""
        started = time.perf_counter()
        played = 0
        while True:
            if count is not None and played >= count:
                break
            if count is None and played >= min_rounds and \
                    time.perf_counter() - started >= seconds:
                break
            checked = len(client.mismatches)
            gc.collect()
            try:
                client.play_round(self.run)
            except Exception:
                pass        # recorded by run(); the next round goes on
            played += 1
            # A wrong read is a failed read_after_write operation.
            if len(client.mismatches) > checked:
                self.failed += 1
            if len(self.errors) + len(client.mismatches) > 50:
                break       # a broken build: stop early, report it
        return played

    def n_ops(self) -> int:
        return sum(len(values) for values in self.samples.values())


# -- engines ---------------------------------------------------------


def _define(engine, entry) -> None:
    """Define ``entry``'s view as a strategy author does: validate it
    (Algorithm 1) inside ``define_view``, then compile the certified
    view definition to SQL triggers.  Its LVGN-Datalog membership must
    equal the catalog's Table 1 value."""
    strategy = entry.strategy()
    name = strategy.view.name
    engine.define_view(strategy)
    view = engine.view(name)
    if view.lvgn != entry.paper.lvgn:
        raise RuntimeError(f'{name}: LVGN {view.lvgn} differs from '
                           f'Table 1 ({entry.paper.lvgn})')
    if name not in triggers.compile_strategy_to_sql(strategy,
                                                    view.get_program):
        raise RuntimeError(f'{name}: compiled SQL does not name the view')


def catalog_pass(views, clock) -> list[float]:
    """Seconds to define each view of ``views`` (see :func:`_define`)
    on a fresh memory-backed ``Engine`` holding no rows, from a cold
    plan cache, as an author who writes these strategies meets them,
    each scaled by ``clock``.  The collections run before each
    definition are not timed."""
    entries = [entry_by_name(view) for view in views]
    engine = Engine(_schema(entry.strategy() for entry in entries),
                    backend='memory')
    try:
        clear_plan_cache()
        times = []
        for entry in entries:
            gc.collect()
            times.append(clock.measure(_define, engine, entry)[1])
        return times
    finally:
        engine.close()


def _load(make_engine, data: Fig6Data):
    engine = make_engine()
    try:
        data.load_into(engine)
    except BaseException:
        engine.close()
        raise
    return engine


def _set_up(make_engine, data: Fig6Data, tracer=None, clock=None) -> tuple:
    """Build an engine, load the data, define every view (see
    :func:`_define`) from a cold plan cache and materialise each view
    once: the timed set-up.
    With a ``tracer`` each definition runs as a traced ``define``
    operation.  Returns
    ``(engine, set-up seconds)``, each step's time scaled by ``clock``;
    the collections run before each step are not timed (see the module
    docstring)."""
    clock = clock or Unscaled()
    clear_plan_cache()
    gc.collect()
    engine, seconds = clock.measure(_load, make_engine, data)
    try:
        for entry in data.entries:
            gc.collect()
            if tracer is None:
                seconds += clock.measure(_define, engine, entry)[1]
            else:
                seconds += tracer.run_op('define', _define, engine,
                                         entry)[0]
        gc.collect()
        seconds += clock.measure(read_views, engine, data.views)[1]
    except BaseException:
        engine.close()
        raise
    return engine, seconds


def build_memory_engine(data: Fig6Data, tracer=None, clock=None) -> tuple:
    """:func:`_set_up` of one memory-backed ``Engine``."""
    return _set_up(lambda: Engine(data.schema, backend='memory'), data,
                   tracer, clock)


def build_sharded_engine(data: Fig6Data, wal_dir: str, tracer=None,
                         clock=None) -> tuple:
    """:func:`_set_up` of the durable process-sharded cluster: two
    worker processes, each with SQLite storage and its own WAL fsynced
    at every commit (``wal_sync=True``), the view and its base table
    sharded on the view key."""
    shutil.rmtree(wal_dir, ignore_errors=True)
    os.makedirs(wal_dir)
    shard_keys = {}
    for view, strategy in zip(data.views, data.strategies):
        attr = KEY_ATTR[view]
        shard_keys[view] = attr
        for relation in strategy.sources:
            shard_keys[relation.name] = attr
    return _set_up(lambda: ShardedEngine(
        data.schema, shards=2, execution='processes', backends='sqlite',
        wal_dir=wal_dir, wal_sync=True, shard_keys=shard_keys), data,
        tracer, clock)


# -- correctness -----------------------------------------------------


def check_fresh_get(engine, views) -> list[str]:
    """Each view's rows must equal a fresh evaluation of its ``get``
    over the current base tables."""
    problems = []
    database = engine.database()
    for view in views:
        get_program = engine.view(view).get_program
        fresh = evaluate(get_program, database, goals=(view,))[view]
        if frozenset(engine.rows(view)) != frozenset(fresh):
            problems.append(f'{view}: rows differ from a fresh get')
    return problems


def check_against_oracle(engine, data: Fig6Data, history) -> list[str]:
    """Replay ``history`` on an in-process memory engine loaded with
    the same inputs; base tables and views must be identical."""
    oracle = Engine(data.schema, backend='memory')
    try:
        data.load_into(oracle)
        for strategy in data.strategies:
            oracle.define_view(strategy, validate_first=False)
        for batches in history:
            oracle.execute_many(pickle.loads(batches))
        problems = []
        if engine.database() != oracle.database():
            problems.append('base tables differ from the oracle replay')
        for view in data.views:
            if frozenset(engine.rows(view)) != frozenset(oracle.rows(view)):
                problems.append(f'{view}: differs from the oracle replay')
        return problems
    finally:
        oracle.close()
