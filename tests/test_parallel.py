"""Concurrency suite for the sharded engine.

Thread execution runs every pipeline phase inline on the calling
thread; process execution pipelines every fan-out across the worker
processes.  What these tests pin:

* process shards commit bit-identical state to thread shards and raise
  the same first constraint violation when several shards fail in one
  transaction (prepares join in first-touched order);
* an abort while a transaction driven from a user thread is mid-prepare
  leaves every shard untouched;
* readers on other threads are never blocked by an in-flight
  transaction's prepare phase and observe pre-transaction state (only
  the apply phase takes the per-shard locks);
* the process fan-out is real: every touched shard's prepare, apply and
  read request is submitted before the first of their replies is
  drained, so the workers compute at the same time;
* a SQLite backend's one connection serves every thread, under the
  backend mutex.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import ConstraintViolation, SchemaError
from repro.rdbms.backends.memory import MemoryBackend
from repro.rdbms.dml import Delete, Insert
from repro.rdbms.engine import Engine
from repro.rdbms.procpool import _RpcChannel
from repro.rdbms.sharded import RangePartitioner, ShardedEngine

WAIT = 10.0         # generous upper bound; normal runs take milliseconds

BASE_ROWS = [(1, 'watch', 5000), (2, 'ring', 4000),
             (101, 'vase', 3000), (102, 'clock', 2500)]


class GateBackend(MemoryBackend):
    """A memory backend whose ∂put evaluation can be held at a gate.

    ``armed`` is off during setup (load / view materialisation); once
    armed, entering the incremental evaluation announces itself via
    ``entered`` and blocks until ``release`` — the window the tests
    use to observe a transaction mid-prepare."""

    def __init__(self, schema):
        super().__init__(schema)
        self.armed = False
        self.entered = threading.Event()
        self.release = threading.Event()

    def evaluate_incremental_batch(self, entry, sources, view_handle,
                                   delta, *, new_view_rows=None):
        if self.armed:
            self.entered.set()
            assert self.release.wait(WAIT), 'gate never released'
        return super().evaluate_incremental_batch(
            entry, sources, view_handle, delta,
            new_view_rows=new_view_rows)


def build_engine(luxury_strategy, *, execution='threads', backends=None,
                 shards=2):
    """Two range shards of ``luxuryitems``: iid < 100 on shard 0."""
    boundaries = [100 * (i + 1) for i in range(shards - 1)]
    engine = ShardedEngine(
        luxury_strategy.sources,
        partitioner=RangePartitioner(boundaries),
        backends=backends,
        shard_keys={'luxuryitems': 'iid', 'items': 'iid'},
        execution=execution)
    engine.load('items', BASE_ROWS)
    engine.define_view(luxury_strategy, validate_first=False)
    engine.rows('luxuryitems')
    return engine


class TestParallelEquivalence:

    def test_parallel_matches_serial(self, luxury_strategy):
        """Process shards (the parallel path) against thread shards
        (every phase inline): same committed state after every
        transaction."""
        serial = build_engine(luxury_strategy)
        parallel = build_engine(luxury_strategy, execution='processes')
        txns = [
            [('luxuryitems', [Insert((7, 'tiara', 9000))]),
             ('luxuryitems', [Insert((107, 'bust', 8000))])],
            [('luxuryitems', [Delete({'iid': 7})]),
             ('items', [Insert((150, 'statue', 1500))])],
            [('luxuryitems', [Insert((8, 'orb', 7000)),
                              Delete({'iid': 107})])],
        ]
        try:
            for txn in txns:
                serial.execute_many(txn)
                parallel.execute_many(txn)
                assert parallel.database() == serial.database()
                assert parallel.rows('luxuryitems') \
                    == serial.rows('luxuryitems')
        finally:
            serial.close()
            parallel.close()


class TestDeterministicFirstViolation:

    def _witness(self, luxury_strategy, execution, txn):
        engine = build_engine(luxury_strategy, execution=execution)
        try:
            before = engine.database()
            with pytest.raises(ConstraintViolation) as err:
                engine.execute_many(txn)
            assert engine.database() == before
        finally:
            engine.close()
        return str(err.value)

    def test_first_touched_shard_wins_in_one_bucket(
            self, luxury_strategy):
        """Both shards violate inside one (coalesced) bucket: the
        fan-out forwards shards in sorted order, so shard 0 is
        first-touched and its witness must surface — inline and
        pipelined alike, whichever worker replies first."""
        txn = [('luxuryitems', [Insert((150, 'cheap_hi', 10))]),
               ('luxuryitems', [Insert((50, 'cheap_lo', 20))])]
        witnesses = {self._witness(luxury_strategy, execution, txn)
                     for execution in ('threads', 'processes')}
        assert len(witnesses) == 1
        assert 'cheap_lo' in witnesses.pop()   # shard 0 sorts first

    def test_first_touched_shard_wins_across_buckets(
            self, luxury_strategy):
        """Separated buckets (no coalescing): shard 1's working is
        created first, so its violation wins over shard 0's — the
        serial first-staged drain order, preserved by the pipelined
        prepare drain."""
        txn = [('luxuryitems', [Insert((150, 'cheap_hi', 10))]),
               ('items', [Insert((160, 'plain', 50))]),
               ('luxuryitems', [Insert((50, 'cheap_lo', 20))])]
        witnesses = {self._witness(luxury_strategy, execution, txn)
                     for execution in ('threads', 'processes')}
        assert len(witnesses) == 1
        assert 'cheap_hi' in witnesses.pop()   # shard 1 touched first


class TestMidFlightAbort:

    def test_abort_waits_for_inflight_prepare_and_rolls_back(
            self, luxury_strategy):
        """Shard 0's prepare is held at the gate, then shard 1's
        prepare fails: the coordinator must raise shard 1's violation
        once shard 0 is released, and leave both shards untouched."""
        gated = GateBackend(luxury_strategy.sources)
        engine = build_engine(luxury_strategy,
                              backends=[gated, 'memory'])
        before = engine.database()
        before_view = engine.rows('luxuryitems')
        gated.armed = True
        failed = {}

        def transaction():
            try:
                engine.execute_many([
                    ('luxuryitems', [Insert((9, 'valid', 6000))]),
                    ('luxuryitems', [Insert((109, 'cheap', 5))]),
                ])
            except ConstraintViolation as err:
                failed['error'] = err

        runner = threading.Thread(target=transaction)
        runner.start()
        # Shard 0 really is mid-prepare when we let the abort happen.
        assert gated.entered.wait(WAIT)
        gated.release.set()
        runner.join(WAIT)
        assert not runner.is_alive()
        gated.armed = False
        assert 'error' in failed
        assert engine.database() == before
        assert engine.rows('luxuryitems') == before_view
        for shard in engine.shard_rows('items'):
            assert not shard & {(9, 'valid', 6000), (109, 'cheap', 5)}
        engine.close()


class TestConcurrentReads:

    def test_get_during_inflight_prepare_sees_pre_state(
            self, luxury_strategy):
        """A reader during another transaction's prepare phase is not
        blocked and sees pre-transaction state; after commit it sees
        the update."""
        gated = GateBackend(luxury_strategy.sources)
        engine = build_engine(luxury_strategy,
                              backends=[gated, 'memory'])
        before_view = engine.rows('luxuryitems')
        gated.armed = True
        runner = threading.Thread(
            target=engine.execute_many,
            args=([('luxuryitems', [Insert((10, 'crown', 9999))])],))
        runner.start()
        assert gated.entered.wait(WAIT)
        # The transaction is mid-prepare on shard 0 right now.
        assert engine.rows('luxuryitems') == before_view
        assert engine.count('items') == len(BASE_ROWS)
        gated.release.set()
        runner.join(WAIT)
        assert not runner.is_alive()
        gated.armed = False
        assert engine.rows('luxuryitems') \
            == before_view | {(10, 'crown', 9999)}
        engine.close()


class TestTrueOverlap:

    def test_process_fanout_submits_before_draining(
            self, luxury_strategy, monkeypatch):
        """Record every RPC submit and every drain of the coordinator:
        each touched shard's ``prepare_commit``, ``apply_prepared`` and
        ``rows`` request must be submitted before the first of those
        replies is awaited — so both workers hold a request at once.
        This is the proof the fan-out overlaps the workers."""
        engine = build_engine(luxury_strategy, execution='processes')
        events: list = []
        submit, drain = _RpcChannel.submit, _RpcChannel.drain

        def recording_submit(channel, method, *args):
            token = submit(channel, method, *args)
            events.append(('submit', channel.shard, token, method))
            return token

        def recording_drain(channel, token):
            events.append(('drain', channel.shard, token, None))
            return drain(channel, token)

        monkeypatch.setattr(_RpcChannel, 'submit', recording_submit)
        monkeypatch.setattr(_RpcChannel, 'drain', recording_drain)
        try:
            engine.execute_many([
                ('luxuryitems', [Insert((11, 'sceptre', 5000))]),
                ('luxuryitems', [Insert((111, 'globe', 5000))]),
            ])
            assert {(11, 'sceptre', 5000), (111, 'globe', 5000)} \
                <= engine.rows('luxuryitems')
        finally:
            monkeypatch.undo()
            engine.close()
        method_of = {(shard, token): method
                     for kind, shard, token, method in events
                     if kind == 'submit'}
        for method in ('prepare_commit', 'apply_prepared', 'rows'):
            submits = [(at, shard)
                       for at, (kind, shard, token, name)
                       in enumerate(events)
                       if kind == 'submit' and name == method]
            drains = [at for at, (kind, shard, token, _)
                      in enumerate(events)
                      if kind == 'drain'
                      and method_of[shard, token] == method]
            assert {shard for _, shard in submits} == {0, 1}, method
            assert max(at for at, _ in submits) < min(drains), method

    def test_stress_concurrent_readers_and_transactions(
            self, luxury_strategy):
        """Transactions against process shards while reader threads
        hammer scatter-gather ``rows``: no exceptions, and the final
        state equals the serial (thread-shard) reference."""
        parallel = build_engine(luxury_strategy, execution='processes')
        serial = build_engine(luxury_strategy)
        stop = threading.Event()
        errors: list = []

        def reader():
            while not stop.is_set():
                try:
                    rows = parallel.rows('luxuryitems')
                    assert isinstance(rows, frozenset)
                    parallel.count('items')
                except Exception as exc:      # pragma: no cover
                    errors.append(exc)
                    return

        readers = [threading.Thread(target=reader) for _ in range(3)]
        for thread in readers:
            thread.start()
        try:
            for n in range(30):
                txn = [('luxuryitems',
                        [Insert((n + 10, f'a{n}', 2000 + n)),
                         Insert((n + 210, f'b{n}', 3000 + n))])]
                parallel.execute_many(txn)
                serial.execute_many(txn)
        finally:
            stop.set()
            for thread in readers:
                thread.join(WAIT)
        try:
            assert not errors
            assert parallel.database() == serial.database()
            assert parallel.rows('luxuryitems') \
                == serial.rows('luxuryitems')
        finally:
            parallel.close()
            serial.close()


class TestSQLiteThreadAffinity:

    def test_sqlite_shard_from_worker_thread(self, luxury_strategy):
        """SQLite shards built on this thread serve a transaction run
        on another one: each backend's connection is opened with
        ``check_same_thread=False`` (SQLite's cross-thread
        ProgrammingError is the regression)."""
        engine = build_engine(luxury_strategy,
                              backends=['sqlite', 'sqlite'])
        worker = threading.Thread(target=engine.execute_many, args=([
            ('luxuryitems', [Insert((12, 'fan', 4000))]),
            ('luxuryitems', [Insert((112, 'lamp', 4500))]),
        ],))
        worker.start()
        worker.join(WAIT)
        assert {(12, 'fan', 4000), (112, 'lamp', 4500)} \
            <= engine.rows('luxuryitems')
        engine.close()

    def test_shared_connection_under_stress(self, luxury_strategy):
        """One writer and four readers share a SQLite engine's single
        connection with a tiny switch interval: every transaction
        inserts a pair of rows through the view (TEMP staging on the
        shared connection), so a read that saw a torn write, or a
        statement interleaved into another thread's, shows an odd
        count or raises."""
        import sys
        engine = Engine(luxury_strategy.sources, backend='sqlite')
        engine.load('items', BASE_ROWS)
        engine.define_view(luxury_strategy, validate_first=False)
        stop = threading.Event()
        errors: list = []

        def reader():
            while not stop.is_set():
                try:
                    for name in ('items', 'luxuryitems'):
                        assert len(engine.rows(name)) % 2 == 0, name
                except Exception as exc:      # pragma: no cover
                    errors.append(exc)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        readers = [threading.Thread(target=reader) for _ in range(4)]
        try:
            for thread in readers:
                thread.start()
            for n in range(40):
                engine.execute_many([('luxuryitems', [
                    Insert((1000 + 2 * n, f'p{n}', 3000)),
                    Insert((1001 + 2 * n, f'q{n}', 3000))])])
        finally:
            stop.set()
            for thread in readers:
                thread.join(WAIT)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert not errors
        assert len(engine.rows('luxuryitems')) == len(BASE_ROWS) + 80
        engine.close()

    def test_engine_usable_from_foreign_thread(self):
        """A plain SQLite-backed Engine crosses threads freely, and
        after close() every use fails with SchemaError."""
        from repro.relational.schema import DatabaseSchema
        schema = DatabaseSchema.build(t={'a': 'int', 'b': 'string'})
        engine = Engine(schema, backend='sqlite')
        engine.load('t', {(1, 'x')})
        with ThreadPoolExecutor(2) as pool:
            pool.submit(engine.insert, 't', (2, 'y')).result()
            seen = pool.submit(engine.rows, 't').result()
        assert seen == {(1, 'x'), (2, 'y')}
        backend = engine.backend
        engine.close()
        engine.close()                    # idempotent
        with pytest.raises(SchemaError):
            backend.rows('t')
        with ThreadPoolExecutor(1) as pool:
            with pytest.raises(SchemaError):
                pool.submit(backend.count, 't').result()


class TestPlannerLocking:

    def test_concurrent_compiles_share_one_plan(self):
        from repro.datalog.parser import parse_program
        from repro.datalog.plan import compile_program
        program = parse_program('v(X) :- r(X), not s(X).')
        plans = []
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(compile_program, program)
                       for _ in range(16)]
            plans = [f.result() for f in futures]
        assert all(plan is plans[0] for plan in plans)

    def test_concurrent_replans_do_not_interleave(self, luxury_strategy):
        """Hammer _maybe_replan for one entry from several threads
        while stats drift: the replans counter must move coherently
        and the entry must stay internally consistent."""
        engine = Engine(luxury_strategy.sources, backend='memory')
        engine.load('items', BASE_ROWS)
        engine.define_view(luxury_strategy, validate_first=False)
        entry = engine.view('luxuryitems')
        engine.load('items', [(i, f'x{i}', 2000 + i)
                              for i in range(500)])

        def hammer():
            for _ in range(50):
                engine._maybe_replan(entry)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(WAIT)
        assert entry.replans >= 1
        assert entry.incremental_plan is not None
        assert entry.stats_seed['items'] == 500
        engine.close()
