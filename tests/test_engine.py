"""RDBMS engine tests: DML pipeline, constraints, transactions, caching,
and incremental-vs-full equivalence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategy import UpdateStrategy
from repro.core.validation import validate
from repro.errors import (ConstraintViolation, SchemaError,
                          ValidationError)
from repro.fol.solver import SolverConfig
from repro.rdbms.engine import Engine
from repro.relational.schema import DatabaseSchema

FAST = SolverConfig(random_trials=40)


def union_engine(union_strategy, incremental=True):
    engine = Engine(union_strategy.sources)
    engine.load('r1', [(1,)])
    engine.load('r2', [(2,), (4,)])
    engine.define_view(union_strategy, validate_first=False,
                       use_incremental=incremental)
    return engine


class TestBasics:

    def test_base_table_dml(self, union_strategy):
        engine = Engine(union_strategy.sources)
        engine.insert('r1', (5,))
        assert engine.rows('r1') == {(5,)}
        engine.delete('r1', where={'a': 5})
        assert engine.rows('r1') == set()

    def test_view_materialization(self, union_strategy):
        engine = union_engine(union_strategy)
        assert engine.rows('v') == {(1,), (2,), (4,)}

    def test_view_insert_routes_to_r1(self, union_strategy):
        engine = union_engine(union_strategy)
        engine.insert('v', (3,))
        assert (3,) in engine.rows('r1')
        assert engine.rows('v') == {(1,), (2,), (3,), (4,)}

    def test_view_delete_routes_to_sources(self, union_strategy):
        engine = union_engine(union_strategy)
        engine.delete('v', where={'a': 2})
        assert engine.rows('r2') == {(4,)}

    def test_view_update_statement(self, union_strategy):
        engine = union_engine(union_strategy)
        engine.update('v', {'a': 9}, where={'a': 4})
        assert engine.rows('v') == {(1,), (2,), (9,)}

    def test_unknown_relation(self, union_strategy):
        engine = union_engine(union_strategy)
        with pytest.raises(SchemaError):
            engine.insert('nope', (1,))

    def test_duplicate_view_name(self, union_strategy):
        engine = union_engine(union_strategy)
        with pytest.raises(SchemaError):
            engine.define_view(union_strategy, validate_first=False)

    def test_load_validates(self, union_strategy):
        engine = Engine(union_strategy.sources)
        with pytest.raises(SchemaError):
            engine.load('r1', [('not-int',)])

    def test_invalid_strategy_rejected(self, union_sources):
        engine = Engine(union_sources)
        bad = UpdateStrategy.parse('v', union_sources, """
            +r1(X) :- v(X), r1(X).
            -r1(X) :- v(X), r1(X).
        """)
        with pytest.raises(ValidationError):
            engine.define_view(bad, report=validate(bad, config=FAST))


class TestConstraints:

    def _luxury_engine(self, luxury_strategy, incremental):
        engine = Engine(luxury_strategy.sources)
        engine.load('items', [(1, 'watch', 5000)])
        engine.define_view(luxury_strategy, validate_first=False,
                           use_incremental=incremental)
        return engine

    @pytest.mark.parametrize('incremental', [True, False])
    def test_violating_insert_rejected(self, luxury_strategy, incremental):
        engine = self._luxury_engine(luxury_strategy, incremental)
        with pytest.raises(ConstraintViolation):
            engine.insert('luxuryitems', (2, 'gum', 5))
        # Atomicity: nothing changed.
        assert engine.rows('items') == {(1, 'watch', 5000)}

    @pytest.mark.parametrize('incremental', [True, False])
    def test_valid_insert_accepted(self, luxury_strategy, incremental):
        engine = self._luxury_engine(luxury_strategy, incremental)
        engine.insert('luxuryitems', (2, 'yacht', 90000))
        assert (2, 'yacht', 90000) in engine.rows('items')


class TestTransactions:

    def test_net_noop_transaction(self, union_strategy):
        engine = union_engine(union_strategy)
        before = set(engine.rows('r1'))
        with engine.transaction() as txn:
            txn.insert('v', (9,))
            txn.delete('v', where={'a': 9})
        assert engine.rows('r1') == before

    def test_transaction_spans_relations(self, union_strategy):
        engine = union_engine(union_strategy)
        with engine.transaction() as txn:
            txn.insert('v', (7,))
            txn.insert('r2', (8,))
        assert (7,) in engine.rows('r1')
        assert (8,) in engine.rows('r2')
        assert engine.rows('v') >= {(7,), (8,)}

    def test_transaction_aborts_on_error(self, luxury_strategy):
        engine = Engine(luxury_strategy.sources)
        engine.load('items', [(1, 'watch', 5000)])
        engine.define_view(luxury_strategy, validate_first=False)
        with pytest.raises(ConstraintViolation):
            with engine.transaction() as txn:
                txn.insert('luxuryitems', (2, 'ring', 2000))
                txn.insert('luxuryitems', (3, 'gum', 1))  # violates
        assert engine.rows('items') == {(1, 'watch', 5000)}

    def test_exception_inside_block_skips_execution(self, union_strategy):
        engine = union_engine(union_strategy)
        with pytest.raises(RuntimeError):
            with engine.transaction() as txn:
                txn.insert('v', (9,))
                raise RuntimeError('user error')
        assert (9,) not in engine.rows('v')


class TestExecuteManyBatches:
    """Multi-target transactions: interleaved view+base writes, the
    keep-cache origin logic of ``Engine._commit``, and mid-batch
    rollback."""

    def test_interleaved_view_and_base_batches(self, union_strategy):
        from repro.rdbms.dml import Delete, Insert
        engine = union_engine(union_strategy)
        engine.rows('v')
        engine.execute_many([
            ('v', [Insert((7,))]),
            ('r2', [Insert((8,))]),
            ('v', [Insert((9,)), Delete({'a': 1})]),
        ])
        assert engine.rows('r1') == {(7,), (9,)}
        assert engine.rows('r2') == {(2,), (4,), (8,)}
        assert engine.rows('v') == {(2,), (4,), (7,), (8,), (9,)}

    def test_view_only_batch_keeps_cache(self, union_strategy):
        from repro.rdbms.dml import Insert
        engine = union_engine(union_strategy)
        engine.rows('v')
        assert engine.backend.has_cache('v')
        engine.execute_many([('v', [Insert((7,))])])
        # Every base write under v came from v's own pipeline: the
        # cache was maintained incrementally, not dropped.
        assert engine.backend.has_cache('v')
        assert engine.rows('v') == {(1,), (2,), (4,), (7,)}

    def test_foreign_base_write_maintains_cache(self, union_strategy):
        from repro.rdbms.dml import Insert
        engine = union_engine(union_strategy)
        engine.rows('v')
        engine.execute_many([
            ('v', [Insert((7,))]),
            ('r1', [Insert((8,))]),      # '<direct>' origin under v
        ])
        # A direct write under the view makes its own staged delta an
        # incomplete cache delta: ∂get maintains the cache where the
        # backend evaluates it; elsewhere the cache is dropped and
        # rematerialised on next read.
        assert engine.backend.has_cache('v') \
            == engine.backend.maintains_caches
        assert engine.rows('v') == {(1,), (2,), (4,), (7,), (8,)}

    def test_midbatch_constraint_violation_rolls_back(self,
                                                      luxury_strategy):
        from repro.rdbms.dml import Insert
        engine = Engine(luxury_strategy.sources)
        engine.load('items', [(1, 'watch', 5000)])
        engine.define_view(luxury_strategy, validate_first=False)
        engine.rows('luxuryitems')
        cache_before = set(engine.rows('luxuryitems'))
        with pytest.raises(ConstraintViolation):
            engine.execute_many([
                ('items', [Insert((2, 'clock', 3000))]),
                ('luxuryitems', [Insert((3, 'ring', 2000))]),
                ('luxuryitems', [Insert((4, 'gum', 1))]),   # violates
            ])
        # No partial state: neither the staged base write, the staged
        # view write, nor the cache changed.
        assert engine.rows('items') == {(1, 'watch', 5000)}
        assert engine.rows('luxuryitems') == cache_before

    def test_midbatch_schema_error_rolls_back(self, union_strategy):
        from repro.errors import SchemaError
        from repro.rdbms.dml import Insert
        engine = union_engine(union_strategy)
        with pytest.raises(SchemaError):
            engine.execute_many([
                ('r1', [Insert((7,))]),
                ('r2', [Insert(('not-int',))]),
            ])
        assert (7,) not in engine.rows('r1')
        assert engine.rows('r2') == {(2,), (4,)}

    def test_batch_with_net_empty_delta_is_noop(self, union_strategy):
        from repro.rdbms.dml import Delete, Insert
        engine = union_engine(union_strategy)
        before = engine.database()
        engine.execute_many([
            ('v', [Insert((9,)), Delete({'a': 9})]),
            ('r1', []),
        ])
        assert engine.database() == before


class TestCaching:

    def test_cache_updated_incrementally(self, union_strategy):
        engine = union_engine(union_strategy)
        engine.rows('v')
        engine.insert('v', (3,))
        assert engine.rows('v') == {(1,), (2,), (3,), (4,)}

    def test_cache_invalidated_by_base_write(self, union_strategy):
        engine = union_engine(union_strategy)
        assert engine.rows('v') == {(1,), (2,), (4,)}
        engine.insert('r1', (10,))
        assert (10,) in engine.rows('v')

    def test_cache_consistent_with_recomputation(self, union_strategy):
        engine = union_engine(union_strategy)
        engine.insert('v', (3,))
        engine.delete('v', where={'a': 1})
        from repro.datalog.evaluator import evaluate
        recomputed = evaluate(union_strategy.expected_get,
                              engine.database())['v']
        assert engine.rows('v') == recomputed


class TestBatchedPipeline:
    """The delta-batched transaction pipeline: one plan run per view
    per transaction, byte-identical end states vs statement-at-a-time
    translation, and statement-order visibility inside a transaction."""

    BACKENDS = ('memory', 'sqlite')

    def _engines(self, strategy, backend):
        """(batched, statement-at-a-time) twin engines, same backend."""
        engines = []
        for batch in (True, False):
            engine = Engine(strategy.sources, backend=backend,
                            batch_deltas=batch)
            engine.load('r1', [(1,)])
            engine.load('r2', [(2,), (4,)])
            engine.define_view(strategy, validate_first=False)
            engine.rows('v')
            engines.append(engine)
        return engines

    @pytest.mark.parametrize('backend', BACKENDS)
    def test_batched_matches_statement_at_a_time(self, union_strategy,
                                                 backend):
        from repro.rdbms.dml import Delete, Insert, Update
        batches = [
            ('v', [Insert((7,))]),
            ('v', [Insert((9,))]),
            ('r2', [Insert((8,))]),
            ('v', [Delete({'a': 1}), Insert((12,))]),
            ('v', [Update({'a': 109}, {'a': 9})]),
            ('r1', [Insert((30,))]),
            ('v', [Delete({'a': 8})]),
        ]
        batched, unbatched = self._engines(union_strategy, backend)
        batched.execute_many(batches)
        unbatched.execute_many(batches)
        assert batched.database() == unbatched.database()
        assert batched.backend.has_cache('v') \
            == unbatched.backend.has_cache('v')
        assert batched.rows('v') == unbatched.rows('v')

    @pytest.mark.parametrize('backend', BACKENDS)
    def test_one_plan_run_per_transaction(self, union_strategy, backend):
        from repro.rdbms.dml import Insert
        for batch, expected in ((True, 1), (False, 50)):
            engine = Engine(union_strategy.sources, backend=backend,
                            batch_deltas=batch)
            engine.load('r1', [(1,)])
            engine.load('r2', [(2,)])
            engine.define_view(union_strategy, validate_first=False)
            engine.rows('v')
            calls = []
            original = engine.backend.evaluate_incremental_batch

            def counted(*args, _orig=original, **kwargs):
                calls.append(1)
                return _orig(*args, **kwargs)

            engine.backend.evaluate_incremental_batch = counted
            engine.execute_many([('v', [Insert((100 + i,))])
                                 for i in range(50)])
            assert len(calls) == expected, (batch, len(calls))
            assert engine.rows('v') >= {(100 + i,) for i in range(50)}

    @pytest.mark.parametrize('backend', BACKENDS)
    def test_statement_order_visibility(self, union_strategy, backend):
        """A later bucket's WHERE sees earlier staged view writes: the
        insert+delete pair nets out even across an intervening bucket."""
        from repro.rdbms.dml import Delete, Insert
        for engine in self._engines(union_strategy, backend):
            engine.execute_many([
                ('v', [Insert((9,))]),
                ('r2', [Insert((8,))]),
                ('v', [Delete({'a': 9})]),
            ])
            assert engine.rows('r1') == {(1,)}
            assert (8,) in engine.rows('r2')
            assert (9,) not in engine.rows('v')

    @pytest.mark.parametrize('backend', BACKENDS)
    def test_base_read_forces_pending_flush(self, union_strategy,
                                            backend):
        """A base bucket reading a table a pending view delta can still
        write forces that translation first — the delete must see the
        row the view insert routed into r1."""
        from repro.rdbms.dml import Delete, Insert
        for engine in self._engines(union_strategy, backend):
            engine.execute_many([
                ('v', [Insert((7,))]),
                ('r1', [Delete(None)]),
            ])
            assert engine.rows('r1') == set()

    @pytest.mark.parametrize('backend', BACKENDS)
    def test_source_write_forces_pending_flush(self, backend):
        """Anti-dependency: a later bucket writing a relation a pending
        view's plan *reads* (but never writes) must not be visible to
        the deferred plan run — the pending translation flushes
        first, as statement-at-a-time would."""
        from repro.rdbms.dml import Delete, Insert
        from repro.relational.schema import DatabaseSchema
        sources = DatabaseSchema.build(r1={'a': 'int'},
                                       allowed={'a': 'int'})
        strategy = UpdateStrategy.parse('v', sources, """
            +r1(X) :- v(X), allowed(X), not r1(X).
            -r1(X) :- r1(X), not v(X).
        """, expected_get='v(X) :- r1(X).')
        results = []
        for batch in (True, False):
            engine = Engine(sources, backend=backend,
                            batch_deltas=batch)
            engine.load('r1', [(1,)])
            engine.load('allowed', [(1,), (7,)])
            engine.define_view(strategy, validate_first=False)
            engine.rows('v')
            engine.execute_many([
                ('v', [Insert((7,))]),
                ('allowed', [Delete({'a': 7})]),
            ])
            results.append(engine.database())
        batched, unbatched = results
        assert batched == unbatched
        assert batched['r1'] == {(1,), (7,)}

    @pytest.mark.parametrize('backend', BACKENDS)
    def test_cascades_translate_depth_first(self, backend):
        """A cascade staged by one flush must land before a
        later-queued view's plan runs: w reads base b, which only v's
        cascade through u writes — batched and statement-at-a-time
        agree."""
        from repro.rdbms.dml import Insert
        from repro.relational.schema import DatabaseSchema
        base = DatabaseSchema.build(b={'a': 'int'}, c={'a': 'int'})
        layer = DatabaseSchema.build(u={'a': 'int'})
        u = UpdateStrategy.parse('u', base, """
            +b(X) :- u(X), not b(X).
            -b(X) :- b(X), not u(X).
        """, expected_get='u(X) :- b(X).')
        v = UpdateStrategy.parse('v', layer, """
            +u(X) :- v(X), not u(X).
            -u(X) :- u(X), not v(X).
        """, expected_get='v(X) :- u(X).')
        w = UpdateStrategy.parse('w', base, """
            +c(X) :- w(X), b(X), not c(X).
            -c(X) :- c(X), not w(X).
        """, expected_get='w(X) :- c(X).')
        results = []
        for batch in (True, False):
            engine = Engine(base, backend=backend, batch_deltas=batch)
            engine.load('b', [(1,)])
            engine.load('c', [(1,)])
            engine.define_view(u, validate_first=False)
            engine.define_view(v, validate_first=False)
            engine.define_view(w, validate_first=False)
            for view in ('u', 'v', 'w'):
                engine.rows(view)
            engine.execute_many([
                ('v', [Insert((7,))]),
                ('w', [Insert((7,))]),
            ])
            results.append(engine.database())
        batched, unbatched = results
        assert batched == unbatched
        assert batched['c'] == {(1,), (7,)}

    def test_deferred_constraint_semantics(self, luxury_strategy):
        """Batched mode checks ⊥-constraints against the transaction's
        net effect (deferred), statement-at-a-time against every
        intermediate state (immediate): a transient violation that the
        same transaction undoes commits in the former, raises in the
        latter."""
        from repro.rdbms.dml import Delete, Insert
        transient = [
            ('luxuryitems', [Insert((2, 'gum', 5))]),       # violates
            ('luxuryitems', [Delete({'iid': 2})]),          # ... undone
        ]
        for batch, outcome in ((True, 'commits'), (False, 'raises')):
            engine = Engine(luxury_strategy.sources, batch_deltas=batch)
            engine.load('items', [(1, 'watch', 5000)])
            engine.define_view(luxury_strategy, validate_first=False)
            if outcome == 'commits':
                engine.execute_many(transient)
            else:
                with pytest.raises(ConstraintViolation):
                    engine.execute_many(transient)
            assert engine.rows('items') == {(1, 'watch', 5000)}

    @pytest.mark.parametrize('backend', BACKENDS)
    def test_layered_views_batched_matches(self, ced_strategy, backend):
        """Cascading through a view-over-view layer produces identical
        end states batched and statement-at-a-time, including a bucket
        that reads the lower view mid-transaction."""
        from repro.rdbms.dml import Delete, Insert
        from repro.relational.schema import DatabaseSchema
        upper_sources = DatabaseSchema.build(
            ced=['emp_name', 'dept_name'])
        upper = UpdateStrategy.parse('cs_only', upper_sources, """
            +ced(E, D) :- cs_only(E), not ced(E, 'cs'), D = 'cs'.
            -ced(E, D) :- ced(E, D), D = 'cs', not cs_only(E).
        """, expected_get="cs_only(E) :- ced(E, 'cs').")
        engines = []
        for batch in (True, False):
            engine = Engine(ced_strategy.sources, backend=backend,
                            batch_deltas=batch)
            engine.load('ed', [('bob', 'cs'), ('carol', 'math'),
                               ('dan', 'cs')])
            engine.load('eed', [('dan', 'cs')])
            engine.define_view(ced_strategy, validate_first=False)
            engine.define_view(upper, validate_first=False)
            engine.rows('ced'), engine.rows('cs_only')
            engine.execute_many([
                ('cs_only', [Insert(('erin',))]),
                ('ced', [Delete({'emp_name': 'carol'})]),
                ('cs_only', [Delete({'emp_name': 'bob'})]),
            ])
            engines.append(engine)
        batched, unbatched = engines
        assert batched.database() == unbatched.database()
        assert batched.rows('ced') == unbatched.rows('ced')
        assert batched.rows('cs_only') == unbatched.rows('cs_only')
        assert ('erin', 'cs') in batched.rows('ced')


class TestIncrementalMatchesFull:

    @given(st.lists(st.tuples(st.sampled_from(['ins', 'del']),
                              st.integers(0, 8)), max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_random_statement_sequences(self, ops):
        from tests.conftest import UNION_PUTDELTA, UNION_GET
        sources = DatabaseSchema.build(r1={'a': 'int'}, r2={'a': 'int'})
        strategy = UpdateStrategy.parse('v', sources, UNION_PUTDELTA,
                                        expected_get=UNION_GET)
        engines = []
        for incremental in (True, False):
            engine = Engine(sources)
            engine.load('r1', [(1,), (5,)])
            engine.load('r2', [(2,), (4,)])
            engine.define_view(strategy, validate_first=False,
                               use_incremental=incremental)
            engines.append(engine)
        for op, value in ops:
            for engine in engines:
                if op == 'ins':
                    engine.insert('v', (value,))
                else:
                    engine.delete('v', where={'a': value})
        fast, slow = engines
        assert fast.rows('r1') == slow.rows('r1')
        assert fast.rows('r2') == slow.rows('r2')
        assert fast.rows('v') == slow.rows('v')


class TestReplanOnDrift:
    """Plan-level statistics follow-up: a view's compiled plans are
    re-seeded when a source relation's cardinality drifts >10× from
    the stats the plans were compiled with (memory backend only — the
    SQLite backend delegates join ordering to SQLite's planner)."""

    JOIN_SOURCES = dict(small={'a': 'int'}, big={'a': 'int'})
    JOIN_PUTDELTA = """
        +small(X) :- j(X), not small(X).
        -small(X) :- small(X), not j(X).
    """
    JOIN_GET = 'j(X) :- small(X), big(X).'

    def _join_engine(self, backend='memory'):
        from repro.relational.schema import DatabaseSchema
        sources = DatabaseSchema.build(**self.JOIN_SOURCES)
        strategy = UpdateStrategy.parse('j', sources, self.JOIN_PUTDELTA,
                                        expected_get=self.JOIN_GET)
        engine = Engine(sources, backend=backend)
        engine.load('small', [(i,) for i in range(3)])
        engine.load('big', [(i,) for i in range(200)])
        entry = engine.define_view(strategy, validate_first=False)
        return engine, entry

    @staticmethod
    def _first_scan(entry):
        from repro.datalog.plan import ScanStep
        step = entry.get_plan.rules_for('j')[0].steps[0]
        assert isinstance(step, ScanStep)
        return step.pred

    def test_replan_picks_up_new_join_order(self):
        engine, entry = self._join_engine()
        assert entry.stats_seed == {'small': 3, 'big': 200}
        assert self._first_scan(entry) == 'small'
        old_plan = entry.get_plan
        # Invert the cardinalities far beyond the 10x threshold; the
        # next materialisation re-seeds the plans.
        engine.load('small', [(i,) for i in range(500)])
        engine.load('big', [(i,) for i in range(3)])
        assert engine.rows('j') == {(0,), (1,), (2,)}
        assert entry.replans == 1
        assert entry.get_plan is not old_plan
        assert self._first_scan(entry) == 'big'
        assert entry.stats_seed['small'] == 500

    def test_view_update_path_replans_and_stays_correct(self):
        engine, entry = self._join_engine()
        engine.load('big', [(i,) for i in range(3)])
        engine.delete('j', where={'a': 1})
        assert entry.replans == 1
        assert engine.rows('small') == {(0,), (2,)}
        assert engine.rows('j') == {(0,), (2,)}

    def test_no_replan_within_threshold(self):
        engine, entry = self._join_engine()
        engine.load('big', [(i,) for i in range(30)])   # < 10x drift
        engine.rows('j')
        assert entry.replans == 0
        assert entry.stats_seed['big'] == 200

    def test_sqlite_backend_never_replans(self):
        engine, entry = self._join_engine(backend='sqlite')
        engine.load('small', [(i,) for i in range(500)])
        engine.load('big', [(i,) for i in range(3)])
        engine.rows('j')
        engine.delete('j', where={'a': 1})
        assert entry.replans == 0

    def test_replan_is_idempotent_until_next_drift(self):
        engine, entry = self._join_engine()
        engine.load('big', [(i,) for i in range(3)])
        engine.rows('j')
        assert entry.replans == 1
        engine.insert('j', (0,))          # no-op effective delta
        engine.delete('j', where={'a': 0})
        assert entry.replans == 1         # stats re-seeded, no churn


class TestDropView:

    def test_drop_view_frees_the_name(self, union_strategy):
        engine = union_engine(union_strategy)
        engine.rows('v')
        engine.drop_view('v')
        assert not engine.is_view('v')
        assert not engine.backend.has_cache('v')
        engine.define_view(union_strategy, validate_first=False)
        assert engine.rows('v') == {(1,), (2,), (4,)}

    def test_drop_view_is_noop_for_unknown(self, union_strategy):
        engine = union_engine(union_strategy)
        engine.drop_view('nope')        # no error

    def test_drop_view_refuses_when_sourced_by_another_view(
            self, union_strategy):
        """Dropping a view another view reads would leave dangling
        catalog references."""
        engine = union_engine(union_strategy)
        from repro.core.strategy import UpdateStrategy
        from repro.relational.schema import RelationSchema
        layered = UpdateStrategy.parse(
            'w', union_strategy.sources.extend(
                RelationSchema('v', ('a',), ('int',))), """
            +v(X) :- w(X), not v(X).
            -v(X) :- v(X), not w(X).
        """, expected_get='w(X) :- v(X).')
        engine.define_view(layered, validate_first=False)
        with pytest.raises(SchemaError, match='reads or updates'):
            engine.drop_view('v')
        engine.drop_view('w')           # leaf view drops fine
        engine.drop_view('v')           # now unreferenced
