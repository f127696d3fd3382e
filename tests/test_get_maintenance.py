"""View maintenance through base writes: each cached view's ``∂get``
(``repro.core.incremental_get``) turns a transaction's base deltas into
the cache delta, so the cache survives the write instead of being
dropped and re-materialised.

Every shape test asserts the maintained cache equals a fresh ``get``
over the committed base tables and that no cache was dropped — the
cache object a reader held before the write is the one it reads after
(a held ``engine.rows(view)`` result is live, like a base table's)."""

from __future__ import annotations

import pytest

from repro.benchsuite.catalog import entry_by_name
from repro.core.incremental_get import incrementalize_get
from repro.core.strategy import UpdateStrategy
from repro.datalog.evaluator import evaluate
from repro.datalog.parser import parse_program
from repro.errors import TransformationError
from repro.rdbms.dml import Delete, Insert, Update
from repro.rdbms.engine import Engine
from repro.rdbms.peernet import PeerNetwork
from repro.rdbms.replica import ReplicaEngine
from repro.relational.schema import DatabaseSchema


def catalog_engine(view: str, tables: dict, **kwargs) -> Engine:
    strategy = entry_by_name(view).strategy()
    engine = Engine(strategy.sources, backend='memory', **kwargs)
    for name, rows in tables.items():
        engine.load(name, rows)
    engine.define_view(strategy, validate_first=False)
    return engine


def fresh_get(engine: Engine, view: str) -> frozenset:
    return evaluate(engine.view(view).get_program, engine.database(),
                    goals=(view,))[view]


def counters(engine: Engine) -> dict:
    return engine.metrics.snapshot()['counters']


def assert_maintained(engine: Engine, view: str, held) -> None:
    assert engine.backend.has_cache(view)
    assert engine.rows(view) is held          # same cache, never dropped
    assert frozenset(held) == fresh_get(engine, view)
    assert counters(engine).get('cache.dropped', 0) == 0
    assert counters(engine)['cache.maintained'] > 0


class TestShapes:

    def test_selection(self):
        engine = catalog_engine('luxuryitems', {'items': [
            (1, 'a', 500), (2, 'b', 1500), (3, 'c', 2500)]})
        held = engine.rows('luxuryitems')
        engine.execute_many([('items', [
            Insert((4, 'd', 3000)), Insert((5, 'e', 10)),
            Delete({'iid': 2}), Update({'price': 900}, {'iid': 3})])])
        assert_maintained(engine, 'luxuryitems', held)
        assert held == {(4, 'd', 3000)}

    def test_projection_keeps_a_row_another_base_row_projects_to(self):
        engine = catalog_engine('officeinfo', {'works': [
            ('ann', 'hq', 'p1', 'e1'), ('ann', 'hq', 'p2', 'e2'),
            ('bob', 'lab', 'p3', 'e3')]})
        held = engine.rows('officeinfo')
        engine.execute('works', [Delete({'phone': 'p1'})])
        assert_maintained(engine, 'officeinfo', held)
        assert ('ann', 'hq') in held           # p2 still projects to it
        engine.execute('works', [Delete({'phone': 'p2'}),
                                 Insert(('bob', 'lab', 'p4', 'e4'))])
        assert_maintained(engine, 'officeinfo', held)
        assert held == {('bob', 'lab')}

    def test_join_loses_rows_with_the_last_flow_row(self):
        engine = catalog_engine('outstanding_task', {
            'tasks': [(1, 't1', 'o', '2020-01-01', 1, 'open'),
                      (2, 't2', 'o', '2020-01-01', 2, 'open'),
                      (3, 't3', 'o', '2020-01-01', 3, 'done')],
            'flow': [(1, 'triage'), (1, 'review'), (2, 'qa'),
                     (3, 'qa')]})
        held = engine.rows('outstanding_task')
        assert {row[0] for row in held} == {1, 2}
        engine.execute('flow', [Delete({'tid': 1, 'step': 'triage'}),
                                Delete({'tid': 2})])
        assert_maintained(engine, 'outstanding_task', held)
        assert {row[0] for row in held} == {1}  # tid 2 lost its last
        engine.execute_many([
            ('flow', [Insert((2, 'again'))]),
            ('tasks', [Update({'status': 'open'}, {'tid': 3})])])
        assert_maintained(engine, 'outstanding_task', held)
        assert {row[0] for row in held} == {1, 2, 3}
        # A task and its first flow row in one transaction: each delta
        # rule must see the other relation's insertion (post-state).
        engine.execute_many([
            ('tasks', [Insert((4, 't4', 'o', '2020-01-01', 1, 'open'))]),
            ('flow', [Insert((4, 'new'))])])
        assert_maintained(engine, 'outstanding_task', held)
        assert {row[0] for row in held} == {1, 2, 3, 4}

    def test_tagged_union_with_the_same_row_in_both_branches(self):
        engine = catalog_engine('vw_brands', {
            'brands_domestic': [(1, 'x'), (2, 'y')],
            'brands_imported': [(1, 'x')]})
        held = engine.rows('vw_brands')
        engine.execute('brands_domestic', [Delete({'bid': 1})])
        assert_maintained(engine, 'vw_brands', held)
        assert held == {(1, 'x', 'imported'), (2, 'y', 'domestic')}

    def test_plain_union_keeps_a_row_the_other_branch_produces(
            self, union_strategy):
        engine = Engine(union_strategy.sources, backend='memory')
        engine.load('r1', [(1,), (2,)])
        engine.load('r2', [(2,)])
        engine.define_view(union_strategy, validate_first=False)
        held = engine.rows('v')
        engine.execute('r1', [Delete({'a': 2})])
        assert_maintained(engine, 'v', held)
        assert held == {(1,), (2,)}
        engine.execute('r2', [Delete({'a': 2})])
        assert_maintained(engine, 'v', held)
        assert held == {(1,)}

    def test_view_write_and_foreign_base_write_in_one_transaction(self):
        engine = catalog_engine('luxuryitems', {'items': [
            (1, 'a', 500), (2, 'b', 1500)]})
        held = engine.rows('luxuryitems')
        engine.execute_many([
            ('luxuryitems', [Insert((10, 'v', 5000))]),
            ('items', [Insert((11, 'w', 6000)), Delete({'iid': 2})]),
            ('luxuryitems', [Update({'price': 7000}, {'iid': 10})]),
        ])
        assert_maintained(engine, 'luxuryitems', held)
        assert held == {(10, 'v', 7000), (11, 'w', 6000)}

    def test_layered_view_falls_back_to_rematerialising(self, ced_strategy):
        cs = UpdateStrategy.parse(
            'cs', DatabaseSchema.build(ced=['emp_name', 'dept_name']),
            """
            +ced(E, D) :- cs(E), not ced(E, 'cs'), D = 'cs'.
            -ced(E, D) :- ced(E, D), D = 'cs', not cs(E).
            """, expected_get="cs(E) :- ced(E, 'cs').")
        engine = Engine(ced_strategy.sources, backend='memory')
        engine.load('ed', [('ann', 'cs'), ('bob', 'cs')])
        engine.load('eed', [])
        engine.define_view(ced_strategy, validate_first=False)
        engine.define_view(cs, validate_first=False)
        assert engine.view('ced').get_delta_plan is not None
        assert engine.view('cs').get_delta_plan is None
        assert engine.rows('cs') == {('ann',), ('bob',)}
        held_ced = engine.rows('ced')
        engine.execute('eed', [Insert(('bob', 'cs'))])
        assert engine.rows('ced') is held_ced     # base-level: kept
        assert not engine.backend.has_cache('cs')  # layered: dropped
        assert counters(engine)['cache.dropped'] == 1
        assert engine.rows('cs') == {('ann',)}

    def test_sqlite_keeps_dropping(self):
        strategy = entry_by_name('luxuryitems').strategy()
        engine = Engine(strategy.sources, backend='sqlite')
        try:
            engine.load('items', [(1, 'a', 1500)])
            engine.define_view(strategy, validate_first=False)
            engine.rows('luxuryitems')
            engine.execute('items', [Insert((2, 'b', 2500))])
            assert not engine.backend.has_cache('luxuryitems')
            assert engine.view('luxuryitems').get_delta_plan is None
            assert frozenset(engine.rows('luxuryitems')) \
                == {(1, 'a', 1500), (2, 'b', 2500)}
        finally:
            engine.close()


class TestDerivation:

    def test_negated_auxiliary_predicate_is_rejected(self):
        program = parse_program("""
            v(X) :- r(X), not busy(X).
            busy(X) :- s(X, _).
        """)
        with pytest.raises(TransformationError):
            incrementalize_get(program, 'v')

    def test_negation_delta_literal_does_not_bind_the_wildcard(self):
        program = parse_program('v(X) :- r(X), not s(X, _).')
        rules = [str(rule) for rule in incrementalize_get(program, 'v')]
        # The added -s/+s literal gets its own anonymous variable: the
        # negation keeps meaning "no s row at all for X".
        assert any('not s__new(X, _anon0), -s(X, _dg' in rule
                   for rule in rules), rules


class TestShipping:
    """The maintained delta rides the existing commit record: WAL
    recovery, replica catch-up and peer publication carry it with no
    format change."""

    def test_wal_record_and_replica_carry_the_maintained_delta(
            self, tmp_path):
        engine = catalog_engine('luxuryitems',
                                {'items': [(1, 'a', 1500)]},
                                wal=tmp_path / 'p.wal', wal_sync=False)
        replica = ReplicaEngine(engine.schema, engine.wal)
        try:
            engine.rows('luxuryitems')
            replica.catch_up()
            replica_held = replica.rows('luxuryitems')
            engine.execute('items', [Insert((2, 'b', 2500)),
                                     Delete({'iid': 1})])
            kind, data = [(r.kind, r.data)
                          for r in engine.wal.records()][-1]
            batch, _changed, keep = data[:3]
            assert kind == 'commit' and 'luxuryitems' in keep
            assert ('luxuryitems', True) in {(name, is_cache)
                                             for name, _, is_cache
                                             in batch}
            replica.catch_up()
            assert replica.rows('luxuryitems') is replica_held
            assert replica_held == {(2, 'b', 2500)}
            assert counters(replica.engine).get('cache.dropped', 0) == 0
        finally:
            replica.close()
            engine.close()
        recovered = Engine(engine.schema, backend='memory',
                           wal=tmp_path / 'p.wal', wal_sync=False)
        try:
            assert recovered.rows('luxuryitems') == {(2, 'b', 2500)}
        finally:
            recovered.close()

    def test_peer_publishes_the_maintained_delta(self, tmp_path):
        strategy = entry_by_name('officeinfo').strategy()

        def factory(directory):
            engine = Engine(strategy.sources, backend='memory',
                            wal=directory / 'engine.wal', wal_sync=False)
            engine.define_view(strategy, validate_first=False,
                               exist_ok=True)
            return engine

        net = PeerNetwork()
        try:
            for name in ('a', 'b'):
                net.add_peer(name, factory, tmp_path / name,
                             shares=('officeinfo',))
            net.share('officeinfo', ('a', 'b'))
            sender = net.peers['a']
            rematerialised = []
            sender._publish_current = lambda *args, **kwargs: \
                rematerialised.append(args)
            sender.engine.execute('works', [
                Insert(('ann', 'hq', 'p', 'e'))])
            assert net.settle()
            assert rematerialised == []          # the ∂get fast path
            assert net.peers['b'].rows('officeinfo') \
                == {('ann', 'hq')}
            assert counters(sender.engine)['cache.maintained'] > 0
        finally:
            net.close()
