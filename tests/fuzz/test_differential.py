"""The differential oracle: every execution mode commits bit-identical
state, or raises the same error, on randomized workloads.

Configurations compared (see ``strategies.build_engines``): memory vs
SQLite storage, batched vs statement-at-a-time translation, sharded
(3 mixed-backend shards) vs single engine, process-per-shard workers
(``execution='processes'``) vs everything in-process, and a WAL-fed
read replica (reads served from delta shipping, never from plan
re-execution) vs direct execution.  After every transaction the
committed base tables, the materialised view caches, and the
raised-error behavior must agree across all of them, and every cache
still materialised — maintained by ∂get through the transaction's base
writes, never rebuilt — must equal a fresh ``get`` over its own
engine's base tables.  The harness reads the view between
transactions, so the next transaction's base writes always land on a
materialised cache.  At workload end
the replica's log is additionally replayed into a fresh engine (crash
recovery) which must land on the same state.

Profiles: CI runs the bounded smoke (``--hypothesis-profile=ci``);
``REPRO_FUZZ=long`` selects the deep profile locally (≥200 generated
transactions against the sharded engine).  A pinned seed corpus runs
under every profile via ``@example``.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip('hypothesis')
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from repro.errors import ReproError                                # noqa: E402
from repro.rdbms.engine import Engine                              # noqa: E402

from .strategies import (FUZZ_VIEWS, Workload, _strategy,          # noqa: E402
                         assert_caches_fresh, build_engines,
                         random_workload)

#: Pinned reproductions that stay in every profile (the seed corpus).
#: 23709 once produced a flow-delete → transiently-violating-insert →
#: repair sequence the generator must no longer emit.
SEED_CORPUS = [('luxuryitems', 7), ('luxuryitems', 1031),
               ('officeinfo', 3), ('officeinfo', 512),
               ('outstanding_task', 11), ('outstanding_task', 4097),
               ('outstanding_task', 23709),
               ('vw_brands', 23), ('vw_brands', 2048)]


def run_differential(workload: Workload, *, extended: bool = False,
                     reference: str = 'memory-batched',
                     keep_engines: bool = False) -> dict:
    """Execute the workload on every configuration, asserting identical
    outcomes after each transaction.  Engines are closed on the way out
    (they hold worker processes and SQLite connections); pass
    ``keep_engines`` for extra assertions on live engines — the caller
    then owns the close."""
    engines = build_engines(workload, extended=extended)
    view = workload.view
    try:
        for number, transaction in enumerate(workload.transactions):
            outcomes: dict[str, str | None] = {}
            for name, engine in engines.items():
                try:
                    engine.execute_many(transaction)
                    outcomes[name] = None
                except ReproError as error:
                    outcomes[name] = type(error).__name__
            assert len(set(outcomes.values())) == 1, (
                f'divergent raise behavior on {workload!r} '
                f'transaction #{number}: {outcomes}')
            assert_caches_fresh(engines, view,
                                f'{workload!r} transaction #{number}')
            reference_state = (engines[reference].database(),
                               frozenset(engines[reference].rows(view)))
            for name, engine in engines.items():
                state = (engine.database(),
                         frozenset(engine.rows(view)))
                assert state == reference_state, (
                    f'{name} diverged from {reference} on {workload!r} '
                    f'transaction #{number} (outcome {outcomes[name]})')
        # Crash recovery: replaying the replica axis's WAL into a
        # fresh engine (what a post-SIGKILL restart does) must land on
        # the reference state too.
        if 'replica' in engines:
            final_state = (engines[reference].database(),
                           frozenset(engines[reference].rows(view)))
            assert engines['replica'].recovered_state(view) \
                == final_state, (
                f'WAL replay recovery diverged from {reference} '
                f'on {workload!r}')
    finally:
        if not keep_engines:
            for engine in engines.values():
                engine.close()
    return engines


@given(view=st.sampled_from(FUZZ_VIEWS),
       seed=st.integers(min_value=0, max_value=2 ** 20))
@example(view='luxuryitems', seed=7)
@example(view='officeinfo', seed=512)
@example(view='outstanding_task', seed=11)
@example(view='outstanding_task', seed=23709)
@example(view='vw_brands', seed=23)
@settings(deadline=None)
def test_all_modes_agree(view, seed):
    """The core matrix: memory/SQLite × batched/stmt × sharded/single
    × threads/processes leave identical committed base tables and view
    caches, and raise identically, on every generated transaction
    sequence."""
    run_differential(random_workload(view, seed))


@given(view=st.sampled_from(FUZZ_VIEWS),
       seed=st.integers(min_value=2 ** 20, max_value=2 ** 21))
@example(view='luxuryitems', seed=1031)
@example(view='outstanding_task', seed=4097)
@settings(deadline=None)
def test_extended_matrix_agrees(view, seed):
    """The completed cross (adds sqlite-stmt and sharded-stmt)."""
    run_differential(random_workload(view, seed), extended=True)


@pytest.mark.parametrize('view,seed', SEED_CORPUS)
def test_seed_corpus_deterministic(view, seed):
    """The pinned corpus replays identically outside Hypothesis (a
    plain pytest run reproduces any corpus regression directly)."""
    workload = random_workload(view, seed)
    again = random_workload(view, seed)
    assert workload.transactions == again.transactions
    assert {n: set(workload.data[n]) for n in workload.data.names()} \
        == {n: set(again.data[n]) for n in again.data.names()}
    engines = run_differential(workload, keep_engines=True)
    try:
        # Sharded placement really was shard-local — the partitioned
        # paths (routing, scatter-gather, fan-back) were exercised, not
        # the global-fallback degenerate case.
        assert engines['sharded-batched'].placement(view) \
            == 'partitioned'
        # The process-backed engine really ran with worker processes
        # (and shard-local placement), not a degenerate fallback.
        assert engines['sharded-procs'].execution == 'processes'
        assert engines['sharded-procs'].placement(view) == 'partitioned'
        assert all(shard.alive
                   for shard in engines['sharded-procs'].shards)
        # The replica axis really replicated: its reads were served at
        # the primary's commit point, through delta application alone.
        replicated = engines['replica']
        assert replicated.replica.applied_lsn \
            == replicated.primary.commit_lsn
        assert replicated.primary.commit_lsn > 0
    finally:
        for engine in engines.values():
            engine.close()


def test_corpus_exercises_maintenance():
    """Over the pinned corpus, base writes of committed transactions
    land on materialised caches of every fuzzed view and are maintained
    through ∂get — the cache oracle above is not vacuous.  (Replays the
    corpus on the reference configuration alone, as the harness drives
    it: the view is read after every transaction.)"""
    maintained = dict.fromkeys(FUZZ_VIEWS, 0)
    for view, seed in SEED_CORPUS:
        workload = random_workload(view, seed)
        strategy = _strategy(view)
        engine = Engine(strategy.sources, backend='memory')
        try:
            for name in strategy.sources.names():
                engine.load(name, workload.data[name])
            engine.define_view(strategy, validate_first=False)
            engine.rows(view)
            for transaction in workload.transactions:
                try:
                    engine.execute_many(transaction)
                except ReproError:
                    pass
                engine.rows(view)
            maintained[view] += engine.metrics_snapshot()['counters'] \
                .get('cache.maintained', 0)
        finally:
            engine.close()
    assert all(maintained.values()), maintained


def test_violating_workloads_raise_everywhere():
    """At least one corpus workload exercises the constraint path, and
    a violating insert leaves every configuration untouched."""
    workload = random_workload('luxuryitems', 7)
    found = False
    for seed in range(60):
        candidate = random_workload('luxuryitems', seed)
        if candidate.expects_violations:
            workload, found = candidate, True
            break
    assert found, 'no violating workload in the first 60 seeds'
    run_differential(workload)
