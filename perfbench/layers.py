"""Where the traced run hooks each layer, and the per-layer metrics.

Each target names the attribute a caller looks the function up by: a
module global for functions imported by name, a class attribute for
methods.  The per-layer metrics are derived from the spans and counters
of the traced phase, plus counters the program already keeps (the
sharded engine's merged ``metrics()``, ``ProcessShard.rpc_requests``,
``plan_cache_info()``).

Timings are self time in milliseconds per traced operation: the
set-up's view definitions (op class ``define``) and every operation of
the traced rounds.  ``*_per_txn`` metrics are per transaction of the
traced rounds.
"""

from __future__ import annotations

import os

from repro.core import get_derivation, strategy as strategy_mod, validation
from repro.datalog import evaluator, plan
from repro.fol import solver
from repro.rdbms import engine as engine_mod
from repro.rdbms import procpool, sharded as sharded_mod
from repro.rdbms.backends.memory import MemoryBackend
from repro.sql import triggers

__all__ = ['targets', 'span_names', 'cluster_totals', 'layer_metrics']

Engine = engine_mod.Engine
ShardedEngine = sharded_mod.ShardedEngine

def _rows_counter(tracer, rows):
    """``Engine.rows`` counting view reads and the reads that found no
    cached view (a re-materialisation)."""
    def counted(self, name, **kwargs):
        if tracer.active and tracer.op_class is not None \
                and os.getpid() == tracer.pid and self.is_view(name):
            tracer.bump('engine.rows.view_reads')
            if not self.backend.has_cache(name):
                tracer.bump('engine.rows.cache_misses')
        return rows(self, name, **kwargs)
    return counted


def targets() -> list:
    """``(owner, attribute, name, kind)`` for :func:`tracing.install`."""
    span = 'span'
    out = [
        (Engine, 'execute_many', 'engine.execute_many', span),
        (Engine, 'apply_statements', 'engine.apply_statements', span),
        (Engine, 'prepare_commit', 'engine.prepare_commit', span),
        (Engine, 'apply_prepared', 'engine.apply_prepared', span),
        (Engine, 'rows', 'engine.rows', _rows_counter),
        (Engine, 'rows', 'engine.rows', span),
        (Engine, 'define_view', 'engine.define_view', span),
        (engine_mod, 'derive_view_delta', 'dml.derive_view_delta', span),
        (engine_mod, 'validate', 'core.validate', span),
        (sharded_mod, 'validate', 'core.validate', span),
        (validation, 'validate', 'core.validate', span),
        (validation, 'derive_get', 'core.derive_get', span),
        (engine_mod, 'incrementalize_plan', 'core.incrementalize_plan',
         span),
        (validation, 'check_satisfiable', 'solver.check_satisfiable', span),
        (get_derivation, 'check_satisfiable', 'solver.check_satisfiable',
         span),
        (solver, 'evaluate', 'solver.evaluations', 'count'),
        (evaluator, 'execute_plan', 'evaluator.execute_plan', span),
        (triggers, 'compile_strategy_to_sql', 'sql.compile_strategy_to_sql',
         span),
        (ShardedEngine, 'execute_many', 'sharded.execute_many', span),
        (ShardedEngine, '_route_bucket', 'sharded.route', span),
        (ShardedEngine, '_barrier', 'sharded.barrier', span),
        (ShardedEngine, '_pmap', 'sharded.fanout', span),
        (ShardedEngine, 'rows', 'sharded.rows', span),
        (procpool.ProcessShard, 'begin', 'procpool.shard_begins', 'count'),
        (procpool._RpcChannel, 'submit', 'procpool.rpc.submit', span),
        (procpool._RpcChannel, 'drain', 'procpool.rpc.drain', span),
    ]
    for method in ('evaluate_incremental_batch', 'evaluate_get',
                   'store_cache', 'drop_cache', 'apply_deltas', 'rows'):
        out.append((MemoryBackend, method, f'backends.{method}', span))
    # ``compile_program`` is imported by name into these modules; the
    # incremental compiler imports it from ``plan`` at call time.
    for module in (plan, engine_mod, evaluator, strategy_mod):
        out.append((module, 'compile_program', 'plan.compile_program',
                    span))
    return out


def span_names() -> list[str]:
    """Every span the traced run records, once each; each gives a
    ``<name>.self_ms`` metric."""
    return list(dict.fromkeys(name for _, _, name, kind in targets()
                              if kind == 'span'))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: The sharded engine's merged-metrics series the per-layer metrics
#: use: counters, and the summed seconds of histograms.
CLUSTER_COUNTERS = ('wal.appends', 'wal.bytes')
CLUSTER_SECONDS = ('txn.apply_seconds', 'txn.prepare_seconds',
                   'txn.commit_seconds', 'cluster.prepare_seconds',
                   'wal.append_seconds')


def cluster_totals(snapshot: dict) -> dict:
    """The CLUSTER_* series of a ``ShardedEngine.metrics()`` snapshot."""
    totals = {name: snapshot['counters'].get(name, 0)
              for name in CLUSTER_COUNTERS}
    for name in CLUSTER_SECONDS:
        totals[name] = snapshot['histograms'].get(name, {}).get('sum', 0.0)
    return totals


def layer_metrics(tracer, *, txn_classes, cluster=None,
                  rpc_requests: int = 0, plan_hits: int, plan_misses: int,
                  untraced_ops_per_s: float, traced_ops_per_s: float
                  ) -> dict:
    """Every per-layer metric of one traced phase, by name.
    ``txn_classes`` are the op classes that are transactions;
    ``cluster`` the growth of the :func:`cluster_totals` series over the
    traced operations; ``rpc_requests`` the RPC requests their
    transactions sent; ``plan_hits``/``plan_misses`` the plan cache's
    lookups during them."""
    n_ops = sum(tracer.ops.values())
    txns = sum(tracer.ops.get(c, 0) for c in txn_classes)
    cluster = cluster or {}
    out = {}
    for name in span_names():
        out[f'{name}.self_ms'] = tracer.total(name) * 1000.0 / n_ops
    out['backends.drop_cache.calls_per_op'] = \
        tracer.n_calls('backends.drop_cache') / n_ops
    out['backends.evaluate_get.calls_per_op'] = \
        tracer.n_calls('backends.evaluate_get') / n_ops
    out['engine.rows.cache_miss_ratio'] = _ratio(
        tracer.n_calls('engine.rows.cache_misses'),
        tracer.n_calls('engine.rows.view_reads'))

    # -- RPC, 2PC and WAL: the coordinator's spans plus the merged
    # worker metrics (the WAL and the worker engines live in the
    # worker processes).
    def per_txn_ms(seconds: float) -> float:
        return _ratio(seconds * 1000.0, txns)

    wait = tracer.total('procpool.rpc.drain', txn_classes) \
        + tracer.detached('procpool.rpc.drain', txn_classes)
    worker = sum(cluster.get(f'txn.{phase}_seconds', 0.0)
                 for phase in ('apply', 'prepare', 'commit'))
    multi = sum(1 for op_class, counts in tracer.per_op
                if op_class in txn_classes
                and counts.get('procpool.shard_begins', 0) >= 2)
    out['procpool.rpc.requests_per_txn'] = _ratio(rpc_requests, txns)
    out['procpool.rpc.wait_ms'] = per_txn_ms(wait)
    out['procpool.rpc.transit_ms'] = per_txn_ms(wait - worker) \
        if wait else 0.0
    out['sharded.prepare_barrier_ms'] = per_txn_ms(
        cluster.get('cluster.prepare_seconds', 0.0))
    out['sharded.multi_shard_txn_ratio'] = _ratio(multi, txns)
    out['wal.appends_per_txn'] = _ratio(cluster.get('wal.appends', 0), txns)
    out['wal.bytes_per_txn'] = _ratio(cluster.get('wal.bytes', 0), txns)
    out['wal.append_ms'] = per_txn_ms(
        cluster.get('wal.append_seconds', 0.0))

    # -- validation and planning
    checks = tracer.n_calls('solver.check_satisfiable')
    out['solver.check_satisfiable.calls_per_strategy'] = _ratio(
        checks, tracer.ops.get('define', 0))
    out['solver.evaluations_per_check'] = _ratio(
        tracer.n_calls('solver.evaluations'), checks)
    out['plan.compile_program.calls'] = \
        tracer.n_calls('plan.compile_program') / n_ops
    out['plan.cache_hits_per_op'] = plan_hits / n_ops
    out['plan.cache_misses_per_op'] = plan_misses / n_ops
    out['plan.cache_hit_ratio'] = _ratio(plan_hits,
                                         plan_hits + plan_misses)

    # -- the trace itself
    waterfall = tracer.waterfall()
    out['trace.unattributed_ms'] = sum(
        w['unattributed_ms'] * w['ops'] for w in waterfall.values()) / n_ops
    out['trace.waterfall_gap_ratio'] = max(
        w['gap_ratio'] for w in waterfall.values()
        if w['gap_ratio'] is not None)
    out['trace.overhead_ratio'] = untraced_ops_per_s / traced_ops_per_s
    return out
