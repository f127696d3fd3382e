"""A sharded engine over key-range partitions of the base tables.

The paper's putback strategies are *deterministic* Datalog programs, so
a sharded deployment must produce bit-identical source updates to a
single-node engine — the distribution setting of the companion work
("Making View Update Strategies Programmable — Toward Controlling and
Sharing Distributed Data").  :class:`ShardedEngine` partitions every
base table by a declared shard key across N inner
:class:`~repro.rdbms.engine.Engine` instances, each with its own
:class:`~repro.rdbms.backends.base.Backend` — hot shards on
``MemoryBackend``, cold shards on ``SQLiteBackend`` — and composes the
engine's reusable transaction pipeline (``begin`` /
``apply_statements`` / ``prepare_commit`` / ``apply_prepared``) rather
than reimplementing it.

**Partitioning.**  ``shard_keys`` declares, per relation (and per
view), the attribute whose value a :class:`Partitioner` maps to a shard
index: :class:`HashPartitioner` (stable modular/CRC hashing) or
:class:`RangePartitioner` (an explicit ordered range map).  A view is
*shard-local* when it declares a shard key and every relation its
putback can reach — its ``update_closure``, its sources, and the base
tables transitively underneath — is partitioned on the **same-named**
attribute.  Shard-local view updates then decompose exactly: a view
delta routed to the shards owning its rows is translated by each
shard's own trigger pipeline, and the resulting source deltas land on
the same shard by construction (the putback preserves the key
variable).

**Global fallback.**  A strategy whose ``update_closure`` writes a
relation partitioned on a *different* key (or not partitioned at all)
cannot be routed shard-locally; running it on one shard against
partitioned sources would be silently wrong.  Such views fall back to
a documented single-shard **global** placement, detected at
:meth:`define_view` time: the view is pinned to ``global_shard`` and
every base table underneath it is demoted to global placement too (its
rows migrate to the global shard).  Demotion refuses — with a
:class:`~repro.errors.SchemaError` — when a base is already serving an
existing shard-local view, since one relation cannot be both
partitioned and pinned.

**Routing.**  INSERTs route by the inserted row's key; DELETEs route by
a key-binding WHERE or broadcast; UPDATEs that do not touch the shard
key broadcast (rows cannot move); UPDATEs that *assign* the shard key
are derived centrally — the matched rows are gathered from every
shard's transaction state and re-emitted as per-shard DELETE + INSERT
statements on the owning shards (``Delta.split`` is the same operation
at the delta level).  ``get`` answers by scatter-gather union over the
per-shard view caches.

**Atomicity.**  A transaction prepares every touched shard first (plan
runs, ⊥-constraint checks, schema validation — everything that can
fail) and applies the prepared storage batches only after *all* shards
prepared, so an abort mid-transaction leaves every shard untouched.

**Concurrency.**  Thread execution (the default) runs every phase of
the pipeline inline on the calling thread: CPU-bound putbacks gain
nothing from Python threads, which the GIL serialises.  Per-shard state
keeps the engine safe to share between threads all the same: each
shard is one inner engine with its own backend (a SQLite backend holds
one connection under its per-backend mutex), compiled plans are
immutable and shared, and the engine pipeline holds no engine-global
mutable state during prepare.  Reads from other threads during an
in-flight transaction's *prepare* phase see pre-transaction state and
are never blocked (prepare stages in Python; only the apply phase
writes storage, and it excludes readers per shard with a lock).  During
the brief apply phase itself, consistency is per shard: a multi-shard
scatter-gather racing the apply may combine shards from either side of
the commit — cross-shard snapshot isolation for readers is future work.

**Process execution.**  ``ShardedEngine(execution='processes')`` moves
each shard into a worker *process* (:mod:`repro.rdbms.procpool`) — the
parallel path.  The coordinator logic above is unchanged — routing, the
flush gate, placement, 2PC — but each shard is driven through an RPC
client instead of an inner engine, and every fan-out is *pipelined*:
the coordinator submits the request to every touched shard first, so
all of their workers compute at once, then drains the replies **in
submission order**, which is the serial execution order, so the first
error raised is serial-identical (every reply is drained even after a
failure).  Statement fan-out drains at the next barrier; prepare,
apply and the scatter-gather reads (``rows``, ``database``, ``load``)
drain at once (:meth:`ShardedEngine._pmap`).  A worker death surfaces
as :class:`~repro.errors.ShardUnavailableError`: the cluster
transaction aborts on every surviving shard (staging never touches
storage, so abandoning it *is* rollback) and the pool restarts the
worker.  Thread mode routes through the same :class:`LocalShard`
surface, so both modes run one code path and the differential fuzz
oracle holds them bit-identical.

**Fault tolerance.**  With ``wal_dir`` set, *both* executions are
durable: thread mode logs in the shard engines, process mode threads
``wal_dir/shard-<i>.wal`` into each worker — the worker's fsynced
append is its commit point, a restarted worker replays the committed
prefix, and a worker killed *mid-apply* is repaired from its prepare
reply (:meth:`~repro.rdbms.procpool.ProcessShard._repair_apply`), so a
SIGKILL anywhere in the 2PC loses no committed transaction.
``commit_lsns()`` and read-replica routing work uniformly across both
modes (process-mode replicas tail the shard logs by file path).
``rpc_timeout`` turns a *wedged* worker into
:class:`~repro.errors.ShardUnavailableError` instead of a hung
coordinator, and ``transient_retries`` re-runs a cluster transaction
that aborted cleanly on a worker failure (never one whose apply phase
partially committed).  Fault injection for all of this lives in
:mod:`repro.rdbms.faults`.
"""

from __future__ import annotations

import logging
import tempfile
import threading
import time
import zlib
from abc import ABC, abstractmethod
from bisect import bisect_right
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from repro.core.strategy import UpdateStrategy
from repro.core.validation import ValidationReport, validate
from repro.datalog.ast import (Lit, Program, Rule, Var, delta_base,
                               is_delta_pred)
from repro.errors import SchemaError, ShardUnavailableError
from repro.rdbms.backends import (BACKENDS, Backend,
                                  create_shard_backends)
from repro.rdbms.dml import (Delete, Insert, Statement, Update,
                             _apply_assignments, compile_where)
from repro.rdbms.engine import (Engine, Transaction, ViewEntry,
                                coalesce_buckets)
from repro.rdbms.metrics import GLOBAL, MetricsRegistry, merge_snapshots
from repro.rdbms.procpool import ProcessPool
from repro.rdbms.replica import ReplicaEngine, ReplicaSet
from repro.relational.database import Database
from repro.relational.delta import Delta
from repro.relational.schema import DatabaseSchema, RelationSchema

__all__ = ['Partitioner', 'HashPartitioner', 'RangePartitioner',
           'LocalShard', 'ShardedEngine']

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Partitioners
# ---------------------------------------------------------------------------


class Partitioner(ABC):
    """Maps a shard-key *value* to a shard index in ``[0, n_shards)``.

    Implementations must respect value equality: ``x == y`` implies
    ``shard_of(x) == shard_of(y)`` — WHERE clauses match rows with
    ``==`` (where ``1 == 1.0 == True``), so a partitioner that told
    equal values apart would route a keyed statement away from the
    rows it matches."""

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise SchemaError(f'need at least one shard, got {n_shards}')
        self.n_shards = n_shards

    @abstractmethod
    def shard_of(self, value) -> int:
        """The shard owning rows whose key equals ``value``."""


class HashPartitioner(Partitioner):
    """Stable hash partitioning: numbers by modulus, everything else
    by CRC-32 of its ``repr`` — deliberately *not* Python's built-in
    ``hash``, whose string seed changes per process and would make two
    runs (or a differential test against a persisted SQLite shard)
    disagree about row ownership.  Numeric values that compare equal
    (``1``/``1.0``/``True``) normalise to the same shard."""

    def shard_of(self, value) -> int:
        # Normalise every numeric type onto one representative so
        # ==-equal values (True/1/1.0/Decimal(1), and inf/Decimal
        # ('Infinity') via the float step) share a shard; non-numerics
        # fall through to the repr hash.
        if isinstance(value, complex) and value.imag == 0:
            value = value.real
        if not isinstance(value, str):
            try:
                as_int = int(value)
                if as_int == value:
                    return as_int % self.n_shards
            except (TypeError, ValueError, OverflowError):
                pass
            try:
                value = float(value)
            except (TypeError, ValueError, OverflowError):
                pass
        return zlib.crc32(repr(value).encode('utf-8')) % self.n_shards


class RangePartitioner(Partitioner):
    """Explicit key-range partitioning over ``len(boundaries) + 1``
    shards: shard 0 owns values below ``boundaries[0]``, shard *i* owns
    ``boundaries[i-1] <= value < boundaries[i]``, the last shard owns
    the rest.  Boundaries must be sorted and mutually comparable with
    every key value (one key type per partitioned schema)."""

    def __init__(self, boundaries: Sequence):
        boundaries = tuple(boundaries)
        if list(boundaries) != sorted(boundaries) or \
                any(a == b for a, b in zip(boundaries, boundaries[1:])):
            raise SchemaError(f'range boundaries must be strictly '
                              f'increasing, got {boundaries!r} (a '
                              f'duplicate boundary would declare a '
                              f'shard that can never own a row)')
        super().__init__(len(boundaries) + 1)
        self.boundaries = boundaries

    def shard_of(self, value) -> int:
        return bisect_right(self.boundaries, value)


# ---------------------------------------------------------------------------
# Shard clients
# ---------------------------------------------------------------------------


class LocalShard:
    """In-process shard client: the thread-mode counterpart of
    :class:`~repro.rdbms.procpool.ProcessShard`, presenting the same
    surface (minus the pipelined ``send_*`` variants: thread mode runs
    every call inline) over an inner engine on the coordinator's heap.
    Reads and the apply phase take the shard's lock (the per-shard
    writer/reader exclusion of §"Concurrency"); transaction staging is
    lock-free."""

    def __init__(self, index: int, engine: Engine):
        self.index = index
        self.engine = engine
        self._lock = threading.RLock()

    # -- transaction pipeline -----------------------------------------

    def begin(self):
        return self.engine.begin()

    def apply_statements(self, handle, target: str, statements) -> None:
        self.engine.apply_statements(handle, target, statements)

    def flush_reads(self, handle, target: str) -> None:
        self.engine.flush_reads(handle, target)

    def txn_rows(self, handle, target: str) -> frozenset:
        self.engine.flush_reads(handle, target)
        return frozenset(handle.rows(target))

    def prepare_commit(self, handle):
        return self.engine.prepare_commit(handle)

    def apply_prepared(self, prepared) -> None:
        with self._lock:
            self.engine.apply_prepared(prepared)

    def abort(self, handle) -> None:
        """Abandoning the working IS rollback — staging never touches
        storage (§"Atomicity")."""

    # -- storage / catalog --------------------------------------------

    def rows(self, name: str) -> frozenset:
        with self._lock:
            return frozenset(self.engine.rows(name))

    def snapshot(self) -> Database:
        with self._lock:
            return self.engine.database()

    def load(self, name: str, rows) -> None:
        with self._lock:
            self.engine.load(name, rows)

    def count(self, name: str) -> int:
        return self.engine.backend.count(name)

    def has_cache(self, name: str) -> bool:
        return self.engine.backend.has_cache(name)

    def define_view(self, strategy, *, report=None,
                    use_incremental: bool = True, stats=None,
                    exist_ok: bool = False):
        return self.engine.define_view(strategy, report=report,
                                       validate_first=False,
                                       use_incremental=use_incremental,
                                       stats=stats, exist_ok=exist_ok)

    def drop_view(self, name: str) -> None:
        self.engine.drop_view(name)

    def close(self) -> None:
        self.engine.close()


class _ClusterTxn:
    """One cross-shard transaction's coordinator-side state: the
    per-shard transaction handles in **first-touched order** (the order
    prepare joins in) and, under process execution, the submission-order
    log of pipelined replies — drained at the next barrier in exactly
    the order the serial loop would have executed the calls, so the
    first error to surface is the serial-identical one."""

    __slots__ = ('handles', 'log')

    def __init__(self):
        self.handles: dict[int, object] = {}
        self.log: list[Callable[[], object]] = []


def _drain(replies: Sequence[Callable[[], object]]) -> list:
    """Every pipelined reply's value, drained in submission order — the
    serial execution order.  Every reply is drained even after a
    failure (an undrained reply would sit in its channel forever); the
    first failure is then raised, so the error is the serial one."""
    results: list = []
    first_error: BaseException | None = None
    for reply in replies:
        try:
            results.append(reply())
        except Exception as error:
            if first_error is None:
                first_error = error
            results.append(None)
    if first_error is not None:
        raise first_error
    return results


def _process_backend_specs(spec, n_shards: int) -> list:
    """Per-shard backend *kind names* for process execution, mirroring
    :func:`~repro.rdbms.backends.create_shard_backends` — except that
    prebuilt instances are rejected outright: a backend constructed in
    the coordinator cannot cross the fork (SQLite connections are
    process-bound), which is exactly why workers build their own."""
    reject = ('process shards construct their backend inside the '
              'worker (connections must not cross the fork); pass '
              'backend kind names, not instances')
    if isinstance(spec, Backend):
        raise SchemaError(reject)
    if spec is None or isinstance(spec, str):
        spec = [spec] * n_shards
    else:
        spec = list(spec)
    if len(spec) != n_shards:
        raise SchemaError(
            f'{len(spec)} shard backends specified for {n_shards} shards')
    for kind in spec:
        if isinstance(kind, Backend):
            raise SchemaError(reject)
        if kind is not None and kind not in BACKENDS:
            # Fail here, in the coordinator, with the canonical error —
            # a worker dying on a bad name would surface as an opaque
            # ShardUnavailableError instead.
            raise SchemaError(f'unknown backend {kind!r}; expected one '
                              f'of {sorted(BACKENDS)}')
    return spec


# ---------------------------------------------------------------------------
# The sharded engine
# ---------------------------------------------------------------------------

class ShardedEngine:
    """N inner engines over key-range partitions, one backend each.

    Drop-in for :class:`~repro.rdbms.engine.Engine` on the DML surface
    (``insert``/``delete``/``update``/``execute``/``execute_many``/
    ``transaction``/``rows``/``database``/``load``/``define_view``).

    Parameters
    ----------
    shards:
        Shard count (default 2; inferred from ``backends`` or
        ``partitioner`` when those are given).
    backends:
        Per-shard storage — ``None``/a kind name for uniform shards, or
        a sequence mixing kinds and prebuilt Backend instances (hot
        shards in memory, cold shards in SQLite files); resolved by
        :func:`repro.rdbms.backends.create_shard_backends`.
    partitioner:
        A :class:`Partitioner` (default :class:`HashPartitioner`).
    shard_keys:
        ``{relation_or_view: attribute name (or position)}`` — the
        declared shard key of each partitioned relation.  Relations
        without a key are *global*: stored wholly on ``global_shard``.
    execution:
        ``'threads'`` (inner engines on the coordinator's heap, every
        phase inline on the calling thread; default) or
        ``'processes'`` (one worker process per shard, every fan-out
        pipelined across the workers — §"Process execution" in the
        module docstring); results are bit-identical either way.
    rpc_timeout:
        Process execution only: seconds each RPC waits for its reply
        before the shard surfaces as
        :class:`~repro.errors.ShardUnavailableError` — a *wedged*
        worker (alive but stuck) no longer blocks the coordinator
        forever.  ``None`` waits indefinitely (the pre-timeout
        behaviour).
    transient_retries:
        Retry a cluster transaction up to this many times after a
        worker failure that aborted it *cleanly* (prepare-phase death,
        dropped RPC — the abort rolled every shard back and the dead
        worker was restarted).  An apply-phase failure that may have
        partially committed is never retried.  ``retry_backoff`` is the
        initial sleep between attempts, doubling each retry.
    """

    def __init__(self, schema: DatabaseSchema, *,
                 shards: int | None = None,
                 backends=None,
                 partitioner: Partitioner | None = None,
                 shard_keys: Mapping[str, str | int] | None = None,
                 batch_deltas: bool = True,
                 global_shard: int = 0,
                 execution: str = 'threads',
                 wal_dir=None,
                 wal_sync: bool = True,
                 read_replicas: int = 0,
                 read_policy: str = 'round-robin',
                 replica_max_lag: int = 0,
                 rpc_timeout: float | None = 120.0,
                 transient_retries: int = 0,
                 retry_backoff: float = 0.05,
                 retry_backoff_cap: float = 2.0,
                 retry_max_wait: float = 15.0):
        if execution not in ('threads', 'processes'):
            raise SchemaError(f"execution must be 'threads' or "
                              f"'processes', got {execution!r}")
        if transient_retries < 0:
            raise SchemaError(f'transient_retries must be >= 0, '
                              f'got {transient_retries}')
        if retry_backoff_cap <= 0:
            raise SchemaError(f'retry_backoff_cap must be > 0, '
                              f'got {retry_backoff_cap}')
        if retry_max_wait <= 0:
            raise SchemaError(f'retry_max_wait must be > 0, '
                              f'got {retry_max_wait}')
        if read_replicas < 0:
            raise SchemaError(f'read_replicas must be >= 0, '
                              f'got {read_replicas}')
        if shards is None:
            if partitioner is not None:
                shards = partitioner.n_shards
            elif backends is not None and \
                    not isinstance(backends, str) and \
                    hasattr(backends, '__len__'):
                shards = len(backends)
            else:
                shards = 2
        self.schema = schema
        self.partitioner = partitioner or HashPartitioner(shards)
        if self.partitioner.n_shards != shards:
            raise SchemaError(
                f'partitioner covers {self.partitioner.n_shards} shards '
                f'but {shards} were requested')
        if not 0 <= global_shard < shards:
            raise SchemaError(f'global_shard {global_shard} out of range '
                              f'for {shards} shards')
        self.global_shard = global_shard
        self.batch_deltas = batch_deltas
        self.execution = execution
        self._transient_retries = transient_retries
        self._retry_backoff = retry_backoff
        # The exponential backoff is bounded twice (the uncapped
        # doubling could sleep for minutes at large transient_retries):
        # no single sleep exceeds ``retry_backoff_cap`` and the summed
        # sleeps never exceed ``retry_max_wait`` — the budget runs out
        # before the attempt count does, the retry loop gives up.
        self._retry_backoff_cap = retry_backoff_cap
        self._retry_max_wait = retry_max_wait
        #: coordinator-side instrumentation: cluster phase timings
        #: (route/prepare/apply), transaction counts, retry traffic.
        #: :meth:`metrics` merges this with every shard's own snapshot.
        self._metrics = MetricsRegistry()
        #: Post-commit hooks: each callable receives the committed
        #: transaction's bucket targets (a tuple of relation names)
        #: after the cluster apply phase.  The coordinator-side
        #: analogue of ``Engine.commit_listeners`` — worker engines
        #: live behind the RPC boundary, so the peer network hooks the
        #: coordinator and republishes by diffing the shared view.
        self.commit_listeners: list = []
        # Durability + read replicas (both executions): each shard logs
        # to ``wal_dir/shard-<i>.wal`` — opened by the shard engine in
        # thread mode, *inside the worker* in process mode; replicas
        # tail their shard's log (in-process or by file path).
        # ``read_replicas`` without an explicit wal_dir uses an owned
        # temporary directory — the replication substrate without the
        # durability contract.
        self._wal_tmpdir = None
        wal_paths: list = [None] * shards
        if wal_dir is None and read_replicas:
            self._wal_tmpdir = tempfile.TemporaryDirectory(
                prefix='repro-wal-')
            wal_dir = self._wal_tmpdir.name
        if wal_dir is not None:
            base = Path(wal_dir)
            base.mkdir(parents=True, exist_ok=True)
            wal_paths = [base / f'shard-{i}.wal'
                         for i in range(shards)]
        self._wal_paths = tuple(wal_paths)
        if execution == 'processes':
            self._procpool: ProcessPool | None = ProcessPool(
                schema, _process_backend_specs(backends, shards),
                batch_deltas=batch_deltas,
                wal_paths=(wal_paths if wal_dir is not None else None),
                wal_sync=wal_sync, rpc_timeout=rpc_timeout)
            self.shards = self._procpool.shards
            #: the inner engines live in the workers under process
            #: execution; thread-mode introspection goes via .engines
            self.engines: tuple[Engine, ...] = ()
        else:
            self._procpool = None
            shard_backends = create_shard_backends(backends, schema,
                                                   shards)
            self.engines = tuple(Engine(schema, backend=b,
                                        batch_deltas=batch_deltas,
                                        wal=path, wal_sync=wal_sync)
                                 for b, path in zip(shard_backends,
                                                    wal_paths))
            for engine in self.engines:
                # Planner statistics (define_view seed AND drift
                # re-plans) come from cluster-wide aggregated counts,
                # never from one shard's local sizes.  (Process workers
                # cannot call back mid-transaction: their define_view
                # seed is the aggregated stats the coordinator ships,
                # and drift re-plans use local counts — which only ever
                # changes a join order, never a result.)
                engine.stats_provider = self._aggregated_stats
            self.shards = tuple(LocalShard(index, engine)
                                for index, engine
                                in enumerate(self.engines))
        #: one ReplicaSet per shard (empty tuple when read_replicas=0):
        #: reads fan across them, writes stay on the shard primaries.
        self.replica_sets: tuple[ReplicaSet, ...] = ()
        if read_replicas:
            # Thread mode shares the primary's WriteAheadLog instance
            # (exact lag); process mode tails the worker's log by file
            # path — same committed prefix, torn tails excluded by
            # checksum — with the ProcessShard client as the primary.
            primaries = self.engines or self.shards
            feeds = [engine.wal for engine in self.engines] \
                or list(self._wal_paths)
            self.replica_sets = tuple(
                ReplicaSet(primary,
                           [ReplicaEngine(schema, feed)
                            for _ in range(read_replicas)],
                           policy=read_policy,
                           max_lag=replica_max_lag)
                for primary, feed in zip(primaries, feeds))
        self._entries: dict[str, ViewEntry] = {}
        #: relation/view -> None (partitioned) or the pinned shard index
        self._placement: dict[str, int | None] = {}
        self._key_pos: dict[str, int] = {}
        self._key_attr: dict[str, str] = {}
        #: unresolved key declarations for views defined later
        self._pending_keys: dict[str, str | int] = {}
        for name, key in dict(shard_keys or {}).items():
            if name in schema:
                pos, attr = _resolve_key(schema[name], key)
                self._placement[name] = None
                self._key_pos[name] = pos
                self._key_attr[name] = attr
            else:
                self._pending_keys[name] = key
        for rel in schema.names():
            self._placement.setdefault(rel, self.global_shard)

    # -- fan-out -------------------------------------------------------

    def _pmap(self, method: str, calls: Sequence[tuple[int, tuple]]
              ) -> list:
        """``method(*args)`` on each ``(shard index, args)`` of
        ``calls``; the replies in call order.

        Thread execution calls inline, in order (the first failure
        stops the loop, as any serial loop would).  Process execution
        pipelines the fan-out: ``send_<method>`` submits every request
        before any reply is awaited, so the touched workers compute at
        once, and :func:`_drain` collects the replies in submission
        order, raising the serial-identical first failure."""
        if self._procpool is None:
            return [getattr(self.shards[index], method)(*args)
                    for index, args in calls]
        return _drain([getattr(self.shards[index], f'send_{method}')(*args)
                       for index, args in calls])

    # -- configuration introspection ----------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def is_view(self, name: str) -> bool:
        return name in self._entries

    def view(self, name: str) -> ViewEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise SchemaError(f'unknown view {name!r}') from None

    def relations(self) -> tuple[str, ...]:
        return self.schema.names() + tuple(self._entries)

    def placement(self, name: str):
        """``'partitioned'`` or the pinned (global) shard index."""
        place = self._placement_of(name)
        return 'partitioned' if place is None else place

    def is_partitioned(self, name: str) -> bool:
        return self._placement_of(name) is None

    def shard_key(self, name: str) -> str | None:
        """The declared shard-key attribute of a partitioned relation."""
        return self._key_attr.get(name)

    @property
    def unresolved_shard_keys(self) -> tuple[str, ...]:
        """``shard_keys`` entries naming neither a base table nor any
        view defined so far.  Such entries are legitimate *before* the
        named view's ``define_view`` call; one still listed after all
        views are defined is a typo (e.g. ``'item'`` for ``'items'``)
        that silently left the intended relation on global placement —
        assert this is empty after setup."""
        return tuple(sorted(name for name in self._pending_keys
                            if name not in self._entries))

    def _placement_of(self, name: str) -> int | None:
        try:
            return self._placement[name]
        except KeyError:
            raise SchemaError(f'unknown relation {name!r}') from None

    def _shard_of_row(self, name: str, row: tuple) -> int:
        return self.partitioner.shard_of(row[self._key_pos[name]])

    def classifier(self, name: str):
        """The partition predicate of ``name`` — the row → shard map
        that :meth:`repro.relational.delta.Delta.split` routes deltas
        with.  Global relations map every row to their pinned shard."""
        place = self._placement_of(name)
        if place is not None:
            return lambda row: place
        key = self._key_pos[name]
        shard_of = self.partitioner.shard_of
        return lambda row: shard_of(row[key])

    # -- storage access ------------------------------------------------

    def _read_shard(self, index: int, name: str) -> frozenset:
        """One *primary* shard's contents of ``name``, copied under the
        shard lock (worker-serialised for process shards) so an apply
        phase cannot mutate the rows mid-copy.  Internal machinery
        (migrations, diagnostics) reads here; replica routing happens
        one level up, in :meth:`rows`."""
        return self.shards[index].rows(name)

    def _shard_min_lsns(self, min_lsn) -> list:
        """Normalise a read bound: ``None``, one int for every shard,
        or a per-shard sequence (what :meth:`commit_lsns` returned)."""
        if min_lsn is None or isinstance(min_lsn, int):
            return [min_lsn] * self.n_shards
        bounds = list(min_lsn)
        if len(bounds) != self.n_shards:
            raise SchemaError(
                f'min_lsn sequence covers {len(bounds)} shards, '
                f'engine has {self.n_shards}')
        return bounds

    def rows(self, name: str, *, min_lsn=None) -> frozenset:
        """Scatter-gather union of ``name`` across its shards (the
        whole relation/view, exactly as the single engine reports it);
        process shards read their view caches concurrently (one
        pipelined fan-out).  With read replicas attached the reads land
        on them instead of the primaries (the primary only sees the
        write path); ``min_lsn`` (an int, or the per-shard tuple from
        :meth:`commit_lsns`) is the read-your-writes bound."""
        bounds = self._shard_min_lsns(min_lsn)
        if not self.replica_sets:
            return self._gather_primary(name)
        place = self._placement_of(name)
        indexes = range(self.n_shards) if place is None else (place,)
        gathered: set = set()
        for index in indexes:
            gathered.update(self.replica_sets[index].read(
                name, min_lsn=bounds[index]))
        return frozenset(gathered)

    def commit_lsns(self) -> tuple[int, ...]:
        """Per-shard committed LSNs (zeros without a WAL) — pass the
        tuple back to :meth:`rows` as ``min_lsn`` to read your own
        writes through the replicas.  Uniform across executions: thread
        mode reads the shard engines, process mode asks each worker
        over RPC."""
        if self.engines:
            return tuple(engine.commit_lsn for engine in self.engines)
        if self._procpool is not None and self._wal_paths[0] is not None:
            return tuple(shard.commit_lsn for shard in self.shards)
        return (0,) * self.n_shards

    @property
    def commit_lsn(self) -> tuple[int, ...]:
        """Alias for :meth:`commit_lsns` (uniform surface with
        :attr:`Engine.commit_lsn`; the sharded commit point is a
        vector)."""
        return self.commit_lsns()

    def shard_rows(self, name: str) -> tuple[frozenset, ...]:
        """Per-shard contents of ``name`` (diagnostics and tests)."""
        return tuple(self._read_shard(index, name)
                     for index in range(self.n_shards))

    def _gather_primary(self, name: str) -> frozenset:
        """Union of ``name`` over the *primary* shards — what
        :meth:`rows` serves without replicas, and what internal
        machinery (row migrations, statistics) must read regardless of
        replica routing."""
        place = self._placement_of(name)
        if place is not None:
            return self._read_shard(place, name)
        return frozenset().union(*self._pmap(
            'rows', [(index, (name,)) for index in range(self.n_shards)]))

    def count(self, name: str) -> int:
        """Cluster-wide cardinality, aggregated from the per-shard
        :meth:`Backend.count` (global relations live on one shard and
        the others report zero)."""
        if name in self._entries:
            return len(self._gather_primary(name))
        self._placement_of(name)
        return sum(client.count(name) for client in self.shards)

    def database(self) -> Database:
        """A frozen snapshot of the cluster-wide base-table state."""
        snapshots = self._pmap('snapshot',
                               [(index, ()) for index in range(self.n_shards)])
        merged: dict[str, set] = {}
        for snapshot in snapshots:
            for name in snapshot.names():
                merged.setdefault(name, set()).update(snapshot[name])
        return Database.from_dict(merged)

    def load(self, name: str, rows: Iterable[tuple]) -> None:
        """Bulk-load a base table, splitting the rows across shards."""
        if name in self._entries or name not in self.schema:
            raise SchemaError(f'{name!r} is not a base table')
        loaded = {tuple(r) for r in rows}
        # Validate everything BEFORE any shard is replaced, like the
        # single engine: a bad row must not leave the cluster with a
        # mix of old and new shard contents.
        for row in loaded:
            self.schema[name].validate_tuple(row)
        classify = self.classifier(name)
        shares: dict[int, set] = {i: set() for i in range(self.n_shards)}
        for row in loaded:
            shares[classify(row)].add(row)
        self._pmap('load', [(index, (name, shares[index]))
                            for index in range(self.n_shards)])

    def close(self) -> None:
        """Close every shard — the backend for local shards, the worker
        process for process shards — and the read replicas.
        Idempotent."""
        for replica_set in self.replica_sets:
            replica_set.close()
        if self._procpool is not None:
            self._procpool.shutdown()
        else:
            for client in self.shards:
                client.close()
        if self._wal_tmpdir is not None:
            self._wal_tmpdir.cleanup()
            self._wal_tmpdir = None

    def __enter__(self) -> 'ShardedEngine':
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- view definition ----------------------------------------------

    def define_view(self, strategy: UpdateStrategy, *,
                    report: ValidationReport | None = None,
                    validate_first: bool = True,
                    use_incremental: bool = True,
                    exist_ok: bool = False) -> ViewEntry:
        """Register an updatable view on every shard.

        Validation runs once here (not once per shard); each inner
        engine compiles against the *aggregated* cluster-wide
        cardinalities so the per-shard planners see the same join-order
        statistics a single node would.

        ``exist_ok`` makes registration idempotent: shards that already
        carry the view (their WAL replay re-registered it during
        recovery) adopt it instead of raising, and a coordinator that
        already lists it returns the existing entry.  This is how a
        restarted coordinator rebuilds its catalog over the surviving
        shard logs — peers in the data-sharing network lean on it after
        a crash.
        """
        name = strategy.view.name
        if exist_ok and name in self._entries:
            return self._entries[name]
        if name in self.schema or name in self._entries:
            raise SchemaError(f'relation {name!r} already exists')
        for source in strategy.updated_relations():
            if source not in self.schema and source not in self._entries:
                raise SchemaError(
                    f'view {name!r} updates unknown relation {source!r}')
        if report is None and validate_first:
            report = validate(strategy)
        get_program = report.view_definition if report is not None \
            else strategy.expected_get
        placement, demotions = self._decide_placement(strategy,
                                                      get_program)
        stats = self._aggregated_stats()
        demoted: list[tuple[str, int, str]] = []
        entry: ViewEntry | None = None
        try:
            for client in self.shards:
                created = client.define_view(
                    strategy, report=report,
                    use_incremental=use_incremental, stats=stats,
                    exist_ok=exist_ok)
                if entry is None:
                    # Shard 0's entry (a pickled copy under process
                    # execution) is the cluster's catalog record.
                    entry = created
            # Cluster bookkeeping runs only once every shard accepted
            # the view; demotions are ordered after that so a failed
            # define_view cannot leave bases demoted.
            for base in demotions:
                undo = (base, self._key_pos[base], self._key_attr[base])
                self._demote_to_global(base)
                demoted.append(undo)
            self._entries[name] = entry
            if placement is None:
                pos, attr = _resolve_key(strategy.view,
                                         self._pending_keys[name])
                self._placement[name] = None
                self._key_pos[name] = pos
                self._key_attr[name] = attr
            else:
                self._placement[name] = placement
        except BaseException:
            # All-or-nothing across shards: a view registered on a
            # subset of the shards (drop_view is a no-op on the rest)
            # would wedge its name forever, and bases demoted for a
            # view that never materialised must get their partitioned
            # layout back.  A shard whose worker died is skipped (its
            # restart replays a journal that never recorded this view).
            for client in self.shards:
                try:
                    client.drop_view(name)
                except ShardUnavailableError:
                    pass
            if self._procpool is not None:
                self._procpool.restart_dead()
            self._entries.pop(name, None)
            for base, pos, attr in reversed(demoted):
                self._repartition(base, pos, attr)
            raise
        return self._entries[name]

    def _decide_placement(self, strategy: UpdateStrategy,
                          get_program: Program | None
                          ) -> tuple[int | None, list[str]]:
        """``(None, [])`` when the view can be routed shard-locally,
        else ``(global shard index, bases to demote)`` — the demotions
        are *decided* here but applied by the caller only after every
        shard accepted the view, so a failed ``define_view`` cannot
        leave the cluster degraded (§"Global fallback" in the module
        docstring).

        Shard-locality needs two proofs: every relation the putback can
        reach is partitioned on the same-named attribute, and the
        programs are *key-aligned* (:func:`_key_aligned`) — name
        matching alone would accept rules that join through a non-key
        variable and then route wrongly."""
        name = strategy.view.name
        update_closure: set[str] = set()
        for updated in strategy.updated_relations():
            update_closure.add(updated)
            if updated in self._entries:
                update_closure |= self._entries[updated].update_closure
        # Only relations the programs actually *read* constrain the
        # placement — the engine hands every schema relation to plan
        # evaluation, but unreferenced ones cannot affect the result.
        # ``get_program`` (the certified view definition when a report
        # was given) is the program the engine will evaluate, so it —
        # not ``strategy.expected_get`` — is what counts here.
        referenced: set[str] = set()
        for program in (strategy.putdelta, get_program):
            if program is not None:
                referenced |= program.edb_preds()
        known = set(self.schema.names()) | set(self._entries)
        source_names = referenced & known
        base_closure: set[str] = set()
        for source in source_names:
            if source in self._entries:
                base_closure |= self._entries[source].base_closure
            else:
                base_closure.add(source)
        relevant = (update_closure | source_names | base_closure) - {name}

        key_spec = self._pending_keys.get(name)
        if key_spec is not None:
            # A key declaration that does not resolve against the view
            # schema is a configuration error, exactly as it is for
            # base tables at construction — never a silent fallback.
            view_pos, view_attr = _resolve_key(strategy.view, key_spec)
            if all(
                    self._placement.get(rel) is None
                    and self._key_attr.get(rel) == view_attr
                    for rel in relevant):
                key_pos_of = {rel: self._key_pos[rel]
                              for rel in relevant}
                key_pos_of[name] = view_pos
                if _key_aligned(strategy.putdelta, get_program, name,
                                key_pos_of):
                    return None, []

        # Global fallback: pin the view, demote its base tables.
        demotions: list[str] = []
        for rel in sorted(relevant):
            if self._placement.get(rel) is None:
                holder = self._partitioned_view_over(rel)
                if holder is not None:
                    raise SchemaError(
                        f'view {name!r} is not shard-local (its update '
                        f'closure reaches {rel!r}, partitioned on '
                        f'{self._key_attr.get(rel)!r}) but {rel!r} '
                        f'already serves the shard-local view '
                        f'{holder!r}; declare a co-partitioned shard '
                        f'key for {name!r} or drop {rel!r} from '
                        f'shard_keys')
                if rel in self.schema:
                    demotions.append(rel)
                else:
                    # A previously defined shard-local *view* source
                    # cannot be re-placed — same conflict.
                    raise SchemaError(
                        f'view {name!r} is not shard-local but its '
                        f'source view {rel!r} is; declare a '
                        f'co-partitioned shard key for {name!r}')
        return self.global_shard, demotions

    def _partitioned_view_over(self, rel: str) -> str | None:
        for view, entry in self._entries.items():
            if self._placement.get(view) is not None:
                continue
            if rel in entry.base_closure or rel in entry.update_closure \
                    or rel in entry.source_names:
                return view
        return None

    def _demote_to_global(self, base: str) -> None:
        """Re-place a partitioned base wholly onto the global shard
        (the rows migrate; the key declaration is dropped).  The
        gathered copy is the recovery source: if any shard's load
        fails mid-migration, the partitioned layout is restored from
        it rather than leaving rows duplicated or half-moved."""
        gathered = set(self._gather_primary(base))
        try:
            for index, client in enumerate(self.shards):
                client.load(base, gathered
                            if index == self.global_shard else ())
        except BaseException:
            # _placement has not flipped yet, so a plain reload routes
            # the gathered copy back through the partitioned layout.
            self.load(base, gathered)
            raise
        self._placement[base] = self.global_shard
        self._key_pos.pop(base, None)
        self._key_attr.pop(base, None)

    def _repartition(self, base: str, pos: int, attr: str) -> None:
        """Undo a demotion: restore the key declaration and spread the
        (now global-shard) rows back over the partitioned layout."""
        gathered = set(self._gather_primary(base))
        self._placement[base] = None
        self._key_pos[base] = pos
        self._key_attr[base] = attr
        self.load(base, gathered)

    def _aggregated_stats(self) -> dict[str, int]:
        """Cluster-wide cardinalities for the per-shard planners."""
        stats = {name: sum(client.count(name)
                           for client in self.shards)
                 for name in self.schema.names()}
        for view in self._entries:
            place = self._placement.get(view)
            holders = [self.shards[place]] if place is not None \
                else list(self.shards)
            if all(client.has_cache(view) for client in holders):
                stats[view] = sum(client.count(view)
                                  for client in holders)
        return stats

    # -- observability --------------------------------------------------

    def metrics(self) -> dict:
        """One merged metrics snapshot for the whole cluster: the
        coordinator's own series (cluster phase timings, retry
        traffic), every shard engine's snapshot (txn phases, WAL
        append latency — worker processes ship theirs back over the
        RPC channel; a dead worker contributes nothing), this
        process's GLOBAL series (plan seals), the procpool's RPC/
        restart counts, and each shard's replica-set routing stats.
        See rdbms/metrics.py for the snapshot shape."""
        snapshots: list = [self._metrics.snapshot(), GLOBAL.snapshot()]
        if self._procpool is not None:
            rpc = {'counters': {
                'rpc.requests': sum(shard.rpc_requests
                                    for shard in self.shards),
                'procpool.restarts': sum(shard.generation
                                         for shard in self.shards),
            }, 'gauges': {
                'procpool.alive': float(sum(shard.alive
                                            for shard in self.shards)),
            }, 'histograms': {}}
            snapshots.append(rpc)
            snapshots.extend(shard.metrics() for shard in self.shards)
        else:
            snapshots.extend(engine.metrics_snapshot()
                             for engine in self.engines)
        snapshots.extend(replica_set.metrics_snapshot()
                         for replica_set in self.replica_sets)
        return merge_snapshots(snapshots)

    # -- DML -----------------------------------------------------------

    def insert(self, target: str, values: tuple) -> None:
        self.execute(target, [Insert(tuple(values))])

    def delete(self, target: str, where=None) -> None:
        self.execute(target, [Delete(where)])

    def update(self, target: str, assignments: Mapping[str, object],
               where=None) -> None:
        self.execute(target, [Update(assignments, where)])

    def transaction(self) -> Transaction:
        return Transaction(self)

    def execute(self, target: str, statements: Sequence[Statement]) -> None:
        self.execute_many([(target, statements)])

    def execute_many(self, batches: Sequence[tuple[str,
                                                   Sequence[Statement]]]
                     ) -> None:
        """One atomic transaction across shards: route every bucket,
        then two-phase commit — prepare every touched shard (every
        *logical* failure mode: translation, ⊥-constraints, schema
        validation), apply only when all prepared.  Shards prepare in
        *first-touched* order — the order their first bucket was
        staged — so a multi-view abort surfaces the same first
        violation a single engine's first-staged pending drain would.
        (Exact first-error parity covers translation and ⊥-constraint
        failures; an unvalidated strategy whose putback emits
        schema-invalid source rows may surface its row-validation
        error in shard rather than global staging order.)
        The apply phase carries the same trust the single engine
        places in ``Backend.apply_deltas``: a storage-level I/O
        failure there is not compensated (durable cross-shard 2PC
        logs are out of scope for this reproduction; under process
        execution every shard's apply is attempted even if a sibling's
        storage write fails, where the inline thread-mode loop stops —
        both leave a partially applied batch only on storage-level I/O
        failure).

        Under ``execution='processes'`` every phase is *pipelined*
        across the workers.  Routing submits the statement RPCs without
        waiting, and a barrier before any synchronous read — and before
        the prepare phase — drains every outcome in submission order.
        Prepare and apply each submit to every touched shard, then
        drain in first-touched order.  Prepare is embarrassingly
        parallel: it only stages, and every already-prepared shard's
        work is simply abandoned on abort, which *is* the rollback (no
        shard storage was touched).  The first error surfaced is
        therefore still the serial one.  Any failure (including a
        worker death) aborts the transaction on every shard and
        restarts dead workers before re-raising.

        ``transient_retries`` re-runs the transaction after a
        :class:`ShardUnavailableError` that aborted it *cleanly* —
        nothing was committed anywhere, and the restarted worker (with
        a WAL) recovered its full committed state, so a fresh attempt
        is exactly a new transaction.  A failure in the apply phase is
        never retried: sibling shards may already have applied (and
        with a WAL the repair path has already made every repairable
        case *succeed*), so what reaches the caller from apply is a
        genuine partial-commit report."""
        if self.batch_deltas:
            batches = coalesce_buckets(batches)
        metrics = self._metrics
        attempts = 0
        waited = 0.0
        while True:
            try:
                self._execute_cluster(batches)
                for listener in self.commit_listeners:
                    listener(tuple(target for target, _ in batches))
                return
            except ShardUnavailableError as error:
                if getattr(error, 'applied', False) \
                        or attempts >= self._transient_retries:
                    if attempts:
                        metrics.counter('retry.giveups')
                    raise
                # Exponential backoff, bounded per attempt and in
                # total: an uncapped 2**n sleep at large
                # transient_retries would park the coordinator for
                # minutes on a shard that is simply gone.
                delay = min(self._retry_backoff * (2 ** attempts),
                            self._retry_backoff_cap)
                if waited + delay > self._retry_max_wait:
                    metrics.counter('retry.giveups')
                    raise
                attempts += 1
                waited += delay
                metrics.counter('retry.attempts')
                time.sleep(delay)

    def _execute_cluster(self, batches) -> None:
        """One attempt of the routed 2PC (see :meth:`execute_many`)."""
        metrics = self._metrics
        timed = metrics.enabled
        started = time.perf_counter() if timed else 0.0
        txn = _ClusterTxn()
        order: list = []
        try:
            for target, statements in batches:
                self._route_bucket(txn, target, statements)
            self._barrier(txn)
            if timed:
                routed = time.perf_counter()
                metrics.observe('cluster.route_seconds',
                                routed - started)
            order = list(txn.handles.items())
            prepared = self._pmap('prepare_commit',
                                  [(index, (handle,))
                                   for index, handle in order])
            if timed:
                metrics.observe('cluster.prepare_seconds',
                                time.perf_counter() - routed)
        except BaseException:
            metrics.counter('cluster.aborts')
            self._abort(txn)
            raise
        apply_started = time.perf_counter() if timed else 0.0
        try:
            self._pmap('apply_prepared',
                       [(index, (commit,))
                        for (index, _), commit in zip(order, prepared)])
            if timed:
                metrics.counter('cluster.txns')
                metrics.observe('cluster.apply_seconds',
                                time.perf_counter() - apply_started)
        except BaseException as error:
            # Apply carries the single engine's storage trust (see
            # above): no compensation, but a worker that died here is
            # restarted so the cluster keeps serving.  Mark the error
            # as apply-phase so the transient-retry wrapper never
            # re-runs a transaction that may have partially committed.
            if self._procpool is not None:
                self._procpool.restart_dead()
            if isinstance(error, ShardUnavailableError):
                error.applied = True
            raise

    def _barrier(self, txn: _ClusterTxn) -> None:
        """Drain every pipelined statement outcome and raise the first
        failure — the serial-identical error (see :func:`_drain`)."""
        log, txn.log = txn.log, []
        _drain(log)

    def _abort(self, txn: _ClusterTxn) -> None:
        """Roll the cluster transaction back: drain what is still in
        flight (outcomes no longer matter), drop every shard's staged
        state, and restart any worker that died — so the *next*
        transaction finds a serving cluster.  A failure on the way is
        swallowed, since the error being raised ranks first, but
        counted as ``cluster.abort_errors`` and logged."""
        for reply in txn.log:
            try:
                reply()
            except Exception:
                self._metrics.counter('cluster.abort_errors')
                logger.warning('an in-flight shard reply failed while '
                               'aborting a cluster transaction',
                               exc_info=True)
        txn.log = []
        for index, handle in txn.handles.items():
            try:
                self.shards[index].abort(handle)
            except Exception:
                self._metrics.counter('cluster.abort_errors')
                logger.warning('shard %d failed to abort its part of a '
                               'cluster transaction', index,
                               exc_info=True)
        if self._procpool is not None:
            self._procpool.restart_dead()

    # -- routing internals --------------------------------------------

    def _handle(self, txn: _ClusterTxn, index: int):
        if index not in txn.handles:
            txn.handles[index] = self.shards[index].begin()
        return txn.handles[index]

    def _post(self, txn: _ClusterTxn, index: int, method: str,
              *args) -> None:
        """One statement-pipeline call on shard ``index``: inline under
        thread execution (a failure raises here, as in the serial
        loop); under process execution submitted without waiting, its
        reply queued on ``txn.log`` for the next :meth:`_barrier`."""
        client = self.shards[index]
        if self._procpool is None:
            getattr(client, method)(*args)
        else:
            txn.log.append(getattr(client, f'send_{method}')(*args))

    def _forward(self, txn: _ClusterTxn, target: str,
                 per_shard: dict[int, list[Statement]]) -> None:
        for index in sorted(per_shard):
            statements = per_shard[index]
            if statements:
                # Handle creation position fixes first-touched
                # (prepare) order; submit position fixes error order.
                self._post(txn, index, 'apply_statements',
                           self._handle(txn, index), target, statements)

    def _route_bucket(self, txn: _ClusterTxn, target: str,
                      statements: Sequence[Statement]) -> None:
        try:
            place = self._placement_of(target)
        except SchemaError:
            # A coordinator-side routing error must not outrank a
            # failure already in flight from an earlier bucket — the
            # serial loop would have hit that one first.
            self._barrier(txn)
            raise
        if not statements:
            # Mirror Engine.apply_statements exactly: an empty bucket
            # is a no-op BEFORE the flush gate, so it cannot split a
            # batched translation the single engine would coalesce.
            return
        # Cluster-wide statement-order gate, mirroring the single
        # engine's _flush_for_read: before ANY shard processes a bucket
        # on ``target``, every shard holding a pending view translation
        # that could still write ``target`` (or reads it as a source)
        # must drain it.  Without this, two faults routed to different
        # shards can surface in a different order than on a single
        # node — committing the same state but raising a different
        # error type, which the differential oracle forbids.  The
        # drains are independent plan runs, one per shard (pipelined
        # under process execution: per-channel FIFO keeps each shard's
        # gate ahead of this bucket's statements).
        for index, handle in list(txn.handles.items()):
            self._post(txn, index, 'flush_reads', handle, target)
        if place is not None:
            self._post(txn, place, 'apply_statements',
                       self._handle(txn, place), target, list(statements))
            return
        key_attr = self._key_attr[target]
        key_pos = self._key_pos[target]
        per_shard: dict[int, list[Statement]] = {}

        def stage(index: int, statement: Statement) -> None:
            per_shard.setdefault(index, []).append(statement)

        def broadcast(statement: Statement) -> None:
            for index in range(self.n_shards):
                stage(index, statement)

        for statement in statements:
            if isinstance(statement, Insert):
                row = tuple(statement.values)
                if len(row) <= key_pos:
                    # Arity error: forward anywhere, the shard's schema
                    # validation produces the canonical SchemaError.
                    stage(self.global_shard, statement)
                else:
                    stage(self.partitioner.shard_of(row[key_pos]),
                          statement)
            elif isinstance(statement, Delete):
                routed = self._where_shard(target, statement.where,
                                           key_attr)
                if routed is None:
                    broadcast(statement)
                else:
                    stage(routed, statement)
            elif isinstance(statement, Update):
                if key_attr in statement.assignments:
                    # Rows may change owner: derive centrally, then
                    # re-emit as per-shard DELETE + INSERT.  Forward
                    # what is already staged first so statement order
                    # is preserved on every shard.
                    self._forward(txn, target, per_shard)
                    per_shard = {}
                    self._route_moving_update(txn, target, statement)
                else:
                    routed = self._where_shard(target, statement.where,
                                               key_attr)
                    if routed is None:
                        broadcast(statement)
                    else:
                        stage(routed, statement)
            else:
                self._barrier(txn)   # in-flight failures rank first
                raise SchemaError(f'unknown statement {statement!r}')
        self._forward(txn, target, per_shard)

    def _where_shard(self, target: str, where,
                     key_attr: str) -> int | None:
        """The single shard a WHERE pins, when it binds the shard key
        to a constant; ``None`` means broadcast.  A mapping naming an
        unknown column is never pinned: the single engine raises its
        SchemaError from the first row it scans (and stays silent on
        an empty relation), and only a broadcast reproduces that
        data-dependent behavior."""
        if isinstance(where, Mapping) and key_attr in where and \
                set(where) <= set(self._target_schema(target).attributes):
            return self.partitioner.shard_of(where[key_attr])
        return None

    def _target_schema(self, target: str) -> RelationSchema:
        if target in self._entries:
            return self._entries[target].schema
        return self.schema[target]

    def _route_moving_update(self, txn: _ClusterTxn, target: str,
                             statement: Update) -> None:
        """An UPDATE that assigns the shard key: gather the matched
        rows from every shard's transaction state, apply the
        assignments centrally into one (Δ⁺, Δ⁻) pair, split it by the
        partition predicate (:meth:`Delta.split` — deletions route by
        the old row's owner, insertions by the new row's), and re-emit
        each shard's share as DELETE + INSERT statements.

        The gather is a synchronous read, so every pipelined outcome
        submitted before it (under process execution) must surface first
        (:meth:`_barrier`) — a failed earlier translation stops the
        derivation exactly where it stops the serial loop.  The
        per-shard reads themselves stay serial in shard order: each
        shard's flush errors must interleave with its rows' validation
        errors the way the serial loop produces them."""
        schema = self._target_schema(target)
        key_attr = self._key_attr[target]
        pinned = self._where_shard(target, statement.where, key_attr)
        shards = range(self.n_shards) if pinned is None else (pinned,)
        self._barrier(txn)
        victims: set = set()
        replacements: set = set()
        match = compile_where(statement.where, schema)
        for index in shards:
            handle = self._handle(txn, index)
            for row in self.shards[index].txn_rows(handle, target):
                if not match(row):
                    continue
                new_row = _apply_assignments(row, statement.assignments,
                                             schema)
                schema.validate_tuple(new_row)
                victims.add(row)
                replacements.add(new_row)
        moved = Delta(replacements, victims)
        merged: dict[int, list[Statement]] = {}
        for index, part in sorted(
                moved.split(self.classifier(target)).items()):
            # UPDATE is deletions followed by insertions (App. D):
            # keep that order on every shard.
            merged[index] = \
                [Delete(dict(zip(schema.attributes, row)))
                 for row in sorted(part.deletions)] + \
                [Insert(row) for row in sorted(part.insertions)]
        self._forward(txn, target, merged)


# ---------------------------------------------------------------------------
# Static key-alignment analysis
# ---------------------------------------------------------------------------
#
# Matching key *attribute names* is necessary but not sufficient for
# shard-local routing: a rule like ``+r1(X) :- r2(X), v(Y), not r1(X).``
# references only relations partitioned on the same attribute, yet the
# variable it writes ``r1`` with is not the view row's key — evaluating
# it per shard against shard-local sources would silently diverge from
# the single engine.  These helpers prove the stronger property the
# routing argument actually needs: in every rule of the putback, the
# ⊥-constraints, and the view definition, all partitioned atoms are
# keyed by ONE shared variable, which intermediate predicates carry
# through to the delta heads.


def _rule_key_var(rule: Rule, key_pos_of: Mapping[str, int],
                  carry: Mapping[str, int | None]) -> str | None:
    """The single variable sitting at the key position of every
    partitioned (or key-carrying intermediate) atom in ``rule``'s body,
    or ``None`` when no such shared variable exists.  The variable must
    occur in at least one *positive* atom so it is genuinely bound to a
    shard-owned row."""
    shared: str | None = None
    positively_bound = False
    for literal in rule.body:
        if not isinstance(literal, Lit):
            continue                      # builtins carry no key
        atom = literal.atom
        pred = delta_base(atom.pred) if is_delta_pred(atom.pred) \
            else atom.pred
        if pred in key_pos_of:
            position = key_pos_of[pred]
        elif atom.pred in carry:
            position = carry[atom.pred]
            if position is None:          # intermediate drops the key
                return None
        else:                             # unanalysable predicate
            return None
        argument = atom.args[position]
        if not isinstance(argument, Var):
            return None                   # constant/anonymous key
        if shared is None:
            shared = argument.name
        elif argument.name != shared:
            return None                   # two different join keys
        if literal.positive:
            positively_bound = True
    if shared is None or not positively_bound:
        return None
    return shared


def _carry_positions(program: Program,
                     key_pos_of: Mapping[str, int]) -> dict[str,
                                                            int | None]:
    """For each intermediate (non-delta IDB) predicate: the head
    position that provably carries the rule key through every defining
    rule, or ``None`` when no position does (the predicate "drops" the
    key and any rule using it is not shard-local)."""
    rules_of: dict[str, list[Rule]] = {}
    for rule in program.proper_rules():
        if rule.head is not None and not is_delta_pred(rule.head.pred) \
                and rule.head.pred not in key_pos_of:
            rules_of.setdefault(rule.head.pred, []).append(rule)
    carry: dict[str, int | None] = {}
    pending = dict(rules_of)
    progress = True
    while pending and progress:           # nonrecursive → terminates
        progress = False
        for pred in list(pending):
            rules = pending[pred]
            depends = {literal.atom.pred for rule in rules
                       for literal in rule.body
                       if isinstance(literal, Lit)}
            if depends & set(pending):
                continue                  # a dependency is unresolved
            positions: set[int] | None = None
            for rule in rules:
                key_var = _rule_key_var(rule, key_pos_of, carry)
                if key_var is None:
                    positions = set()
                    break
                here = {index for index, arg in enumerate(rule.head.args)
                        if isinstance(arg, Var) and arg.name == key_var}
                positions = here if positions is None \
                    else positions & here
            carry[pred] = min(positions) if positions else None
            del pending[pred]
            progress = True
    for pred in pending:                  # unresolvable (defensive)
        carry[pred] = None
    return carry


def _key_aligned(putdelta: Program, get_program: Program | None,
                 view_name: str,
                 key_pos_of: Mapping[str, int]) -> bool:
    """Is every rule of the putback and the view definition routable by
    the shared key — so that per-shard evaluation over shard-local
    state provably equals the single engine's result restricted to the
    shard?"""
    for program in (putdelta, get_program):
        if program is None:
            continue
        carry = _carry_positions(program, key_pos_of)
        for rule in program.rules:
            head = rule.head
            if head is None:              # ⊥-constraint: body only
                if _rule_key_var(rule, key_pos_of, carry) is None:
                    return False
                continue
            if is_delta_pred(head.pred):
                target = delta_base(head.pred)
            elif head.pred in key_pos_of:
                target = head.pred        # the view-definition head
            else:
                continue                  # intermediate: via ``carry``
            key_var = _rule_key_var(rule, key_pos_of, carry)
            if key_var is None:
                return False
            argument = head.args[key_pos_of[target]]
            if not (isinstance(argument, Var)
                    and argument.name == key_var):
                return False
    return True


def _resolve_key(schema: RelationSchema, key: str | int) -> tuple[int, str]:
    """Resolve a shard-key declaration (attribute name or position)
    against a relation schema → ``(position, attribute name)``."""
    if isinstance(key, int):
        if not 0 <= key < schema.arity:
            raise SchemaError(
                f'shard key position {key} out of range for '
                f'{schema.name!r} (arity {schema.arity})')
        return key, schema.attributes[key]
    try:
        return schema.attributes.index(key), key
    except ValueError:
        raise SchemaError(
            f'shard key {key!r} is not an attribute of '
            f'{schema.name!r} {schema.attributes}') from None
