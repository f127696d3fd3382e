"""Process-per-shard execution: worker processes owning one engine each.

Threads cannot beat the GIL on CPU-bound putback translation, so this
module moves each shard of a :class:`~repro.rdbms.sharded.ShardedEngine`
into a **worker process**.  The engine's transaction pipeline is already
message-shaped — ``begin`` / ``apply_statements`` / ``flush_reads`` /
``prepare_commit`` / ``apply_prepared`` are pure-data calls, and every
value they carry (statements, deltas, strategies, compiled plans,
library exceptions) pickles — so a worker is simply the same inner
:class:`~repro.rdbms.engine.Engine` behind an RPC loop.

Wire protocol
-------------

Length-prefixed pickle frames over a ``multiprocessing`` pipe: each
message is pickled with :data:`pickle.HIGHEST_PROTOCOL` and shipped via
``Connection.send_bytes`` (a 4-byte length header plus the payload).
Requests are ``(seq, method, args)`` triples; replies are ``(seq, ok,
payload)`` where ``payload`` is the return value (``ok``) or the
serialised exception (the library's error classes define ``__reduce__``
so the round trip is exact — see :mod:`repro.errors`).

**Pipelining.**  The worker serves strictly in request order and every
request gets exactly one reply, so the coordinator may submit several
requests before draining any reply (:meth:`_RpcChannel.submit` /
:meth:`_RpcChannel.drain`).  The sharded coordinator pipelines every
fan-out through the ``send_*`` methods of :class:`ProcessShard`, which
submit a request and return the thunk that drains its reply: the
statement calls (``flush_reads``, ``apply_statements``) are collected
at the next barrier, while prepare, apply and the scatter-gather reads
submit to every shard before draining any.  Replies are drained *in
submission order*, which is exactly the order the serial loop executes
in, so the first error raised is the serial-identical one (a pipelined
call's effect and failure are both deterministic functions of its
inputs).

Worker lifecycle
----------------

Backends are constructed **inside** the worker (the coordinator ships a
backend *kind*, never an instance), so SQLite connections never cross
the fork.  A dead worker (killed, crashed, broken pipe) — or a *wedged*
one, surfaced by the per-call RPC timeout — appears as
:class:`~repro.errors.ShardUnavailableError`; the coordinator aborts
the cluster transaction on every other shard and restarts the worker so
the next transaction finds a serving shard.

**Durability.**  With a WAL configured (``wal_path``, threaded down
from ``ShardedEngine(wal_dir=...)``), each worker opens its own
``shard-<i>.wal`` *inside the worker process*: the fsynced append in
``Engine.apply_prepared`` is the shard's commit point, and a restarted
worker replays the committed prefix through ``Engine.apply_wal_record``
— no committed transaction is lost to a crash.  The prepare reply
additionally carries the shard's pre-commit LSN and the frozen commit
record, so a worker that dies *mid-apply* is repaired exactly
(:meth:`ProcessShard._repair_apply`): after the restart's replay the
coordinator checks whether the append — the commit point — made it; if
not, it re-commits the record it kept, and the cluster transaction
succeeds instead of losing a commit its sibling shards already
applied.  Without a WAL, restart falls back to replaying the recorded
catalog setup (latest ``load`` per base table, ``define_view`` in
definition order) and committed deltas since the last load are lost —
the pre-WAL contract.

Deterministic fault injection (:mod:`repro.rdbms.faults`) hooks the
RPC send path (``rpc.send``) and the worker dispatch loop
(``worker.dispatch``); a plan installed before the pool forks is
inherited by every worker.

Fork hygiene: a forked worker inherits the coordinator's file
descriptors for every *other* worker's pipe.  Each worker closes those
inherited ends on startup (:data:`_COORDINATOR_CONNS`), otherwise a
sibling's death would never surface as EOF on the coordinator side; and
every shutdown finalizer is pid-guarded so a worker's own exit cannot
run the coordinator's cleanup against its siblings.

Statistics: workers re-plan on cardinality drift against their *local*
counts (a worker cannot ask the coordinator mid-transaction).  The
``define_view`` seed still uses cluster-wide aggregated stats (the
coordinator passes them explicitly), and re-planning only affects join
order, never results.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import pickle
import threading
import time
import weakref
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

from repro.errors import SchemaError, ShardUnavailableError
from repro.rdbms import faults
from repro.rdbms.backends import Backend, create_backend
from repro.rdbms.engine import Engine

__all__ = ['ProcessPool', 'ProcessShard', 'WorkerRuntime',
           'serve_connection']

#: Coordinator-side pipe ends of every live worker, inherited by forked
#: children; a starting worker closes them all (its own inherited
#: duplicate included — the coordinator's original stays open).
_COORDINATOR_CONNS: 'weakref.WeakSet' = weakref.WeakSet()

#: The worker's shard index inside a worker process, ``None`` in the
#: coordinator.  Tests use this to make fork-inherited monkeypatches
#: fire in exactly one worker.
WORKER_INDEX: int | None = None


def _dumps(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class WorkerRuntime:
    """One worker's state: the inner engine plus per-transaction
    working/prepared slots, with every RPC method as a plain method.

    Kept separate from the process entry point so the dispatch loop is
    drivable in-process (a thread over a pipe) by the test suite."""

    def __init__(self, schema, backend_spec, *, batch_deltas: bool = True,
                 index: int = 0, n_shards: int = 1,
                 wal_path=None, wal_sync: bool = True):
        self.index = index
        # With ``wal_path`` the worker owns its shard's log: the engine
        # appends each commit before storage (the commit point) and —
        # when the log already has records, i.e. this is a restart —
        # replays the committed prefix right here in the constructor.
        self.engine = Engine(schema,
                             backend=create_backend(backend_spec, schema),
                             batch_deltas=batch_deltas,
                             wal=wal_path, wal_sync=wal_sync)
        self._workings: dict[int, object] = {}
        self._prepared: dict[int, object] = {}

    # -- transaction pipeline -----------------------------------------

    def begin(self, txn: int) -> None:
        self._workings[txn] = self.engine.begin()

    def apply_statements(self, txn: int, target: str,
                         statements: Sequence) -> None:
        self.engine.apply_statements(self._workings[txn], target,
                                     statements)

    def flush_reads(self, txn: int, target: str) -> None:
        self.engine.flush_reads(self._workings[txn], target)

    def txn_rows(self, txn: int, target: str) -> frozenset:
        """The transaction's view of ``target`` (flushing pending
        translations first) — the coordinator's cross-shard read for
        key-moving UPDATE derivation."""
        working = self._workings[txn]
        self.engine.flush_reads(working, target)
        return frozenset(working.rows(target))

    def prepare_commit(self, txn: int) -> tuple:
        """Prepare, and reply with what apply repair needs: the shard's
        pre-commit LSN and the frozen commit record the apply phase
        will append (``None`` without a WAL, or when the batch is empty
        and nothing will be appended)."""
        prepared = self.engine.prepare_commit(self._workings[txn])
        self._prepared[txn] = prepared
        if self.engine.wal is None or not prepared.batch:
            return (self.engine.commit_lsn, None)
        return (self.engine.commit_lsn, prepared.wal_record())

    def apply_prepared(self, txn: int) -> None:
        prepared = self._prepared.pop(txn)
        self._workings.pop(txn, None)
        try:
            self.engine.apply_prepared(prepared)
        except OSError:
            # The WAL append — the commit point — failed (e.g. fsync
            # error): this worker can no longer make commits durable,
            # and its log may have a torn tail.  Die and recover from
            # the log rather than limp along; the coordinator repairs
            # the in-flight transaction from its prepare reply.
            if WORKER_INDEX is not None:
                os._exit(3)
            raise

    def commit_batch(self, data: tuple) -> int:
        """Apply repair: commit a frozen record this worker prepared in
        a previous incarnation but died before appending."""
        try:
            return self.engine.commit_logged(data)
        except OSError:
            if WORKER_INDEX is not None:
                os._exit(3)
            raise

    def commit_lsn(self) -> int:
        return self.engine.commit_lsn

    def abort(self, txn: int) -> None:
        """Drop a transaction's staged state (storage was never
        touched: abandoning the working/prepared slots IS rollback)."""
        self._workings.pop(txn, None)
        self._prepared.pop(txn, None)

    # -- storage / catalog --------------------------------------------

    def rows(self, name: str) -> frozenset:
        return frozenset(self.engine.rows(name))

    def snapshot(self):
        return self.engine.database()

    def load(self, name: str, rows) -> None:
        self.engine.load(name, rows)

    def count(self, name: str) -> int:
        return self.engine.backend.count(name)

    def has_cache(self, name: str) -> bool:
        return self.engine.backend.has_cache(name)

    def define_view(self, strategy, report, use_incremental: bool,
                    stats: Mapping[str, int], exist_ok: bool = False):
        return self.engine.define_view(strategy, report=report,
                                       validate_first=False,
                                       use_incremental=use_incremental,
                                       stats=stats, exist_ok=exist_ok)

    def drop_view(self, name: str) -> None:
        self.engine.drop_view(name)

    def ping(self) -> str:
        return 'pong'

    def metrics(self) -> dict:
        """The worker engine's metrics snapshot (plus this process's
        GLOBAL series, e.g. evaluator plan seals) — how worker
        counters travel back to the coordinator's merged
        ``ShardedEngine.metrics()`` over the ordinary RPC channel."""
        from repro.rdbms.metrics import GLOBAL, merge_snapshots
        return merge_snapshots([self.engine.metrics_snapshot(),
                                GLOBAL.snapshot()])

    def close(self) -> None:
        self.engine.close()

    def dispatch(self, method: str, args: tuple):
        """Execute one request (the RPC loop's inner step)."""
        if method.startswith('_') or not hasattr(self, method):
            raise SchemaError(f'unknown worker RPC method {method!r}')
        faults.fire('worker.dispatch', method=method)
        return getattr(self, method)(*args)


def serve_connection(runtime: WorkerRuntime, conn) -> None:
    """The RPC loop: recv → dispatch → reply, strictly in order, one
    reply per request, until ``close`` or EOF.  Request failures are
    replies, not loop exits — the worker survives a failed transaction
    exactly as an in-process engine does.

    The pipelining contract (see module docstring) is *FIFO by
    sequence number*, and the transport may misbehave: an
    at-least-once sender can deliver a frame twice, and an injected
    reorder (``FaultPlan.reorder_rpc``) can deliver frames out of
    order.  The loop restores the contract at the boundary — a frame
    whose seq was already dispatched is silently absorbed (dispatching
    it again would double-execute the method *and* desynchronise the
    reply stream), and a frame from the future is held until the gap
    closes, so ``dispatch`` only ever sees each seq once, in order."""
    expected = 1
    held: dict[int, tuple] = {}        # future frames, keyed by seq
    closing = False
    while not closing:
        try:
            request = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):
            break                          # coordinator went away
        seq, method, args = request
        if seq < expected or seq in held:
            continue                       # duplicate frame: absorbed
        held[seq] = (method, args)
        while expected in held:
            method, args = held.pop(expected)
            expected += 1
            try:
                result = runtime.dispatch(method, args)
                reply = (expected - 1, True, result)
            except Exception as error:
                reply = (expected - 1, False, error)
            try:
                conn.send_bytes(_dumps(reply))
            except Exception as error:
                # An unpicklable *result* must not kill the channel:
                # the coordinator is blocked waiting for exactly this
                # seq.
                if reply[1]:
                    conn.send_bytes(_dumps(
                        (reply[0], False,
                         SchemaError(f'worker reply for {method!r} did '
                                     f'not serialise: {error}'))))
                else:
                    conn.send_bytes(_dumps(
                        (reply[0], False,
                         SchemaError(f'worker error for {method!r} did '
                                     f'not serialise: {error}'))))
            if method == 'close':
                closing = True
                break


def _worker_main(conn, index: int, schema, backend_spec,
                 batch_deltas: bool, wal_path=None,
                 wal_sync: bool = True, generation: int = 0) -> None:
    """Process entry point: drop inherited sibling pipe ends, build the
    engine *in this process* (replaying the shard's WAL when one is
    configured and has records), serve until told to stop."""
    global WORKER_INDEX
    WORKER_INDEX = index
    faults.set_identity(shard=index, generation=generation)
    for inherited in list(_COORDINATOR_CONNS):
        try:
            inherited.close()
        except OSError:  # pragma: no cover - already closed
            pass
    runtime = WorkerRuntime(schema, backend_spec,
                            batch_deltas=batch_deltas, index=index,
                            wal_path=wal_path, wal_sync=wal_sync)
    try:
        serve_connection(runtime, conn)
    finally:
        runtime.close()
        conn.close()


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------


class _RpcChannel:
    """Pipelined request/reply over one connection.

    ``submit`` sends a request and returns its sequence number (the
    *token*); ``drain`` blocks until that token's reply arrived —
    absorbing, in order, every reply before it.  Thread-safe: all I/O
    happens under one lock, and because the worker replies strictly in
    order, the thread holding the lock is always the one whose reply
    arrives next (no cross-thread starvation).

    ``timeout`` bounds each drain's wait for the *next reply frame*: a
    worker that is wedged (alive but not replying — an infinite loop, a
    deadlock) surfaces as :class:`ShardUnavailableError` instead of
    blocking the coordinator forever.  ``liveness`` (the worker
    process's ``is_alive``) turns a silent death into the same error
    without waiting out the full timeout."""

    def __init__(self, conn, shard: int, *,
                 timeout: float | None = None, liveness=None):
        self.conn = conn
        self.shard = shard
        self.timeout = timeout
        self._liveness = liveness
        self._seq = 0
        self._lock = threading.RLock()
        self._replies: dict[int, tuple[bool, object]] = {}
        #: Frames held back by an injected ``reorder`` fault, flushed
        #: after the next frame is sent (the actual inversion) or at
        #: drain entry (so a held frame can never deadlock a caller
        #: waiting on its reply).
        self._held: list[bytes] = []
        self.dead: str | None = None       # reason, once broken

    def _broken(self, reason: str) -> ShardUnavailableError:
        self.dead = self.dead or reason
        return ShardUnavailableError(self.shard, self.dead)

    def submit(self, method: str, *args) -> int:
        with self._lock:
            if self.dead:
                raise ShardUnavailableError(self.shard, self.dead)
            seq = self._seq + 1
            # Pickle before sending: a pickling error must surface
            # before any bytes hit the pipe, or the frame stream (and
            # the seq numbering) would be corrupt.
            payload = _dumps((seq, method, args))
            self._seq = seq
            try:
                action = faults.fire('rpc.send', method=method,
                                     shard=self.shard)
                if action == 'reorder':
                    self._held.append(payload)
                    return seq
                self.conn.send_bytes(payload)
                if action == 'dup':
                    self.conn.send_bytes(payload)
                self._flush_held()
            except (OSError, ValueError) as error:
                raise self._broken(f'send failed: {error}') from error
            return seq

    def _flush_held(self) -> None:
        """Send any reorder-held frames (after a later frame went out,
        completing the inversion — the worker re-sequences them)."""
        while self._held:
            self.conn.send_bytes(self._held.pop(0))

    def _wait_readable(self) -> None:
        """Bound the wait for the next reply frame (see class
        docstring).  The poll loop costs nothing on the happy path —
        ``poll`` returns the moment data arrives — and checks worker
        liveness between slices so a silent death is surfaced early."""
        if self.timeout is None:
            return                      # recv_bytes blocks natively
        deadline = time.monotonic() + self.timeout
        while not self.conn.poll(min(0.05, max(self.timeout, 0.001))):
            if self._liveness is not None and not self._liveness() \
                    and not self.conn.poll(0):
                raise self._broken('worker process died')
            if time.monotonic() >= deadline:
                raise self._broken(
                    f'no reply within {self.timeout:g}s '
                    f'(worker wedged or overloaded)')

    def drain(self, token: int):
        """The reply for ``token``: its value, or its raised error."""
        with self._lock:
            if self._held and not self.dead:
                try:
                    self._flush_held()
                except (OSError, ValueError) as error:
                    raise self._broken(
                        f'send failed: {error}') from error
            while token not in self._replies:
                if self.dead:
                    raise ShardUnavailableError(self.shard, self.dead)
                try:
                    self._wait_readable()
                    seq, ok, payload = pickle.loads(
                        self.conn.recv_bytes())
                except (EOFError, OSError) as error:
                    raise self._broken(
                        f'worker died mid-request ({error!r})'
                    ) from error
                self._replies[seq] = (ok, payload)
            ok, payload = self._replies.pop(token)
        if ok:
            return payload
        raise payload

    def call(self, method: str, *args):
        return self.drain(self.submit(method, *args))


class _PreparedToken(NamedTuple):
    """ProcessShard's prepare→apply handle: the worker-side slot id
    plus what apply repair needs — the shard's pre-commit LSN and the
    frozen commit record (``None`` without a WAL, or when the batch is
    empty and nothing will be appended)."""

    txn: int
    lsn: int
    record: tuple | None


class ProcessShard:
    """Coordinator-side client for one worker process.

    Presents the surface of a local shard (see ``LocalShard`` in
    :mod:`repro.rdbms.sharded`): the transaction pipeline,
    scatter-gather reads, and catalog operations.  The calls the
    coordinator fans out across shards come as pipelined ``send_*``
    variants, each returning the thunk that drains its reply.

    ``wal_path`` gives the worker a durable log (opened *inside* the
    worker); restart then recovers committed state by replay, and
    :meth:`send_apply_prepared` repairs a worker that died mid-apply (see
    the module docstring's Durability section).  ``rpc_timeout`` bounds
    each call's wait so a wedged worker surfaces as
    :class:`ShardUnavailableError`."""

    def __init__(self, index: int, schema, backend_spec, *,
                 batch_deltas: bool = True,
                 mp_context=None, wal_path=None, wal_sync: bool = True,
                 rpc_timeout: float | None = None):
        if isinstance(backend_spec, Backend):
            raise SchemaError(
                'process shards construct their backend inside the '
                'worker (connections must not cross the fork); pass a '
                'backend kind name, not an instance')
        self.index = index
        self._schema = schema
        self._spec = backend_spec
        self._batch_deltas = batch_deltas
        self._wal_path = Path(wal_path) if wal_path is not None else None
        self._wal_sync = wal_sync
        self._rpc_timeout = rpc_timeout
        self._ctx = mp_context or _default_context()
        self._txn_counter = 0
        #: restarts so far — the worker's fault-plan ``generation``
        self.generation = 0
        #: RPC round-trips completed on channels already torn down; a
        #: restart replaces the channel (whose sequence counter starts
        #: over), so the cumulative count lives here — see
        #: :attr:`rpc_requests`.
        self._rpc_retired = 0
        # Recovery journal for WAL-less shards: the catalog calls a
        # restarted worker replays (latest load per table; views in
        # definition order).  With a WAL the log itself is the journal.
        self._loads: dict[str, frozenset] = {}
        self._views: list[tuple] = []
        self.channel: _RpcChannel | None = None
        self.process = None
        self._spawn()

    # -- lifecycle ----------------------------------------------------

    def _spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.index, self._schema, self._spec,
                  self._batch_deltas, self._wal_path, self._wal_sync,
                  self.generation),
            name=f'repro-shard-{self.index}', daemon=True)
        process.start()
        child_conn.close()                 # the worker owns that end
        _COORDINATOR_CONNS.add(parent_conn)
        self.channel = _RpcChannel(parent_conn, self.index,
                                   timeout=self._rpc_timeout,
                                   liveness=process.is_alive)
        self.process = process

    @property
    def alive(self) -> bool:
        return (self.channel is not None and not self.channel.dead
                and self.process is not None and self.process.is_alive())

    def restart(self) -> None:
        """Replace a dead (or wedged — ``_reap`` terminates it) worker
        with a fresh one.  With a WAL configured the new worker replays
        the committed prefix of ``shard-<i>.wal`` itself during
        construction — no committed transaction is lost.  Without one,
        the recorded catalog setup is replayed instead and committed
        deltas since the last bulk load are lost (the pre-WAL
        contract)."""
        self._reap()
        self.generation += 1
        self._spawn()
        if self._wal_path is not None:
            return                  # the log replay rebuilt everything
        for name, rows in self._loads.items():
            self.channel.call('load', name, rows)
        for view_args in self._views:
            self.channel.call('define_view', *view_args)

    @property
    def rpc_requests(self) -> int:
        """Total RPC requests ever sent to this shard (across worker
        generations)."""
        current = self.channel._seq if self.channel is not None else 0
        return self._rpc_retired + current

    def metrics(self) -> 'dict | None':
        """The worker's metrics snapshot (``None`` when the worker is
        unreachable — a dead shard contributes nothing to the merge)."""
        if self.channel is None or self.channel.dead:
            return None
        try:
            return self.channel.call('metrics')
        except ShardUnavailableError:
            return None

    def _reap(self) -> None:
        if self.channel is not None:
            self._rpc_retired += self.channel._seq
            try:
                self.channel.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            self.channel = None
        if self.process is not None:
            if self.process.is_alive():    # pragma: no cover - kill path
                self.process.terminate()
            self.process.join(timeout=5)
            self.process = None

    def close(self) -> None:
        """Idempotent worker shutdown: ask politely, then reap."""
        if self.channel is not None and not self.channel.dead:
            try:
                self.channel.call('close')
            except ShardUnavailableError:
                pass
        self._reap()

    # -- transaction pipeline (pipelined where the router allows) -----

    def _send(self, method: str, *args) -> Callable[[], object]:
        """Submit ``method`` now and return the thunk that drains its
        reply — a blocking call split in two, so the coordinator can
        have every worker busy before it waits on any.  A failed submit
        fails in the thunk, at its place in the drain order."""
        channel = self.channel
        try:
            token = channel.submit(method, *args)
        except Exception as error:
            return functools.partial(_reraise, error)
        return functools.partial(channel.drain, token)

    def begin(self) -> int:
        # Synchronous (one RTT per first touch): begin cannot fail
        # logically, and a fire-and-forget token here would have no
        # barrier responsible for draining it.
        self._txn_counter += 1
        txn = self._txn_counter
        self.channel.call('begin', txn)
        return txn

    def send_apply_statements(self, txn: int, target: str, statements):
        return self._send('apply_statements', txn, target,
                          list(statements))

    def send_flush_reads(self, txn: int, target: str):
        return self._send('flush_reads', txn, target)

    def txn_rows(self, txn: int, target: str) -> frozenset:
        return self.channel.call('txn_rows', txn, target)

    def send_prepare_commit(self, txn: int):
        reply = self._send('prepare_commit', txn)
        return lambda: _PreparedToken(txn, *reply())

    def send_apply_prepared(self, prepared: _PreparedToken):
        reply = self._send('apply_prepared', prepared.txn)

        def applied() -> None:
            try:
                reply()
            except ShardUnavailableError:
                if not self._repair_apply(prepared):
                    raise
        return applied

    def _repair_apply(self, token: _PreparedToken) -> bool:
        """A worker died (or its channel broke) *during* apply — after
        sibling shards may already have applied.  With a WAL the
        outcome is decidable: restart the worker (its constructor
        replays the committed prefix) and compare LSNs against the
        prepare reply.  The append — the commit point — either made it
        (``lsn == token.lsn + 1``: done) or it did not (``lsn ==
        token.lsn``: re-commit the frozen record the coordinator kept).
        Either way the cluster transaction *succeeds*, keeping the
        shards convergent.  Returns ``False`` — caller re-raises — when
        repair is impossible (no WAL, an unexpected LSN, or the
        restarted worker failing too)."""
        if self._wal_path is None:
            return False
        try:
            self.restart()
            lsn = self.commit_lsn
            if token.record is None:
                return lsn == token.lsn    # nothing was to be appended
            if lsn == token.lsn + 1:
                return True                # commit point was reached
            if lsn == token.lsn:
                self.channel.call('commit_batch', token.record)
                return True
        except ShardUnavailableError:
            return False
        return False

    @property
    def commit_lsn(self) -> int:
        return self.channel.call('commit_lsn')

    def abort(self, txn: int) -> None:
        if self.channel is not None and not self.channel.dead:
            try:
                self.channel.call('abort', txn)
            except ShardUnavailableError:
                pass

    # -- storage / catalog --------------------------------------------

    def rows(self, name: str) -> frozenset:
        return self.channel.call('rows', name)

    def send_rows(self, name: str):
        return self._send('rows', name)

    def send_snapshot(self):
        return self._send('snapshot')

    def load(self, name: str, rows) -> None:
        self.send_load(name, rows)()

    def send_load(self, name: str, rows):
        rows = frozenset(tuple(r) for r in rows)
        reply = self._send('load', name, rows)

        def loaded() -> None:
            reply()
            if self._wal_path is None:  # with a WAL the log records it
                self._loads[name] = rows
        return loaded

    def count(self, name: str) -> int:
        return self.channel.call('count', name)

    def has_cache(self, name: str) -> bool:
        return self.channel.call('has_cache', name)

    def define_view(self, strategy, *, report=None,
                    use_incremental: bool = True, stats=None,
                    exist_ok: bool = False):
        args = (strategy, report, use_incremental, dict(stats or {}),
                exist_ok)
        entry = self.channel.call('define_view', *args)
        if self._wal_path is None:
            self._views.append(args)
        return entry

    def drop_view(self, name: str) -> None:
        self.channel.call('drop_view', name)
        self._views = [args for args in self._views
                       if args[0].view.name != name]


def _reraise(error: BaseException):
    raise error


def _default_context():
    """Fork where available (cheap, inherits the warmed import state);
    the platform default elsewhere.  The entry point is module-level
    and all arguments pickle, so spawn works too."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        'fork' if 'fork' in methods else None)


def _shutdown_shards(shards, owner_pid: int) -> None:
    """The pool finalizer.  Pid-guarded: a forked worker inherits this
    finalizer and must not run the coordinator's cleanup at its own
    exit (it would close its siblings' pipes)."""
    if os.getpid() != owner_pid:  # pragma: no cover - worker-side exit
        return
    for shard in shards:
        try:
            shard.close()
        except Exception:  # pragma: no cover - best-effort teardown
            pass


class ProcessPool:
    """N worker processes, one per shard, shut down idempotently on
    :meth:`shutdown`, coordinator GC, and interpreter exit (one
    pid-guarded ``weakref.finalize``, which Python also runs atexit)."""

    def __init__(self, schema, backend_specs: Sequence, *,
                 batch_deltas: bool = True, wal_paths=None,
                 wal_sync: bool = True, rpc_timeout: float | None = None):
        context = _default_context()
        if wal_paths is not None and len(wal_paths) != len(backend_specs):
            raise SchemaError(
                f'wal_paths must name one log per shard: got '
                f'{len(wal_paths)} for {len(backend_specs)} shards')
        self.shards = tuple(
            ProcessShard(index, schema, spec, batch_deltas=batch_deltas,
                         mp_context=context,
                         wal_path=(None if wal_paths is None
                                   else wal_paths[index]),
                         wal_sync=wal_sync, rpc_timeout=rpc_timeout)
            for index, spec in enumerate(backend_specs))
        self._finalizer = weakref.finalize(
            self, _shutdown_shards, self.shards, os.getpid())

    def restart_dead(self) -> list[int]:
        """Restart every dead worker; the restarted shard indices."""
        restarted = []
        for shard in self.shards:
            if not shard.alive:
                shard.restart()
                restarted.append(shard.index)
        return restarted

    def shutdown(self) -> None:
        if self._finalizer.detach() is not None:
            _shutdown_shards(self.shards, os.getpid())
