"""The SQLite backend: tables in SQLite, compiled plans run as SQL.

This is the reproduction's analogue of how BIRDS actually deploys (the
paper's strategies run *inside PostgreSQL* as generated triggers): base
tables and materialised view caches live as SQLite tables, and the
nonrecursive plans a view needs — the ``get`` definition, the
incrementalized putback ``∂put``, the full putback, and every
⊥-constraint — are lowered to SQL text **once**, at ``define_view``
time, then executed on every subsequent update.  The compile-once
discipline of the plan layer carries over unchanged: ``register_view``
is the ``CREATE TRIGGER``, statement execution is pure ``SELECT``.

Execution model
---------------

Compiled queries reference relations by their unqualified names.  At
evaluation time, every input the engine's transaction has *staged*
(view deltas ``+v``/``-v``, overlay states of already-written
relations) is loaded into a ``TEMP`` table of the same name — SQLite
resolves unqualified names against the ``temp`` schema first, so staged
state transparently shadows the stored tables, exactly like the
evaluator's EDB-shadowing semantics.  Unstaged relations are read in
place; in the steady state an incremental update therefore stages only
the O(|ΔV|) delta rows.

Programs the SQL lowering cannot express (an unbound builtin operand,
an operator outside the translatable fragment) fall back, per program,
to the shared interpreted execution of :class:`~repro.rdbms.backends.
base.Backend` — rows are pulled out of SQLite and the compiled
:class:`ExecutionPlan` runs in process.
"""

from __future__ import annotations

import functools
import sqlite3
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.datalog.ast import Program, Rule, delete_pred, insert_pred
from repro.datalog.pretty import pretty_rule
from repro.errors import ConstraintViolation, ReproError, SchemaError
from repro.rdbms.backends.base import Backend, StoredRelation
from repro.relational.database import Database
from repro.relational.delta import Delta, DeltaSet
from repro.relational.schema import DatabaseSchema
from repro.sql.translate import (SQLITE, ColumnNamer, constraint_to_sql,
                                 query_to_sql, sql_ident)

__all__ = ['SQLiteBackend']


@dataclass
class _ProgramSQL:
    """One Datalog program lowered to per-goal SQL, plus everything
    needed to stage its inputs (computed once, at compile time)."""

    delta_sql: tuple[tuple[str, str], ...]        # (goal, sql)
    constraint_sql: tuple[tuple[Rule, str], ...]  # (⊥-rule, witness sql)
    edb: frozenset                                # input relation names
    columns: dict                                 # edb name -> column tuple


@dataclass
class _CompiledView:
    """The compile-once SQL artifact bundle for one registered view."""

    get: _ProgramSQL | None = None
    incremental: _ProgramSQL | None = None
    putback: _ProgramSQL | None = None
    fallbacks: list = field(default_factory=list)  # programs that didn't lower


def _quoted(columns: Iterable[str]) -> str:
    return ', '.join(f'"{c}"' for c in columns)


def _locked(method):
    """Serialise a backend method on the instance mutex: the backend's
    one connection is shared by every calling thread, and the mutex
    keeps their statements (and TEMP staging shadows) from
    interleaving and the Python-side row cache consistent."""
    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._mutex:
            return method(self, *args, **kwargs)
    return wrapper


class SQLiteBackend(Backend):
    """Relational storage + SQL plan execution on a SQLite database.

    Thread model: one connection, opened with
    ``check_same_thread=False`` so any thread may use it, and every
    SQL-touching method serialised on a per-backend mutex.  Use after
    :meth:`close` raises :class:`~repro.errors.SchemaError`."""

    kind = 'sqlite'

    #: how many relations' row images the Python-side read cache holds
    ROWS_CACHE_RELATIONS = 64

    def __init__(self, schema: DatabaseSchema, path: str = ':memory:'):
        super().__init__(schema)
        self.path = path
        self._mutex = threading.RLock()
        self._closed = False
        self._connection = sqlite3.connect(path, isolation_level=None,
                                           check_same_thread=False)
        self._connection.execute('PRAGMA synchronous=OFF')
        self._base_names = frozenset(rel.name for rel in schema)
        self._cache_names: set[str] = set()
        self._view_attrs: dict[str, tuple[str, ...]] = {}
        self._compiled: dict[str, _CompiledView] = {}
        self._index_hints: dict[str, set[tuple[int, ...]]] = {}
        # Python-side row images of stored tables, maintained O(|Δ|)
        # across commits; purely a bounded LRU read cache, rebuilt from
        # SQLite on miss, so SQLite remains the source of truth and the
        # Python footprint stays capped for bigger-than-memory data.
        self._rows_cache: OrderedDict[str, frozenset] = OrderedDict()
        for rel in schema:
            self._create_table(rel.name, rel.attributes)

    @property
    def _conn(self) -> sqlite3.Connection:
        if self._closed:
            raise SchemaError(f'backend for {self.path!r} is closed')
        return self._connection

    def _cache_rows(self, name: str, rows: frozenset) -> None:
        cache = self._rows_cache
        cache[name] = rows
        cache.move_to_end(name)
        while len(cache) > self.ROWS_CACHE_RELATIONS:
            cache.popitem(last=False)

    # -- DDL helpers --------------------------------------------------

    def _create_table(self, name: str, columns: tuple[str, ...]) -> None:
        # Columns carry no type affinity so values round-trip exactly
        # (REAL affinity would coerce the ints `validate_tuple` accepts
        # for float columns); the all-column primary key gives set
        # semantics and keyed deletes.
        cols = ', '.join(f'"{c}"' for c in columns)
        self._conn.execute(
            f'CREATE TABLE "{sql_ident(name)}" ({cols}, '
            f'PRIMARY KEY ({_quoted(columns)})) WITHOUT ROWID')

    def _columns_of(self, name: str) -> tuple[str, ...]:
        if name in self._view_attrs:
            return self._view_attrs[name]
        if name in self.schema:
            return self.schema[name].attributes
        raise SchemaError(f'unknown relation {name!r}')

    def _build_indexes(self, name: str) -> None:
        ident = sql_ident(name)
        columns = self._columns_of(name)
        for positions in self._index_hints.get(name, ()):
            suffix = '_'.join(str(p) for p in positions)
            cols = _quoted(columns[p] for p in positions)
            self._conn.execute(
                f'CREATE INDEX IF NOT EXISTS "ix_{ident}_{suffix}" '
                f'ON "{ident}" ({cols})')

    # -- storage ------------------------------------------------------

    def _stored(self, name: str) -> bool:
        return name in self._base_names or name in self._cache_names

    @_locked
    def load(self, name: str, rows: set) -> None:
        ident = sql_ident(name)
        arity = len(self._columns_of(name))
        marks = ', '.join('?' * arity)
        cur = self._conn.cursor()
        cur.execute('BEGIN')
        cur.execute(f'DELETE FROM "{ident}"')
        cur.executemany(f'INSERT OR IGNORE INTO "{ident}" '
                        f'VALUES ({marks})', list(rows))
        cur.execute('COMMIT')
        self._cache_rows(name, frozenset(rows))

    @_locked
    def rows(self, name: str):
        cached = self._rows_cache.get(name)
        if cached is None:
            if not self._stored(name):
                raise SchemaError(
                    f'unknown or unmaterialised relation {name!r}')
            cur = self._conn.execute(
                f'SELECT * FROM "{sql_ident(name)}"')
            cached = frozenset(map(tuple, cur))
        self._cache_rows(name, cached)
        return cached

    @_locked
    def snapshot(self) -> Database:
        return Database({name: self.rows(name)
                         for name in sorted(self._base_names)})

    @_locked
    def count(self, name: str) -> int:
        cached = self._rows_cache.get(name)
        if cached is not None:
            return len(cached)
        if not self._stored(name):
            raise SchemaError(
                f'unknown or unmaterialised relation {name!r}')
        (n,), = self._conn.execute(
            f'SELECT COUNT(*) FROM "{sql_ident(name)}"')
        return n

    def _apply_one(self, cur, name: str, delta: Delta) -> None:
        ident = sql_ident(name)
        columns = self._columns_of(name)
        marks = ', '.join('?' * len(columns))
        where = ' AND '.join(f'"{c}" = ?' for c in columns)
        if delta.deletions:
            cur.executemany(f'DELETE FROM "{ident}" WHERE {where}',
                            list(delta.deletions))
        if delta.insertions:
            cur.executemany(f'INSERT OR IGNORE INTO "{ident}" '
                            f'VALUES ({marks})', list(delta.insertions))

    @_locked
    def apply_delta(self, name: str, delta: Delta, *,
                    is_cache: bool) -> None:
        self.apply_deltas([(name, delta, is_cache)])

    @_locked
    def apply_deltas(self, deltas) -> None:
        """One SQL transaction for the whole commit batch: either every
        relation's delta is durably applied or none is; the Python-side
        row images are refreshed only after a successful COMMIT."""
        cur = self._conn.cursor()
        cur.execute('BEGIN')
        try:
            for name, delta, _is_cache in deltas:
                self._apply_one(cur, name, delta)
        except BaseException:
            cur.execute('ROLLBACK')
            raise
        cur.execute('COMMIT')
        for name, delta, _is_cache in deltas:
            cached = self._rows_cache.get(name)
            if cached is not None:
                self._cache_rows(name, (cached - delta.deletions)
                                 | delta.insertions)

    # -- view caches --------------------------------------------------

    def has_cache(self, name: str) -> bool:
        return name in self._cache_names

    @_locked
    def store_cache(self, name: str, rows: Iterable[tuple]) -> None:
        rows = set(rows)
        ident = sql_ident(name)
        self._conn.execute(f'DROP TABLE IF EXISTS "{ident}"')
        self._create_table(name, self._columns_of(name))
        arity = len(self._columns_of(name))
        marks = ', '.join('?' * arity)
        cur = self._conn.cursor()
        cur.execute('BEGIN')
        cur.executemany(f'INSERT OR IGNORE INTO "{ident}" '
                        f'VALUES ({marks})', list(rows))
        cur.execute('COMMIT')
        self._cache_names.add(name)
        self._cache_rows(name, frozenset(rows))
        self._build_indexes(name)

    @_locked
    def drop_cache(self, name: str) -> None:
        if name in self._cache_names:
            self._conn.execute(
                f'DROP TABLE IF EXISTS "{sql_ident(name)}"')
            self._cache_names.discard(name)
        self._rows_cache.pop(name, None)

    # -- indexes ------------------------------------------------------

    @_locked
    def add_index_hint(self, name: str, positions: tuple[int, ...]) -> None:
        self._index_hints.setdefault(name, set()).add(positions)
        if self._stored(name):
            self._build_indexes(name)

    # -- compile-once SQL lowering ------------------------------------

    @_locked
    def register_view(self, entry) -> None:
        self._view_attrs[entry.name] = entry.schema.attributes
        namer = ColumnNamer(self.schema, extra=dict(self._view_attrs))
        compiled = _CompiledView()
        compiled.get = self._lower_query(entry.get_program, namer,
                                         goals=(entry.name,),
                                         label='get',
                                         compiled=compiled)
        if entry.incremental_program is not None:
            compiled.incremental = self._lower_query(
                entry.incremental_program, namer,
                goals=entry.incremental_plan.delta_goals,
                label='incremental putback', compiled=compiled)
        compiled.putback = self._lower_query(
            entry.strategy.putdelta, namer,
            goals=entry.strategy.putdelta_plan.delta_goals,
            label='putback', compiled=compiled)
        self._compiled[entry.name] = compiled

    def _lower_query(self, program: Program, namer: ColumnNamer,
                     goals, label: str,
                     compiled: _CompiledView) -> _ProgramSQL | None:
        """Lower one program (goals + its ⊥-rules) or record a fallback."""
        try:
            delta_sql = tuple(
                (goal, query_to_sql(program, goal, namer, dialect=SQLITE))
                for goal in goals)
            constraint_sql = tuple(
                (rule, constraint_to_sql(program, rule, namer,
                                         dialect=SQLITE))
                for rule in program.constraints())
        except ReproError as exc:
            compiled.fallbacks.append((label, str(exc)))
            return None
        arities = program.arities()
        edb = frozenset(program.edb_preds())
        columns = {name: namer.columns(name, arities.get(name, 0))
                   for name in edb}
        return _ProgramSQL(delta_sql=delta_sql,
                           constraint_sql=constraint_sql,
                           edb=edb, columns=columns)

    # -- staged SQL execution -----------------------------------------

    def _staging_plan(self, prog: _ProgramSQL,
                      inputs: Mapping[str, object]) -> dict[str, tuple]:
        """Which EDB relations must be loaded as TEMP tables: explicitly
        provided row sets (staged transaction state, view deltas) plus
        any input with no stored table behind it (reads as empty)."""
        staged: dict[str, tuple] = {}
        for name in prog.edb:
            handle = inputs.get(name)
            if isinstance(handle, StoredRelation):
                continue                      # read the table in place
            if handle is not None:
                staged[name] = tuple(handle)
            elif not self._stored(name):
                staged[name] = ()             # undefined EDB: empty
        return staged

    @contextmanager
    def _staged(self, prog: _ProgramSQL, inputs: Mapping[str, object]):
        """A cursor with every staged input loaded as a TEMP shadow of
        its relation name; the shadows are dropped on exit."""
        staged = self._staging_plan(prog, inputs)
        cur = self._conn.cursor()
        created: list[str] = []
        try:
            for name, rows in staged.items():
                ident = sql_ident(name)
                columns = prog.columns[name]
                cur.execute(f'CREATE TEMP TABLE "{ident}" '
                            f'({_quoted(columns)})')
                created.append(ident)
                if rows:
                    marks = ', '.join('?' * len(columns))
                    cur.executemany(
                        f'INSERT OR IGNORE INTO temp."{ident}" '
                        f'VALUES ({marks})', list(rows))
            yield cur
        finally:
            for ident in created:
                cur.execute(f'DROP TABLE IF EXISTS temp."{ident}"')

    @staticmethod
    def _check_constraints_on(cur, prog: _ProgramSQL) -> None:
        # fetchone: SQLite produces witness rows lazily, so the check
        # short-circuits at the first violation instead of
        # materialising every witness.
        for rule, sql in prog.constraint_sql:
            witness = cur.execute(sql).fetchone()
            if witness is not None:
                raise ConstraintViolation(pretty_rule(rule),
                                          tuple(witness))

    @staticmethod
    def _deltas_on(cur, prog: _ProgramSQL, entry) -> DeltaSet:
        output = {goal: {tuple(r) for r in cur.execute(sql)}
                  for goal, sql in prog.delta_sql}
        return DeltaSet.from_database(
            Database(output),
            relations=entry.strategy.updated_relations())

    # -- plan execution -----------------------------------------------

    def eval_handle(self, name: str):
        return StoredRelation(name)

    def _eval_input(self, handle):
        """Interpreter fallback: resolve stored-table markers to rows."""
        if isinstance(handle, StoredRelation):
            return self.rows(handle.name)
        return handle

    def _demote(self, view: str, label: str, exc: Exception) -> None:
        """Compiled SQL failed at *execution* time: permanently route
        this program to the interpreter (the failure is deterministic —
        the same text would fail on every statement) and record why."""
        compiled = self._compiled[view]
        setattr(compiled, label, None)
        compiled.fallbacks.append((label, f'runtime: {exc}'))

    @_locked
    def evaluate_get(self, entry, sources: Mapping[str, object]
                     ) -> frozenset:
        prog = self._compiled[entry.name].get
        if prog is None:
            return self._interp_get(entry, sources)
        try:
            (_, sql), = prog.delta_sql
            with self._staged(prog, sources) as cur:
                return frozenset(tuple(r) for r in cur.execute(sql))
        except sqlite3.Error as exc:
            self._demote(entry.name, 'get', exc)
            return self._interp_get(entry, sources)

    @_locked
    def evaluate_incremental(self, entry, sources: Mapping[str, object],
                             view_handle, delta: Delta) -> DeltaSet:
        prog = self._compiled[entry.name].incremental
        if prog is None:
            return self._interp_incremental(entry, sources, view_handle,
                                            delta)
        name = entry.name
        inputs = dict(sources)
        inputs[insert_pred(name)] = delta.insertions
        inputs[delete_pred(name)] = delta.deletions
        inputs[name] = view_handle
        try:
            with self._staged(prog, inputs) as cur:
                self._check_constraints_on(cur, prog)
                return self._deltas_on(cur, prog, entry)
        except sqlite3.Error as exc:
            self._demote(name, 'incremental', exc)
            return self._interp_incremental(entry, sources, view_handle,
                                            delta)

    # Batched execution: the inherited evaluate_incremental_batch
    # (one evaluate_incremental call per transaction with the merged
    # multi-row delta) already gives the SQL shape the batch pipeline
    # wants — the whole batch of coalesced +v/-v rows stages as a
    # single multi-row TEMP shadow per relation and every view goal
    # runs one SELECT, no per-statement TEMP churn (asserted by the
    # SQL-trace test in tests/test_backends.py).

    @_locked
    def evaluate_putback(self, entry, sources: Mapping[str, object],
                         new_view_rows, *,
                         check_constraints: bool = False) -> DeltaSet:
        prog = self._compiled[entry.name].putback
        if prog is None:
            return self._interp_putback(entry, sources, new_view_rows,
                                        check_constraints=check_constraints)
        inputs = dict(sources)
        inputs[entry.name] = new_view_rows
        try:
            with self._staged(prog, inputs) as cur:
                if check_constraints:
                    self._check_constraints_on(cur, prog)
                return self._deltas_on(cur, prog, entry)
        except sqlite3.Error as exc:
            self._demote(entry.name, 'putback', exc)
            return self._interp_putback(entry, sources, new_view_rows,
                                        check_constraints=check_constraints)

    @_locked
    def check_view_constraints(self, entry,
                               sources: Mapping[str, object],
                               new_view_rows) -> None:
        prog = self._compiled[entry.name].putback
        if prog is None:
            self._interp_check_constraints(entry, sources, new_view_rows)
            return
        if not prog.constraint_sql:
            return                    # nothing to check: skip staging
        inputs = dict(sources)
        inputs[entry.name] = new_view_rows
        try:
            with self._staged(prog, inputs) as cur:
                self._check_constraints_on(cur, prog)
        except sqlite3.Error as exc:
            self._demote(entry.name, 'putback', exc)
            self._interp_check_constraints(entry, sources, new_view_rows)

    # -- introspection / lifecycle ------------------------------------

    def lowering_fallbacks(self, view: str) -> list:
        """``(program_label, reason)`` pairs for every plan of ``view``
        that executes interpreted because SQL lowering failed."""
        return list(self._compiled[view].fallbacks)

    def compiled_sql(self, view: str) -> dict[str, str]:
        """The cached SQL texts for ``view`` (debugging / tests)."""
        out: dict[str, str] = {}
        compiled = self._compiled[view]
        for label, prog in (('get', compiled.get),
                            ('incremental', compiled.incremental),
                            ('putback', compiled.putback)):
            if prog is None:
                continue
            for goal, sql in prog.delta_sql:
                out[f'{label}:{goal}'] = sql
            for rule, sql in prog.constraint_sql:
                out[f'{label}:⊥:{pretty_rule(rule)}'] = sql
        return out

    def close(self) -> None:
        """Close the connection (idempotent)."""
        with self._mutex:
            if self._closed:
                return
            self._closed = True
            # Stale Python-side row images must not outlive the
            # database they mirror: post-close reads should fail,
            # not answer from cache.
            self._rows_cache.clear()
            self._connection.close()
