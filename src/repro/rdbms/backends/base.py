"""The storage/execution interface behind :class:`repro.rdbms.engine.
Engine`.

A :class:`Backend` owns everything the engine used to do directly
against :class:`~repro.datalog.evaluator.IndexedRelation` objects:

* base-table storage (bulk load, row access, frozen snapshots, applying
  committed deltas in place);
* materialised view caches (store/drop/apply-delta);
* the persistent index hints declared by compiled plans;
* plan evaluation — the view-definition ``get``, the incrementalized
  putback ``∂put``, the full putback, and ⊥-constraint checks.

The engine's transaction pipeline is backend-agnostic: it stages deltas
in Python, hands the backend *evaluation handles* for whatever each
evaluation must read (see :meth:`Backend.eval_handle`), and commits the
accumulated deltas through :meth:`Backend.apply_delta`.

Two implementations ship: :class:`~repro.rdbms.backends.memory.
MemoryBackend` (indexed Python sets, the original engine substrate) and
:class:`~repro.rdbms.backends.sqlite.SQLiteBackend` (tables in SQLite,
plans lowered to SQL once per view).  The interpreted execution paths
live here as ``_interp_*`` helpers so every backend can fall back to
them for programs its native execution cannot express.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.datalog.ast import delete_pred, insert_pred
from repro.datalog.pretty import pretty_rule
from repro.errors import ConstraintViolation
from repro.relational.database import Database
from repro.relational.delta import Delta, DeltaSet
from repro.relational.schema import DatabaseSchema

if TYPE_CHECKING:  # pragma: no cover - import cycle with engine.py
    from repro.rdbms.engine import ViewEntry

__all__ = ['Backend', 'StoredRelation']


class StoredRelation:
    """Evaluation handle meaning "read relation ``name`` from the
    backend's own storage" — the unstaged case.  Backends whose storage
    the interpreter cannot read directly (SQLite) return these from
    :meth:`Backend.eval_handle` and resolve them at evaluation time;
    staged relations always arrive as plain row sets."""

    __slots__ = ('name',)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return f'StoredRelation({self.name!r})'


class Backend(ABC):
    """Pluggable storage + plan-execution substrate for the engine."""

    #: short name used by ``--backend`` flags and ``REPRO_BACKEND``
    kind: str = '?'

    #: Does :meth:`evaluate_get_delta` work here?  Without it a base
    #: write under a materialised view drops the view's cache and the
    #: next read re-evaluates the whole ``get``.
    maintains_caches: bool = False

    def __init__(self, schema: DatabaseSchema):
        self.schema = schema

    # -- storage ------------------------------------------------------

    @abstractmethod
    def load(self, name: str, rows: set) -> None:
        """Replace the contents of base table ``name`` (rows are already
        schema-validated by the engine)."""

    @abstractmethod
    def rows(self, name: str):
        """Current contents of a base table or a stored view cache, as a
        set-like object.  Treat the result as read-only; it may be live
        backend state (memory) or a frozen copy (SQLite)."""

    @abstractmethod
    def snapshot(self) -> Database:
        """A frozen snapshot of all base tables."""

    def count(self, name: str) -> int:
        """Cardinality of a stored table or view cache.  The default
        counts :meth:`rows`; backends with a cheaper native count
        (``COUNT(*)``) override."""
        return len(self.rows(name))

    @abstractmethod
    def apply_delta(self, name: str, delta: Delta, *,
                    is_cache: bool) -> None:
        """Apply one committed delta in place (deletions first, then
        insertions — matching set semantics ``(R \\ Δ⁻) ∪ Δ⁺``)."""

    def apply_deltas(self, deltas: Sequence[tuple[str, Delta, bool]]
                     ) -> None:
        """Apply one transaction's deltas — ``(name, delta, is_cache)``
        triples.  Backends with a durable medium override this to make
        the whole batch atomic (the SQLite backend wraps it in one SQL
        transaction); the default applies them in order."""
        for name, delta, is_cache in deltas:
            self.apply_delta(name, delta, is_cache=is_cache)

    # -- view caches --------------------------------------------------

    @abstractmethod
    def has_cache(self, name: str) -> bool:
        """Is a materialisation of view ``name`` currently stored?"""

    @abstractmethod
    def store_cache(self, name: str, rows: Iterable[tuple]) -> None:
        """Store (or replace) the materialisation of view ``name``."""

    @abstractmethod
    def drop_cache(self, name: str) -> None:
        """Invalidate the stored materialisation of ``name`` (no-op when
        absent)."""

    def evaluate_get_delta(self, entry: 'ViewEntry',
                           base_deltas: Mapping[str, object]) -> Delta:
        """Evaluate the view's ``∂get`` (``entry.get_delta_plan``): the
        delta that takes its stored cache to ``get`` of the post-commit
        state, given one transaction's staged base deltas (``name →``
        an object with ``insertions``/``deletions``, not necessarily
        effective) against the still-untouched storage.  Only called
        when :attr:`maintains_caches` is true."""
        raise NotImplementedError

    # -- indexes ------------------------------------------------------

    @abstractmethod
    def add_index_hint(self, name: str, positions: tuple[int, ...]) -> None:
        """A compiled plan will probe ``name`` on ``positions``: build
        the matching access structure now and maintain it across
        updates and cache rebuilds."""

    # -- plan execution -----------------------------------------------

    def register_view(self, entry: 'ViewEntry') -> None:
        """Called once per :meth:`Engine.define_view` — the backend's
        chance to compile the view's plans into its native execution
        form (the SQLite backend lowers them to SQL here)."""

    @abstractmethod
    def eval_handle(self, name: str):
        """What plan evaluation should read for an *unstaged* relation:
        an object the interpreter accepts directly (memory hands out its
        persistent :class:`IndexedRelation`) or a :class:`StoredRelation`
        marker the backend resolves itself."""

    @abstractmethod
    def evaluate_get(self, entry: 'ViewEntry',
                     sources: Mapping[str, object]) -> frozenset:
        """Evaluate the view definition over ``sources`` (a mapping of
        source name → evaluation handle) and return the view rows."""

    @abstractmethod
    def evaluate_incremental(self, entry: 'ViewEntry',
                             sources: Mapping[str, object],
                             view_handle, delta: Delta) -> DeltaSet:
        """Evaluate ``∂put`` over ``S ∪ {v, +v, -v}``; constraint rules
        carried by the incremental program are checked first (raising
        :class:`ConstraintViolation`)."""

    def evaluate_incremental_batch(self, entry: 'ViewEntry',
                                   sources: Mapping[str, object],
                                   view_handle, delta: Delta, *,
                                   new_view_rows=None) -> DeltaSet:
        """Evaluate ``∂put`` once over one transaction's *coalesced*
        view delta.

        The engine's batched pipeline composes every staged delta of a
        view (``Delta.then``) and calls this exactly once per touched
        view per transaction, with ``delta`` the merged multi-row
        effective delta — instead of once per statement bucket.  When
        ``new_view_rows`` is not ``None`` the strategy declares
        ⊥-constraints that the incremental program does not carry, and
        the backend must check them against ``(S, V')`` in the same
        pass (raising :class:`ConstraintViolation` before staging ΔS).

        The default delegates to :meth:`check_view_constraints` +
        :meth:`evaluate_incremental`; backends override to exploit the
        single-call shape (one plan context in memory, one multi-row
        TEMP stage per relation on SQLite)."""
        if new_view_rows is not None:
            self.check_view_constraints(entry, sources, new_view_rows)
        return self.evaluate_incremental(entry, sources, view_handle,
                                         delta)

    @abstractmethod
    def evaluate_putback(self, entry: 'ViewEntry',
                         sources: Mapping[str, object],
                         new_view_rows, *,
                         check_constraints: bool = False) -> DeltaSet:
        """Evaluate the full putback program over ``S ∪ {v'}``.

        With ``check_constraints``, the strategy's ⊥-rules are checked
        against the same staged inputs first (one staging/freeze pass
        for both steps), raising :class:`ConstraintViolation`."""

    @abstractmethod
    def check_view_constraints(self, entry: 'ViewEntry',
                               sources: Mapping[str, object],
                               new_view_rows) -> None:
        """Check the strategy's ⊥-constraints on ``(S, V')``, raising
        :class:`ConstraintViolation` on the first violation."""

    def close(self) -> None:
        """Release backend resources (connections, files)."""

    # -- interpreted execution (shared fallback) ----------------------
    #
    # These run the compiled ExecutionPlans through the in-process
    # interpreter.  MemoryBackend uses them as its primary execution
    # path; other backends fall back to them for programs their native
    # lowering cannot express.

    def _eval_input(self, handle):
        """Resolve an evaluation handle into something the interpreter
        reads (rows or an IndexedRelation).  Identity by default."""
        return handle

    def _interp_edb(self, sources: Mapping[str, object]) -> dict:
        return {name: self._eval_input(handle)
                for name, handle in sources.items()}

    def _frozen_sources(self, sources: Mapping[str, object]) -> Database:
        from repro.datalog.evaluator import IndexedRelation
        frozen: dict[str, frozenset] = {}
        for name, handle in sources.items():
            resolved = self._eval_input(handle)
            if isinstance(resolved, IndexedRelation):
                resolved = resolved.rows
            frozen[name] = frozenset(resolved)
        return Database(frozen)

    def _interp_get(self, entry: 'ViewEntry',
                    sources: Mapping[str, object]) -> frozenset:
        name = entry.name
        output = entry.get_plan.evaluate(self._interp_edb(sources),
                                         goals=(name,))
        return output[name]

    def _interp_incremental(self, entry: 'ViewEntry',
                            sources: Mapping[str, object],
                            view_handle, delta: Delta) -> DeltaSet:
        name = entry.name
        plan = entry.incremental_plan
        edb = self._interp_edb(sources)
        edb[insert_pred(name)] = delta.insertions
        edb[delete_pred(name)] = delta.deletions
        edb[name] = self._eval_input(view_handle)
        if plan.constraint_plans:
            violations = plan.constraint_violations(edb,
                                                    first_witness=True)
            if violations:
                rule, witness = violations[0]
                raise ConstraintViolation(pretty_rule(rule), witness)
        output = plan.evaluate(edb, goals=plan.delta_goals)
        return DeltaSet.from_database(
            output, relations=entry.strategy.updated_relations())

    def _interp_putback(self, entry: 'ViewEntry',
                        sources: Mapping[str, object],
                        new_view_rows, *,
                        check_constraints: bool = False) -> DeltaSet:
        frozen = self._frozen_sources(sources)
        if check_constraints:
            entry.strategy.check_constraints(frozen, new_view_rows)
        return entry.strategy.compute_delta(frozen, new_view_rows)

    def _interp_check_constraints(self, entry: 'ViewEntry',
                                  sources: Mapping[str, object],
                                  new_view_rows) -> None:
        entry.strategy.check_constraints(self._frozen_sources(sources),
                                         new_view_rows)
