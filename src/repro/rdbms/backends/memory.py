"""The in-process backend: indexed Python sets, interpreted plans.

This preserves the original engine substrate exactly: tables and view
caches are :class:`~repro.datalog.evaluator.IndexedRelation` objects
whose hash indexes persist across updates and are maintained
incrementally on commit (the role PostgreSQL's B-trees play in the
paper's Figure 6 experiment), and every plan runs through the
slot-machine interpreter of :mod:`repro.datalog.evaluator`.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.core.incremental_get import post_state
from repro.datalog.ast import delete_pred, insert_pred
from repro.datalog.evaluator import IndexedRelation, OverlayRelation
from repro.datalog.pretty import pretty_rule
from repro.errors import ConstraintViolation, SchemaError
from repro.rdbms.backends.base import Backend
from repro.relational.database import Database
from repro.relational.delta import Delta, DeltaSet
from repro.relational.schema import DatabaseSchema

__all__ = ['MemoryBackend']


class MemoryBackend(Backend):
    """Mutable indexed sets; evaluation by the compiled-plan interpreter."""

    kind = 'memory'
    maintains_caches = True

    def __init__(self, schema: DatabaseSchema):
        super().__init__(schema)
        self._tables: dict[str, IndexedRelation] = {
            rel.name: IndexedRelation(set()) for rel in schema}
        self._caches: dict[str, IndexedRelation] = {}
        # relation -> hash-index masks declared by registered plans;
        # applied eagerly to tables and to view caches on (re)build.
        self._index_hints: dict[str, set[tuple[int, ...]]] = {}

    # -- storage ------------------------------------------------------

    def _apply_index_hints(self, name: str,
                           relation: IndexedRelation) -> None:
        for positions in self._index_hints.get(name, ()):
            relation.ensure_index(positions)

    def _relation(self, name: str) -> IndexedRelation:
        if name in self._tables:
            return self._tables[name]
        if name in self._caches:
            return self._caches[name]
        raise SchemaError(f'unknown or unmaterialised relation {name!r}')

    def load(self, name: str, rows: set) -> None:
        table = IndexedRelation(set(rows))
        self._apply_index_hints(name, table)
        self._tables[name] = table

    def rows(self, name: str):
        return self._relation(name).rows

    def snapshot(self) -> Database:
        return Database({name: frozenset(rel.rows)
                         for name, rel in self._tables.items()})

    def apply_delta(self, name: str, delta: Delta, *,
                    is_cache: bool) -> None:
        relation = self._caches[name] if is_cache else self._tables[name]
        for row in delta.deletions:
            relation.discard(row)
        for row in delta.insertions:
            relation.add(row)

    # -- view caches --------------------------------------------------

    def has_cache(self, name: str) -> bool:
        return name in self._caches

    def store_cache(self, name: str, rows: Iterable[tuple]) -> None:
        cached = IndexedRelation(set(rows))
        self._apply_index_hints(name, cached)
        self._caches[name] = cached

    def drop_cache(self, name: str) -> None:
        self._caches.pop(name, None)

    def evaluate_get_delta(self, entry, base_deltas) -> Delta:
        """One pass of ``∂get`` over the persistent relations: each
        source is read as itself (pre-state) and through an
        :class:`OverlayRelation` (post-state), the staged deltas made
        effective against storage first — ``∂get`` assumes ``-r ⊆ r``
        and ``+r ∩ r = ∅``, which a composed transaction delta (insert
        then delete a row) need not satisfy."""
        view = entry.name
        edb = {view: self._caches[view]}
        for name in entry.source_names:
            stored = self._tables[name]
            edb[name] = stored
            staged = base_deltas.get(name)
            if staged is None:
                edb[post_state(name)] = stored
                continue
            rows = stored.rows
            plus = {row for row in staged.insertions if row not in rows}
            minus = {row for row in staged.deletions if row in rows}
            edb[insert_pred(name)] = plus
            edb[delete_pred(name)] = minus
            edb[post_state(name)] = OverlayRelation(stored, plus, minus)
        goals = (insert_pred(view), delete_pred(view))
        output = entry.get_delta_plan.evaluate(edb, goals=goals)
        return Delta(output[goals[0]], output[goals[1]])

    # -- indexes ------------------------------------------------------

    def add_index_hint(self, name: str, positions: tuple[int, ...]) -> None:
        self._index_hints.setdefault(name, set()).add(positions)
        if name in self._tables:
            self._tables[name].ensure_index(positions)
        elif name in self._caches:
            self._caches[name].ensure_index(positions)

    # -- plan execution -----------------------------------------------

    def eval_handle(self, name: str):
        """The persistent indexed relation itself — evaluation shares
        its hash indexes, nothing is copied."""
        return self._relation(name)

    def evaluate_get(self, entry, sources: Mapping[str, object]
                     ) -> frozenset:
        return self._interp_get(entry, sources)

    def evaluate_incremental(self, entry, sources: Mapping[str, object],
                             view_handle, delta: Delta) -> DeltaSet:
        return self._interp_incremental(entry, sources, view_handle,
                                        delta)

    def evaluate_incremental_batch(self, entry,
                                   sources: Mapping[str, object],
                                   view_handle, delta: Delta, *,
                                   new_view_rows=None) -> DeltaSet:
        """One interpreted pass over the transaction's merged multi-row
        delta: a single plan context (one index/EDB setup) however many
        statements were coalesced.  The fused full constraint check
        runs directly over the live evaluation handles — no per-source
        freezing — and short-circuits at the first witness."""
        if new_view_rows is not None and entry.strategy.constraints():
            edb = self._interp_edb(sources)
            edb[entry.name] = new_view_rows
            violations = entry.strategy.putdelta_plan \
                .constraint_violations(edb, first_witness=True)
            if violations:
                rule, witness = violations[0]
                raise ConstraintViolation(pretty_rule(rule), witness)
        return self._interp_incremental(entry, sources, view_handle,
                                        delta)

    def evaluate_putback(self, entry, sources: Mapping[str, object],
                         new_view_rows, *,
                         check_constraints: bool = False) -> DeltaSet:
        return self._interp_putback(entry, sources, new_view_rows,
                                    check_constraints=check_constraints)

    def check_view_constraints(self, entry,
                               sources: Mapping[str, object],
                               new_view_rows) -> None:
        self._interp_check_constraints(entry, sources, new_view_rows)
