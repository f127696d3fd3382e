"""Plan executor for nonrecursive Datalog with negation and builtins.

The static work — safety checks, stratification, literal scheduling,
binding-mask resolution — lives in :mod:`repro.datalog.plan`; this
module only *runs* compiled :class:`~repro.datalog.plan.ExecutionPlan`
objects against an EDB:

* :class:`ScanStep`s join through lazy hash indexes keyed on the
  pre-resolved bound-position masks (hash-join behaviour);
* fully bound probes short-circuit to set membership, answered top-down
  for IDB predicates that were never materialised — the key to O(|ΔV|)
  incremental updates (§5);
* variable bindings are flat slot arrays, not dictionaries: a compiled
  rule never hashes a variable name at run time.

Execution is two-tier.  The *generic* interpreter walks a rule plan's
step tuple with a recursive cursor — it runs anything, immediately,
with no setup cost.  A plan that executes a second time is **sealed**:
:func:`_seal_run` / :func:`_seal_probe` generate a flat Python function
specialised to that exact rule (slots become locals, binding masks and
key templates are inlined, the step dispatch disappears) and cache it
on the plan.  Sealing is what makes the per-transaction delta loops of
the RDBMS engine cheap — the same immutable plan is shared by every
shard of a thread-mode sharded engine, so one seal pays off across all
shards.  ``REPRO_SEALED=0`` disables sealing (the differential tests
and ``benchmarks/bench_hotpath.py`` compare the two tiers).

Semantics are set-based, matching §3.1.  The historical entry points
(:func:`evaluate`, :func:`evaluate_rule`, :func:`evaluate_query`,
:func:`holds`, :func:`constraint_violations`) are kept as thin wrappers
that compile (with memoization) and execute; long-lived callers such as
the RDBMS engine hold plans directly and skip the compile step
entirely.
"""

from __future__ import annotations

import os

from repro.datalog.ast import Program, Rule
from repro.datalog.plan import (BindStep, CompareStep, ExecutionPlan,
                                NegationStep, ProbeStep, RulePlan,
                                ScanStep, compile_program, compile_rule,
                                schedule_body)
from repro.errors import SchemaError
from repro.relational.database import Database

__all__ = ['evaluate', 'evaluate_rule', 'evaluate_query',
           'holds', 'constraint_violations', 'execute_plan',
           'execute_constraints', 'IndexedRelation', 'OverlayRelation']

Row = tuple

# Backwards-compatible alias: the binarizer schedules bodies with the
# same order-preserving greedy pass the evaluator historically used.
_schedule = schedule_body


#: Largest index bucket kept as a list (see :class:`IndexedRelation`).
_LIST_BUCKET_MAX = 8


class IndexedRelation:
    """A relation with lazily built hash indexes per bound-position mask.

    Fully-bound probes short-circuit to set membership so they never pay
    an index build.  Instances can be *persistent* (owned by the RDBMS
    engine and shared across evaluations): :meth:`add` / :meth:`discard`
    keep every built index consistent under mutation, so repeated
    incremental updates pay O(|Δ| · #indexes), not O(|R|).

    An index bucket is a list while it holds at most
    :data:`_LIST_BUCKET_MAX` rows (compact: most buckets hold one row),
    and an insertion-ordered dict used as a set (rows map to ``None``)
    once it outgrows that, so removing a row costs O(1) however large
    the bucket (a ``status = 'open'`` bucket holds half the table).
    Iteration follows insertion order either way, so first-witness
    searches stay deterministic."""

    __slots__ = ('rows', '_indexes')

    def __init__(self, rows):
        self.rows = rows
        self._indexes: dict[tuple[int, ...], dict] = {}

    def contains(self, row: tuple) -> bool:
        return row in self.rows

    def ensure_index(self, positions: tuple[int, ...]) -> None:
        """Build the hash index for ``positions`` now (a no-op when it
        already exists).  The engine calls this ahead of time for every
        mask a view's compiled plan declares."""
        if not positions or positions in self._indexes:
            return
        index: dict = {}
        for row in self.rows:
            index.setdefault(tuple(row[p] for p in positions),
                             []).append(row)
        for row_key, bucket in index.items():
            if len(bucket) > _LIST_BUCKET_MAX:
                index[row_key] = dict.fromkeys(bucket)
        self._indexes[positions] = index

    def lookup(self, positions: tuple[int, ...], key: tuple):
        """Rows whose values at ``positions`` equal ``key`` (an iterable
        of rows; treat it as read-only)."""
        if not positions:
            return self.rows
        index = self._indexes.get(positions)
        if index is None:
            self.ensure_index(positions)
            index = self._indexes[positions]
        return index.get(key, ())

    def exists(self, positions: tuple[int, ...], key: tuple,
               arity: int) -> bool:
        """Is there a row matching ``key`` at ``positions``?"""
        if len(positions) == arity:
            return tuple(key) in self.rows
        return bool(self.lookup(positions, key))

    # -- persistent-mode mutation (requires ``rows`` to be a set) -------

    def add(self, row: tuple) -> None:
        if row in self.rows:
            return
        self.rows.add(row)
        for positions, index in self._indexes.items():
            key = tuple(row[p] for p in positions)
            bucket = index.get(key)
            if bucket is None:
                index[key] = [row]
            elif bucket.__class__ is list:
                bucket.append(row)
                if len(bucket) > _LIST_BUCKET_MAX:
                    index[key] = dict.fromkeys(bucket)
            else:
                bucket[row] = None

    def discard(self, row: tuple) -> None:
        if row not in self.rows:
            return
        self.rows.discard(row)
        for positions, index in self._indexes.items():
            key = tuple(row[p] for p in positions)
            bucket = index.get(key)
            if bucket is None:
                continue
            if bucket.__class__ is list:
                try:
                    bucket.remove(row)
                except ValueError:
                    pass
            else:
                bucket.pop(row, None)
            if not bucket:
                del index[key]


class _OverlayRows:
    """The row set ``(base \\ minus) ∪ plus`` (membership and
    iteration) without copying ``base``."""

    __slots__ = ('base', 'plus', 'minus')

    def __init__(self, base, plus, minus):
        self.base = base
        self.plus = plus
        self.minus = minus

    def __contains__(self, row) -> bool:
        return row in self.plus or (row in self.base
                                    and row not in self.minus)

    def __iter__(self):
        minus = self.minus
        for row in self.base:
            if row not in minus:
                yield row
        yield from self.plus


class OverlayRelation(IndexedRelation):
    """A read-only relation ``(base \\ minus) ∪ plus`` served through
    ``base``'s persistent indexes: the post-state of a stored relation
    under a pending delta, as incremental view maintenance reads it
    before the delta is applied.  Requires ``minus ⊆ base`` and
    ``plus ∩ base = ∅`` (effective deltas).  A lookup costs the base
    bucket plus a hash probe into a lazily built index over ``plus``."""

    __slots__ = ('base',)

    def __init__(self, base: IndexedRelation, plus, minus):
        self.base = base
        self.rows = _OverlayRows(base.rows, plus, minus)
        self._indexes = {}          # positions -> index over ``plus``

    def lookup(self, positions: tuple[int, ...], key: tuple):
        if not positions:
            return self.rows
        rows = self.base.lookup(positions, key)
        minus = self.rows.minus
        if minus and rows:
            rows = [row for row in rows if row not in minus]
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            for row in self.rows.plus:
                index.setdefault(tuple(row[p] for p in positions),
                                 []).append(row)
            self._indexes[positions] = index
        added = index.get(key)
        return [*rows, *added] if added else rows


# Backwards-compatible internal alias.
_IndexedRelation = IndexedRelation


class _Unbound:
    __slots__ = ()

    def __repr__(self):
        return '<unbound>'


_UNBOUND = _Unbound()


def _compare(op: str, left, right) -> bool:
    """Evaluate a builtin comparison, guarding against cross-type compares."""
    if op == '=':
        return left == right
    numeric = (int, float)
    if isinstance(left, bool) or isinstance(right, bool):
        raise SchemaError('booleans are not comparable domain values')
    if isinstance(left, numeric) and isinstance(right, numeric):
        pass
    elif isinstance(left, str) and isinstance(right, str):
        pass
    else:
        raise SchemaError(
            f'cannot compare {left!r} with {right!r}: mixed types')
    if op == '<':
        return left < right
    if op == '>':
        return left > right
    if op == '<=':
        return left <= right
    if op == '>=':
        return left >= right
    raise SchemaError(f'unknown comparison operator {op!r}')


class _PlanContext:
    """Shared relation store for one plan execution.

    Accepts a :class:`Database` or a plain ``{name: rows}`` mapping whose
    values may be sets/frozensets or pre-indexed :class:`IndexedRelation`
    objects (the RDBMS engine shares its persistent indexes this way).

    IDB relations are materialised *on demand*: a scan of a predicate
    materialises it (and its dependencies), while fully-bound probes of
    an unmaterialised predicate are answered top-down without
    materialising anything."""

    __slots__ = ('_store', 'plan', '_idb', '_materialized', '_in_progress',
                 '_probe_cache')

    def __init__(self, edb, plan: ExecutionPlan | None = None):
        self._store: dict[str, IndexedRelation] = {}
        if isinstance(edb, Database):
            items = edb.relations.items()
        else:
            items = edb.items()
        for name, rows in items:
            if isinstance(rows, IndexedRelation):
                self._store[name] = rows
            else:
                self._store[name] = IndexedRelation(rows)
        self.plan = plan
        self._idb: frozenset = plan.idb if plan is not None else frozenset()
        self._materialized: set[str] = set()
        self._in_progress: set[str] = set()
        self._probe_cache: dict[tuple[str, tuple], bool] = {}
        # Shadowing: IDB names hide same-named EDB input relations.
        for name in self._idb & set(self._store):
            del self._store[name]

    def is_pending_idb(self, name: str) -> bool:
        return name in self._idb and name not in self._materialized

    def relation(self, name: str) -> IndexedRelation:
        if self.is_pending_idb(name):
            self.materialize(name)
        rel = self._store.get(name)
        if rel is None:
            rel = IndexedRelation(frozenset())
            self._store[name] = rel
        return rel

    def materialize(self, name: str) -> None:
        if name in self._in_progress:
            from repro.errors import RecursionError_
            raise RecursionError_(f'cycle through predicate {name!r}')
        self._in_progress.add(name)
        try:
            rows: set[Row] = set()
            for rule_plan in self.plan.rules_for(name):
                _run_rule(rule_plan, self, rows)
            self._store[name] = IndexedRelation(frozenset(rows))
            self._materialized.add(name)
        finally:
            self._in_progress.discard(name)

    def probe(self, name: str, row: tuple) -> bool:
        """Top-down existence check of ``name(row)`` for a pending IDB
        predicate — no materialisation.  Results are memoized for the
        lifetime of the context (the relation store is fixed during one
        plan execution), so repeated fully-bound probes of the same
        pending atom never re-run the rule plans."""
        key = (name, row)
        cached = self._probe_cache.get(key)
        if cached is not None:
            return cached
        result = False
        for rule_plan in self.plan.rules_for(name):
            if _probe_rule(rule_plan, self, row):
                result = True
                break
        self._probe_cache[key] = result
        return result

    def set_relation(self, name: str, rows) -> None:
        self._store[name] = IndexedRelation(rows)
        self._materialized.add(name)
        self._probe_cache.clear()       # probes may depend on old rows

    def snapshot(self, names) -> Database:
        return Database({name: frozenset(self._store[name].rows)
                         for name in names if name in self._store})


# ---------------------------------------------------------------------------
# Step execution
# ---------------------------------------------------------------------------


#: Generic runs before a rule plan is sealed into generated code.  One
#: free run keeps one-shot plans (the validation solver's throwaway
#: rules) from paying the ~50µs compile; anything the engine executes
#: per transaction seals on its second use.
_SEAL_THRESHOLD = 1

#: ``REPRO_SEALED=0`` pins the generic interpreter (reference tier).
_SEALING = os.environ.get('REPRO_SEALED', '1').strip().lower() \
    not in ('0', 'false', 'off')


def _run_rule(rule_plan: RulePlan, ctx: _PlanContext, out: set[Row],
              limit: int | None = None) -> None:
    """Run one compiled rule bottom-up, adding head rows to ``out``.

    With ``limit``, enumeration stops as soon as ``out`` holds that many
    rows — the early-exit mode constraint checking uses to stop at the
    first witness instead of materialising every violation."""
    if _SEALING:
        sealed = rule_plan.sealed
        if sealed is None:
            sealed = [0, 0]
            object.__setattr__(rule_plan, 'sealed', sealed)
        fn = sealed[0]
        if fn.__class__ is int:
            if fn < _SEAL_THRESHOLD:
                sealed[0] = fn + 1
                return _run_rule_generic(rule_plan, ctx, out, limit)
            fn = _seal_run(rule_plan)
            sealed[0] = fn
        return fn(ctx, out, limit)
    return _run_rule_generic(rule_plan, ctx, out, limit)


def _probe_rule(rule_plan: RulePlan, ctx: _PlanContext,
                row: tuple) -> bool:
    """Top-down: can this rule derive ``row``?  Uses the probe schedule,
    compiled with every head variable pre-bound."""
    if _SEALING:
        sealed = rule_plan.sealed
        if sealed is None:
            sealed = [0, 0]
            object.__setattr__(rule_plan, 'sealed', sealed)
        fn = sealed[1]
        if fn.__class__ is int:
            if fn < _SEAL_THRESHOLD:
                sealed[1] = fn + 1
                return _probe_rule_generic(rule_plan, ctx, row)
            fn = _seal_probe(rule_plan)
            sealed[1] = fn
        return fn(ctx, row)
    return _probe_rule_generic(rule_plan, ctx, row)


def _run_rule_generic(rule_plan: RulePlan, ctx: _PlanContext,
                      out: set[Row], limit: int | None = None) -> None:
    """The generic (step-walking) tier of :func:`_run_rule`."""
    steps = rule_plan.steps
    nsteps = len(steps)
    head = rule_plan.head
    env = [_UNBOUND] * rule_plan.nslots

    def advance(i: int) -> bool:
        """Continue the search; False propagates "limit reached"."""
        while i < nsteps:
            step = steps[i]
            cls = step.__class__
            if cls is ScanStep:
                key = tuple(c if s < 0 else env[s] for s, c in step.key)
                relation = ctx.relation(step.pred)
                checks = step.checks
                free = step.free
                for row in relation.lookup(step.positions, key):
                    if checks and any(row[a] != row[b]
                                      for a, b in checks):
                        continue
                    for pos, slot in free:
                        env[slot] = row[pos]
                    if not advance(i + 1):
                        return False
                return True
            if cls is ProbeStep:
                row = tuple(c if s < 0 else env[s] for s, c in step.key)
                if ctx.is_pending_idb(step.pred):
                    if not ctx.probe(step.pred, row):
                        return True
                elif not ctx.relation(step.pred).contains(row):
                    return True
            elif cls is NegationStep:
                key = tuple(c if s < 0 else env[s] for s, c in step.key)
                if len(step.positions) == step.arity \
                        and ctx.is_pending_idb(step.pred):
                    if ctx.probe(step.pred, key):
                        return True
                elif ctx.relation(step.pred).exists(step.positions, key,
                                                    step.arity):
                    return True
            elif cls is CompareStep:
                s, c = step.left
                left = c if s < 0 else env[s]
                s, c = step.right
                right = c if s < 0 else env[s]
                if _compare(step.op, left, right) != step.expect:
                    return True
            else:                                   # BindStep
                s, c = step.source
                env[step.slot] = c if s < 0 else env[s]
            i += 1
        out.add(tuple(c if s < 0 else env[s] for s, c in head))
        return limit is None or len(out) < limit

    advance(0)


def _probe_rule_generic(rule_plan: RulePlan, ctx: _PlanContext,
                        row: tuple) -> bool:
    """The generic (step-walking) tier of :func:`_probe_rule`."""
    for pos, value in rule_plan.match_consts:
        if row[pos] != value:
            return False
    env = [_UNBOUND] * rule_plan.nslots
    for pos, slot in rule_plan.match_binds:
        env[slot] = row[pos]
    for pos, slot in rule_plan.match_checks:
        if row[pos] != env[slot]:
            return False
    steps = rule_plan.probe_steps
    nsteps = len(steps)

    def satisfiable(i: int) -> bool:
        while i < nsteps:
            step = steps[i]
            cls = step.__class__
            if cls is ScanStep:
                key = tuple(c if s < 0 else env[s] for s, c in step.key)
                relation = ctx.relation(step.pred)
                checks = step.checks
                free = step.free
                for candidate in relation.lookup(step.positions, key):
                    if checks and any(candidate[a] != candidate[b]
                                      for a, b in checks):
                        continue
                    for pos, slot in free:
                        env[slot] = candidate[pos]
                    if satisfiable(i + 1):
                        return True
                return False
            if cls is ProbeStep:
                probe_row = tuple(c if s < 0 else env[s]
                                  for s, c in step.key)
                if ctx.is_pending_idb(step.pred):
                    if not ctx.probe(step.pred, probe_row):
                        return False
                elif not ctx.relation(step.pred).contains(probe_row):
                    return False
            elif cls is NegationStep:
                key = tuple(c if s < 0 else env[s] for s, c in step.key)
                if len(step.positions) == step.arity \
                        and ctx.is_pending_idb(step.pred):
                    if ctx.probe(step.pred, key):
                        return False
                elif ctx.relation(step.pred).exists(step.positions, key,
                                                    step.arity):
                    return False
            elif cls is CompareStep:
                s, c = step.left
                left = c if s < 0 else env[s]
                s, c = step.right
                right = c if s < 0 else env[s]
                if _compare(step.op, left, right) != step.expect:
                    return False
            else:                                   # BindStep
                s, c = step.source
                env[step.slot] = c if s < 0 else env[s]
            i += 1
        return True

    return satisfiable(0)


# ---------------------------------------------------------------------------
# Sealed execution: per-rule generated code
# ---------------------------------------------------------------------------
#
# A sealed rule is one flat Python function: scans become ``for`` loops,
# filters become ``if`` guards, slots become locals.  The code mirrors
# the generic tier statement for statement — including the dynamic
# pending-IDB dispatch, since the same RulePlan may execute under
# contexts with different materialisation states — so the two tiers are
# observationally identical (asserted by the differential tests in
# ``tests/test_plan.py`` and the fuzz oracle under ``REPRO_SEALED=0``).


class _Emitter:
    """Tiny indented-source builder for the rule code generators."""

    def __init__(self):
        self.lines: list[str] = []
        self.preamble: list[str] = []      # emitted at function start
        self.indent = 0
        self.consts: list[object] = []
        self._uniq = 0
        self._rel_memo: dict[str, tuple[str, str]] = {}

    def emit(self, line: str) -> None:
        self.lines.append('    ' * self.indent + line)

    def const(self, value) -> str:
        """Bind ``value`` as a closure constant and return its name.
        Values are injected through the factory's arguments rather than
        ``repr`` so arbitrary Python constants round-trip exactly."""
        self.consts.append(value)
        return f'c{len(self.consts) - 1}'

    def fresh(self, prefix: str) -> str:
        self._uniq += 1
        return f'{prefix}{self._uniq}'

    def operand(self, pair) -> str:
        """A (slot, const) operand as an expression."""
        slot, const = pair
        return self.const(const) if slot < 0 else f's{slot}'

    def key_tuple(self, key) -> str:
        parts = [self.operand(pair) for pair in key]
        return '(' + ', '.join(parts) + (',)' if len(parts) == 1 else ')')

    def relation(self, pred: str) -> str:
        """The memoised relation handle for ``pred``: fetched via
        ``ctx.relation`` at this step position on first reach (the same
        laziness as the generic tier — an unreached step never
        materialises), then reused by every later iteration and every
        deeper step."""
        memo = self._rel_memo.get(pred)
        if memo is None:
            name = self.fresh('_r')
            memo = (name, self.const(pred))
            self._rel_memo[pred] = memo
            self.preamble.append(f'{name} = None')
        name, cname = memo
        self.emit(f'if {name} is None:')
        self.indent += 1
        self.emit(f'{name} = ctx.relation({cname})')
        self.indent -= 1
        return name

    def pred_const(self, pred: str) -> str:
        memo = self._rel_memo.get(pred)
        return memo[1] if memo is not None else self.const(pred)


def _emit_steps(em: _Emitter, steps, success: str) -> None:
    """Generate the nested loop/guard pyramid for ``steps``; the
    ``success`` snippet runs at full depth once per satisfying
    binding.  Mirrors the generic tier's step semantics exactly."""
    for step in steps:
        cls = step.__class__
        if cls is ScanStep:
            rel = em.relation(step.pred)
            row = em.fresh('_t')
            if step.positions:
                source = (f'{rel}.lookup({em.const(step.positions)}, '
                          f'{em.key_tuple(step.key)})')
            else:
                source = f'{rel}.rows'
            em.emit(f'for {row} in {source}:')
            em.indent += 1
            for a, b in step.checks:
                em.emit(f'if {row}[{a}] != {row}[{b}]:')
                em.indent += 1
                em.emit('continue')
                em.indent -= 1
            for pos, slot in step.free:
                em.emit(f's{slot} = {row}[{pos}]')
        elif cls is ProbeStep or cls is NegationStep:
            negated = cls is NegationStep
            if negated and len(step.positions) != step.arity:
                rel = em.relation(step.pred)
                key = em.key_tuple(step.key)
                em.emit(f'if not {rel}.exists('
                        f'{em.const(step.positions)}, {key}, '
                        f'{step.arity}):')
                em.indent += 1
                continue
            # Fully bound membership, answered top-down while the
            # predicate is pending.  The pending check runs per reach
            # (an earlier step may have materialised the predicate
            # mid-run), but the relation handle is memoised once the
            # materialised branch is taken.
            pred = em.pred_const(step.pred)
            key = em.fresh('_k')
            em.emit(f'{key} = {em.key_tuple(step.key)}')
            em.emit(f'if ctx.is_pending_idb({pred}):')
            em.indent += 1
            em.emit(f'{key} = ctx.probe({pred}, {key})')
            em.indent -= 1
            em.emit('else:')
            em.indent += 1
            rel = em.relation(step.pred)
            em.emit(f'{key} = {key} in {rel}.rows')
            em.indent -= 1
            em.emit(f'if not {key}:' if negated else f'if {key}:')
            em.indent += 1
        elif cls is CompareStep:
            left = em.operand(step.left)
            right = em.operand(step.right)
            if step.op == '=':
                op = '==' if step.expect else '!='
                em.emit(f'if {left} {op} {right}:')
            elif step.expect:
                em.emit(f'if _compare({em.const(step.op)}, '
                        f'{left}, {right}):')
            else:
                em.emit(f'if not _compare({em.const(step.op)}, '
                        f'{left}, {right}):')
            em.indent += 1
        else:                                   # BindStep
            em.emit(f's{step.slot} = {em.operand(step.source)}')
    em.emit(success)


def _compile_factory(em: _Emitter, name: str, signature: str,
                     label: str) -> object:
    """exec() the generated ``name`` function and bind its constants."""
    source = '\n'.join(
        [f'def _make(_compare, {", ".join(f"c{i}" for i in range(len(em.consts)))}):',
         f'    def {name}({signature}):'] +
        ['        ' + line for line in em.preamble] +
        ['        ' + line for line in em.lines] +
        [f'    return {name}'])
    namespace: dict = {}
    exec(compile(source, f'<sealed {label}>', 'exec'), namespace)
    return namespace['_make'](_compare, *em.consts)


def _count_seal() -> None:
    """Tick the process-wide ``plan.seals`` counter.  Imported lazily:
    sealing is a once-per-rule event, and a module-level import of
    rdbms.metrics from here would cycle through the rdbms package."""
    from repro.rdbms.metrics import GLOBAL
    GLOBAL.counter('plan.seals')


def _seal_run(rule_plan: RulePlan):
    """Generate the bottom-up executor for one rule plan:
    ``fn(ctx, out, limit)`` adding head rows to ``out``."""
    _count_seal()
    em = _Emitter()
    head = ('(' + ', '.join(em.operand(pair) for pair in rule_plan.head)
            + (',)' if len(rule_plan.head) == 1 else ')'))
    _emit_steps(em, rule_plan.steps, f'out.add({head})')
    em.emit('if limit is not None and len(out) >= limit:')
    em.indent += 1
    em.emit('return')
    return _compile_factory(em, '_run', 'ctx, out, limit',
                            str(rule_plan.rule))


def _seal_probe(rule_plan: RulePlan):
    """Generate the top-down prober for one rule plan:
    ``fn(ctx, row) -> bool``."""
    _count_seal()
    em = _Emitter()
    for pos, value in rule_plan.match_consts:
        em.emit(f'if row[{pos}] != {em.const(value)}:')
        em.indent += 1
        em.emit('return False')
        em.indent -= 1
    for pos, slot in rule_plan.match_binds:
        em.emit(f's{slot} = row[{pos}]')
    for pos, slot in rule_plan.match_checks:
        em.emit(f'if row[{pos}] != s{slot}:')
        em.indent += 1
        em.emit('return False')
        em.indent -= 1
    base_indent = em.indent
    _emit_steps(em, rule_plan.probe_steps, 'return True')
    em.indent = base_indent
    em.emit('return False')
    return _compile_factory(em, '_probe', 'ctx, row',
                            str(rule_plan.rule))


# ---------------------------------------------------------------------------
# Plan-level execution
# ---------------------------------------------------------------------------


def execute_plan(plan: ExecutionPlan, edb, *, goals=None) -> Database:
    """Run a compiled plan over ``edb`` and return the IDB relations.

    With ``goals`` given, only those predicates (and what they demand)
    are materialised — auxiliary predicates that are only probed with
    fully bound arguments are answered top-down and never computed
    wholesale.
    """
    ctx = _PlanContext(edb, plan)
    idb = plan.idb
    for pred in (goals if goals is not None else plan.order):
        if pred in idb and ctx.is_pending_idb(pred):
            ctx.materialize(pred)
    names = goals if goals is not None else plan.order
    return ctx.snapshot(names)


def execute_constraints(plan: ExecutionPlan, edb, *,
                        first_witness: bool = False
                        ) -> list[tuple[Rule, tuple]]:
    """Evaluate the plan's compiled ⊥-rules over ``edb`` and return
    ``(rule, witness_row)`` pairs for each violated constraint.

    Nothing is materialised eagerly: constraint bodies demand exactly
    what they need (fully bound auxiliaries are just probed).  With
    ``first_witness``, each rule's enumeration stops at its first
    witness and the whole check stops at the first violated rule — the
    short-circuit the engine's per-transaction check uses, at the cost
    of a search-order-dependent (rather than canonical) witness row.
    """
    if not plan.constraint_plans:
        return []
    ctx = _PlanContext(edb, plan)
    violations: list[tuple[Rule, tuple]] = []
    for constraint in plan.constraint_plans:
        rows: set[Row] = set()
        _run_rule(constraint.rule_plan, ctx, rows,
                  limit=1 if first_witness else None)
        if rows:
            if first_witness:
                violations.append((constraint.rule, next(iter(rows))))
                return violations
            # key=repr: witness columns may mix value types.
            violations.append((constraint.rule, min(rows, key=repr)))
    return violations


# ---------------------------------------------------------------------------
# Historical entry points (compile-and-run wrappers)
# ---------------------------------------------------------------------------


def evaluate(program: Program, edb, *,
             check_safety: bool = True, goals=None) -> Database:
    """Evaluate ``program`` over ``edb`` and return IDB relations.

    ``edb`` may be a :class:`Database`, a plain ``{name: rows}`` mapping,
    or a mapping holding pre-indexed :class:`IndexedRelation` values.
    With ``goals`` given, only those predicates (and what they demand) are
    materialised.  Constraint rules are ignored here (see
    :func:`constraint_violations`).  EDB relations named like IDB
    predicates are shadowed by the computed IDB values, as in standard
    Datalog semantics.

    Compilation is memoized: repeated calls with an equal program reuse
    one :class:`~repro.datalog.plan.ExecutionPlan`.
    """
    plan = compile_program(program, check_safety=check_safety)
    return execute_plan(plan, edb, goals=goals)


def evaluate_rule(rule: Rule, edb: Database) -> frozenset:
    """Evaluate a single rule over ``edb`` (body predicates must be EDB)."""
    rule_plan = compile_rule(rule)
    ctx = _PlanContext(edb)
    rows: set[Row] = set()
    _run_rule(rule_plan, ctx, rows)
    return frozenset(rows)


def evaluate_query(program: Program, edb: Database, goal: str) -> frozenset:
    """Evaluate the Datalog query ``(program, goal)`` (§2.1)."""
    return evaluate(program, edb)[goal]


def holds(program: Program, edb: Database, goal: str) -> bool:
    """True when the goal relation is nonempty over ``edb``."""
    return bool(evaluate_query(program, edb, goal))


def constraint_violations(program: Program, edb
                          ) -> list[tuple[Rule, tuple]]:
    """Evaluate every constraint (⊥) rule of ``program`` over ``edb``
    (after computing what the constraint bodies demand) and return
    ``(rule, witness_binding_row)`` pairs for each violated constraint.

    A constraint ``⊥ :- body`` is violated when its body is satisfiable in
    the instance; the returned witness row holds the values of the body's
    variables in sorted name order.
    """
    plan = compile_program(program)
    return execute_constraints(plan, edb)
