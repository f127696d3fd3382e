"""Evaluator tests: joins, negation, builtins, laziness, indexes."""

import pytest

from repro.datalog.evaluator import (IndexedRelation, constraint_violations,
                                     evaluate, evaluate_query, holds)
from repro.datalog.parser import parse_program
from repro.errors import SchemaError
from repro.relational.database import Database


def db(**relations):
    return Database.from_dict(relations)


class TestBasicEvaluation:

    def test_copy_rule(self):
        out = evaluate(parse_program('v(X) :- r(X).'), db(r={(1,), (2,)}))
        assert out['v'] == {(1,), (2,)}

    def test_union(self):
        program = parse_program('v(X) :- r1(X).\nv(X) :- r2(X).')
        out = evaluate(program, db(r1={(1,)}, r2={(2,)}))
        assert out['v'] == {(1,), (2,)}

    def test_join(self):
        program = parse_program('v(X, Z) :- r(X, Y), s(Y, Z).')
        out = evaluate(program, db(r={(1, 'a'), (2, 'b')},
                                   s={('a', 10), ('a', 11)}))
        assert out['v'] == {(1, 10), (1, 11)}

    def test_projection(self):
        program = parse_program('v(X) :- r(X, _).')
        out = evaluate(program, db(r={(1, 'a'), (1, 'b'), (2, 'c')}))
        assert out['v'] == {(1,), (2,)}

    def test_selection_with_constant(self):
        program = parse_program("v(X) :- r(X, 'keep').")
        out = evaluate(program, db(r={(1, 'keep'), (2, 'drop')}))
        assert out['v'] == {(1,)}

    def test_repeated_variable_in_atom(self):
        program = parse_program('v(X) :- r(X, X).')
        out = evaluate(program, db(r={(1, 1), (1, 2)}))
        assert out['v'] == {(1,)}

    def test_layered_idb(self):
        program = parse_program('a(X) :- r(X).\nb(X) :- a(X), s(X).')
        out = evaluate(program, db(r={(1,), (2,)}, s={(2,), (3,)}))
        assert out['b'] == {(2,)}

    def test_missing_relation_reads_empty(self):
        out = evaluate(parse_program('v(X) :- nothing(X).'), db())
        assert out['v'] == frozenset()


class TestNegation:

    def test_difference(self):
        program = parse_program('v(X) :- r(X), not s(X).')
        out = evaluate(program, db(r={(1,), (2,)}, s={(2,)}))
        assert out['v'] == {(1,)}

    def test_negated_idb(self):
        program = parse_program("""
            a(X) :- r(X), X > 1.
            v(X) :- r(X), not a(X).
        """)
        out = evaluate(program, db(r={(1,), (2,)}))
        assert out['v'] == {(1,)}

    def test_negation_with_anonymous_wildcard(self):
        # not s(X, _) means "no s-tuple with first column X".
        program = parse_program('v(X) :- r(X), not s(X, _).')
        out = evaluate(program, db(r={(1,), (2,)}, s={(2, 'x')}))
        assert out['v'] == {(1,)}

    def test_idb_shadowing(self):
        # When the program defines v, an EDB relation named v is hidden.
        program = parse_program('v(X) :- r(X).')
        out = evaluate(program, db(r={(1,)}, v={(9,)}))
        assert out['v'] == {(1,)}


class TestBuiltins:

    def test_comparison(self):
        program = parse_program('v(X) :- r(X), X > 10.')
        out = evaluate(program, db(r={(5,), (15,)}))
        assert out['v'] == {(15,)}

    def test_equality_binds(self):
        program = parse_program("v(X, Y) :- r(X), Y = 'tag'.")
        out = evaluate(program, db(r={(1,)}))
        assert out['v'] == {(1, 'tag')}

    def test_negated_equality(self):
        program = parse_program('v(X) :- r(X), not X = 2.')
        out = evaluate(program, db(r={(1,), (2,)}))
        assert out['v'] == {(1,)}

    def test_string_comparison_is_lexicographic(self):
        program = parse_program("v(X) :- r(X), X > '1962-06-01'.")
        out = evaluate(program, db(r={('1962-01-01',), ('1962-12-31',)}))
        assert out['v'] == {('1962-12-31',)}

    def test_mixed_type_comparison_raises(self):
        program = parse_program('v(X) :- r(X), X > 5.')
        with pytest.raises(SchemaError):
            evaluate(program, db(r={('abc',)}))

    def test_le_ge(self):
        program = parse_program('v(X) :- r(X), X >= 2, X <= 3.')
        out = evaluate(program, db(r={(1,), (2,), (3,), (4,)}))
        assert out['v'] == {(2,), (3,)}


class TestQueriesAndConstraints:

    def test_evaluate_query(self):
        program = parse_program('v(X) :- r(X).')
        assert evaluate_query(program, db(r={(1,)}), 'v') == {(1,)}

    def test_holds(self):
        program = parse_program('v(X) :- r(X).')
        assert holds(program, db(r={(1,)}), 'v')
        assert not holds(program, db(), 'v')

    def test_constraint_violation_detected(self):
        program = parse_program('⊥ :- r(X), X > 2.')
        violations = constraint_violations(program, db(r={(5,)}))
        assert len(violations) == 1
        assert violations[0][1] == (5,)

    def test_constraint_satisfied(self):
        program = parse_program('⊥ :- r(X), X > 2.')
        assert constraint_violations(program, db(r={(1,)})) == []

    def test_constraint_over_idb(self):
        program = parse_program("""
            big(X) :- r(X), X > 10.
            ⊥ :- big(X).
        """)
        assert constraint_violations(program, db(r={(20,)}))
        assert not constraint_violations(program, db(r={(5,)}))


class TestFirstWitnessMode:
    """The short-circuit mode of ``execute_constraints``: stop at the
    first witness of the first violated rule."""

    def test_stops_at_first_violated_rule(self):
        from repro.datalog.plan import compile_program
        program = parse_program("""
            ⊥ :- r(X), X > 2.
            ⊥ :- r(X), X < 0.
        """)
        plan = compile_program(program)
        edb = db(r={(-1,), (5,), (7,)})
        full = plan.constraint_violations(edb)
        assert len(full) == 2
        first = plan.constraint_violations(edb, first_witness=True)
        assert len(first) == 1
        rule, witness = first[0]
        assert witness in {(-1,), (5,), (7,)}

    def test_run_rule_limit_stops_enumeration(self):
        from repro.datalog.evaluator import _PlanContext, _run_rule
        from repro.datalog.plan import compile_rule
        rule = parse_program('h(X) :- r(X).').rules[0]
        plan = compile_rule(rule)
        ctx = _PlanContext({'r': {(i,) for i in range(100)}})
        out: set = set()
        _run_rule(plan, ctx, out, limit=1)
        assert len(out) == 1
        unlimited: set = set()
        _run_rule(plan, ctx, unlimited)
        assert len(unlimited) == 100

    def test_satisfied_constraints_agree(self):
        from repro.datalog.plan import compile_program
        plan = compile_program(parse_program('⊥ :- r(X), X > 2.'))
        edb = db(r={(1,)})
        assert plan.constraint_violations(edb) == []
        assert plan.constraint_violations(edb, first_witness=True) == []


class TestProbeMemoization:

    def test_repeated_probes_run_rules_once(self, monkeypatch):
        from repro.datalog import evaluator
        from repro.datalog.plan import compile_program
        program = parse_program("""
            aux(X) :- r(X).
            v(X) :- s(X), aux(X).
        """)
        plan = compile_program(program)
        ctx = evaluator._PlanContext({'r': {(1,)}, 's': set()}, plan)
        calls = []
        original = evaluator._probe_rule

        def counted(rule_plan, c, row):
            calls.append(row)
            return original(rule_plan, c, row)

        monkeypatch.setattr(evaluator, '_probe_rule', counted)
        assert ctx.probe('aux', (1,)) is True
        assert ctx.probe('aux', (1,)) is True      # memoized
        assert ctx.probe('aux', (2,)) is False
        assert ctx.probe('aux', (2,)) is False     # negative memoized
        assert calls == [(1,), (2,)]


class TestLazyEvaluation:

    def test_goals_limits_materialisation(self):
        program = parse_program("""
            cheap(X) :- r(X).
            expensive(X) :- r(X), s(X).
            v(X) :- cheap(X).
        """)
        out = evaluate(program, db(r={(1,)}, s={(1,)}), goals=('v',))
        assert out['v'] == {(1,)}
        assert 'expensive' not in out.names()

    def test_fully_bound_idb_probe(self):
        # `aux` is only probed with bound arguments: the lazy path.
        program = parse_program("""
            aux(X) :- big(X, _).
            v(X) :- small(X), not aux(X).
        """)
        out = evaluate(program, db(small={(1,), (2,)}, big={(2, 9)}),
                       goals=('v',))
        assert out['v'] == {(1,)}

    def test_probe_head_constants(self):
        program = parse_program("""
            tagged(X, 'yes') :- r(X).
            v(X) :- s(X), tagged(X, 'yes').
        """)
        out = evaluate(program, db(r={(1,)}, s={(1,), (2,)}), goals=('v',))
        assert out['v'] == {(1,)}


class TestIndexedRelation:

    def test_lookup_builds_index(self):
        rel = IndexedRelation(frozenset({(1, 'a'), (2, 'b'), (1, 'c')}))
        assert set(rel.lookup((0,), (1,))) == {(1, 'a'), (1, 'c')}

    def test_fully_bound_exists(self):
        rel = IndexedRelation(frozenset({(1, 'a')}))
        assert rel.exists((0, 1), (1, 'a'), 2)
        assert not rel.exists((0, 1), (1, 'x'), 2)

    def test_add_maintains_indexes(self):
        rel = IndexedRelation({(1, 'a')})
        assert set(rel.lookup((0,), (1,))) == {(1, 'a')}
        rel.add((1, 'b'))
        assert set(rel.lookup((0,), (1,))) == {(1, 'a'), (1, 'b')}

    def test_discard_maintains_indexes(self):
        rel = IndexedRelation({(1, 'a'), (1, 'b')})
        rel.lookup((0,), (1,))
        rel.discard((1, 'a'))
        assert set(rel.lookup((0,), (1,))) == {(1, 'b')}
        rel.discard((1, 'b'))
        assert rel.lookup((0,), (1,)) == ()

    def test_add_existing_is_noop(self):
        rel = IndexedRelation({(1,)})
        rel.add((1,))
        assert rel.rows == {(1,)}

    def test_large_bucket_keeps_insertion_order_and_removes(self):
        from repro.datalog.evaluator import _LIST_BUCKET_MAX
        rel = IndexedRelation(set())
        rel.ensure_index((0,))
        rows = [(1, i) for i in range(3 * _LIST_BUCKET_MAX)]
        for row in rows:
            rel.add(row)
        bucket = rel.lookup((0,), (1,))
        assert isinstance(bucket, dict)        # outgrew the list form
        assert list(bucket) == rows
        for row in rows[::2]:
            rel.discard(row)
        assert list(rel.lookup((0,), (1,))) == rows[1::2]
        # An index built over existing rows splits the same way.
        again = IndexedRelation(set(rows[1::2]) | {(2, 0)})
        assert isinstance(again.lookup((0,), (1,)), dict)
        assert again.lookup((0,), (2,)) == [(2, 0)]

    def test_evaluate_accepts_indexed_relations(self):
        program = parse_program('v(X) :- r(X), not s(X).')
        edb = {'r': IndexedRelation({(1,), (2,)}),
               's': IndexedRelation({(2,)})}
        assert evaluate(program, edb)['v'] == {(1,)}


class TestOverlayRelation:
    """The post-state ``(base \\ minus) ∪ plus`` that ∂get reads."""

    def overlay(self):
        from repro.datalog.evaluator import OverlayRelation
        base = IndexedRelation({(1, 'a'), (1, 'b'), (2, 'c')})
        return base, OverlayRelation(base, {(1, 'z'), (3, 'y')},
                                     {(1, 'a')})

    def test_rows_and_lookup(self):
        base, post = self.overlay()
        assert set(post.rows) == {(1, 'b'), (2, 'c'), (1, 'z'), (3, 'y')}
        assert (1, 'z') in post.rows and (1, 'a') not in post.rows
        assert set(post.lookup((0,), (1,))) == {(1, 'b'), (1, 'z')}
        assert list(post.lookup((0,), (3,))) == [(3, 'y')]
        assert not post.exists((0,), (4,), 2)
        assert post.exists((0, 1), (1, 'z'), 2)
        # The base is read through, never copied or changed.
        assert base.rows == {(1, 'a'), (1, 'b'), (2, 'c')}
        assert (0,) in base._indexes

    def test_evaluation_reads_the_post_state(self):
        _, post = self.overlay()
        program = parse_program('v(X) :- r(X, _), not s(X).')
        out = evaluate(program, {'r': post, 's': {(2,)}}, goals=('v',))
        assert out['v'] == {(1,), (3,)}
