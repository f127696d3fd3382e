"""Incrementalization of view definitions: ``∂get`` (view maintenance).

:mod:`repro.core.incremental` derives ``∂put``, which maps a view delta
to source deltas.  This module derives the other direction: ``∂get``
maps one transaction's source deltas ``±r`` (and the pre-state) to the
view's delta ``±v``, so a materialised view survives a base-table write
at O(|Δ|) cost instead of being dropped and re-evaluated.

The construction is the classic delta-rule one, in the DRed style
(delete candidates, re-derive):

1. Positive auxiliary predicates are unfolded into the view's rules, so
   every rule body reads source relations only (a ``get`` with an
   auxiliary predicate that stays — negated, or with several rules —
   is rejected with :class:`~repro.errors.TransformationError`; the
   engine then keeps dropping and re-materialising that view).
2. For each rule and each relational literal ``L_i`` over ``r``:

   * an *insertion candidate* rule reads the **post-state** of every
     relation (``r__new = (r \\ -r) ∪ +r``) and replaces a positive
     ``L_i`` by ``+r`` — or, for a negated ``L_i``, adds ``-r`` (a
     deleted row may have been the only witness the negation saw);
   * a *deletion candidate* rule reads the **pre-state** and replaces a
     positive ``L_i`` by ``-r`` — or, for a negated ``L_i``, adds
     ``+r``.

3. ``+v`` keeps the insertion candidates the old view lacks; ``-v``
   keeps the deletion candidates that the post-state no longer derives
   (``not v__new(~X)``, a fully bound top-down probe).  The re-check is
   what keeps ``officeinfo(N, O)`` when another ``works`` row still
   projects onto it, or a union row another branch still produces.

Every candidate rule is driven by a small delta relation (the planner
schedules delta inputs first), and the post-state is read through
:class:`~repro.datalog.evaluator.OverlayRelation`, which probes the
persistent indexes of the stored relation — nothing of size |S| is
copied or materialised.  The binarized Figure-7 templates of
:mod:`repro.core.incremental` are not reused here: their intermediate
and ν-predicates are IDB relations the rules would scan with partial
bindings, i.e. materialise in full on every update.

The result is an ordinary Datalog program over the EDB
``{r, r__new, +r, -r | r read by get} ∪ {v}`` with goals ``+v``/``-v``.
"""

from __future__ import annotations

from repro.datalog.ast import (Atom, Lit, Literal, Program, Rule, Var,
                               delete_pred, insert_pred, is_anonymous)
from repro.datalog.transform import (inline_single_rule_predicates,
                                     prune_unreachable)
from repro.errors import TransformationError

__all__ = ['incrementalize_get', 'incrementalize_get_plan', 'post_state',
           'stored_relation']

#: Suffix naming a relation's post-transaction state in ``∂get``.
_POST = '__new'


def post_state(pred: str) -> str:
    """The ``∂get`` name of ``pred``'s post-transaction state."""
    return pred + _POST


def stored_relation(pred: str) -> str:
    """The stored relation a ``∂get`` predicate reads (``r__new`` and
    ``r`` both read ``r``)."""
    return pred[:-len(_POST)] if pred.endswith(_POST) else pred


def _fresh_anonymous(atom: Atom, tag: str) -> Atom:
    """``atom`` with its anonymous variables renamed apart: a delta
    literal added next to a negated one must not bind the negation's
    wildcards (they would turn into index positions)."""
    return Atom(atom.pred, tuple(
        Var(f'_{tag}{i}') if is_anonymous(term) else term
        for i, term in enumerate(atom.args)))


def _on(literal: Literal, rename) -> Literal:
    """``literal`` reading ``rename(pred)`` instead of ``pred``."""
    if isinstance(literal, Lit):
        return Lit(Atom(rename(literal.atom.pred), literal.atom.args),
                   literal.positive)
    return literal


def incrementalize_get(get_program: Program, view: str) -> Program:
    """The ``∂get`` program of ``view`` (see the module docstring).

    Raises :class:`TransformationError` when the definition keeps an
    auxiliary predicate after positive unfolding."""
    program = prune_unreachable(
        inline_single_rule_predicates(get_program.without_constraints(),
                                      {view}), {view})
    if program.idb_preds() != {view}:
        raise TransformationError(
            f'get of {view!r} keeps auxiliary predicates '
            f'{sorted(program.idb_preds() - {view})}; cannot derive ∂get')
    ins, dels, post = f'{view}__ins', f'{view}__del', post_state(view)
    rules: list[Rule] = []
    for number, rule in enumerate(program.rules_for(view)):
        old_body = list(rule.body)
        new_body = [_on(literal, post_state) for literal in rule.body]
        rules.append(Rule(Atom(post, rule.head.args), tuple(new_body)))
        for i, literal in enumerate(rule.body):
            if not isinstance(literal, Lit):
                continue
            pred, atom = literal.atom.pred, literal.atom
            if literal.positive:
                plus = Lit(Atom(insert_pred(pred), atom.args))
                minus = Lit(Atom(delete_pred(pred), atom.args))
                ins_body = new_body[:i] + [plus] + new_body[i + 1:]
                del_body = old_body[:i] + [minus] + old_body[i + 1:]
            else:
                tag = f'dg{number}_{i}_'
                ins_body = new_body + [Lit(_fresh_anonymous(
                    Atom(delete_pred(pred), atom.args), tag))]
                del_body = old_body + [Lit(_fresh_anonymous(
                    Atom(insert_pred(pred), atom.args), tag))]
            rules.append(Rule(Atom(ins, rule.head.args), tuple(ins_body)))
            rules.append(Rule(Atom(dels, rule.head.args), tuple(del_body)))
    arity = program.arities()[view]
    row = tuple(Var(f'V{i}') for i in range(arity))
    rules.append(Rule(Atom(insert_pred(view), row),
                      (Lit(Atom(ins, row)), Lit(Atom(view, row), False))))
    rules.append(Rule(Atom(delete_pred(view), row),
                      (Lit(Atom(dels, row)), Lit(Atom(post, row), False))))
    return Program(tuple(rules))


def incrementalize_get_plan(get_program: Program, view: str, *,
                            stats=None):
    """Derive and compile ``∂get`` in one shot (the plan keeps the
    program as ``plan.program``).  ``stats`` seeds the join order as
    for :func:`~repro.core.incremental.incrementalize_plan`; the
    post-state names inherit their stored relation's cardinality."""
    from repro.datalog.plan import compile_program
    program = incrementalize_get(get_program, view)
    if stats is not None:
        stats = dict(stats)
        stats.update({post_state(name): size
                      for name, size in list(stats.items())})
    return compile_program(program, stats=stats)
