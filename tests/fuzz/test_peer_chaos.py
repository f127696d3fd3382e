"""The peer chaos axis: a 3-peer full-mesh data-sharing network under
randomized workloads and deterministic fault injection must converge
**bit-identically** to a fault-free oracle — a single engine that
applied every transaction directly.

Peers own disjoint key spaces (rows are prefixed with their
originating peer), the precondition for convergence without global
coordination: all cross-peer operations commute, and each key's
updates are totally ordered by its owner's outbox.  Under that
precondition the network's machinery — per-link LSN watermarks,
per-root apply watermarks, durable outboxes, retry/quarantine/heal,
crash restart from the WAL — must absorb dropped, duplicated,
delayed, reordered and stalled deliveries plus receiver crashes with
zero lost and zero double-applied deltas — and every peer's
materialised view cache must equal a fresh ``get`` over its own base
tables after every transaction.

Profiles as in ``test_chaos``: CI runs the bounded smoke
(``--hypothesis-profile=ci``); the pinned corpus of verified
non-vacuous scenarios (the fault demonstrably fired) replays under
every profile."""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip('hypothesis')
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from repro.rdbms import faults                                     # noqa: E402
from repro.rdbms.dml import Delete, Insert                         # noqa: E402
from repro.rdbms.engine import Engine                              # noqa: E402
from repro.rdbms.peernet import PeerNetwork, converged             # noqa: E402

from .strategies import _strategy, assert_caches_fresh             # noqa: E402

VIEW = 'officeinfo'
PEERS = ('p0', 'p1', 'p2')
LINKS = tuple(f'{a}->{b}' for a in PEERS for b in PEERS if a != b)

PEER_FAULTS = ('drop', 'dup', 'reorder', 'delay', 'outage', 'crash')

#: Scenarios pinned because the fault demonstrably fired — the
#: non-vacuous corpus that must stay green under every profile.
SEED_CORPUS = [(3, 'drop'), (3, 'dup'), (3, 'reorder'), (3, 'delay'),
               (3, 'outage'), (3, 'crash'),
               (11, 'drop'), (11, 'outage'), (11, 'crash'),
               (29, 'dup'), (29, 'reorder')]


class _Clock:
    """Deterministic time for the network's retry backoff: ``sleep``
    advances it, nothing blocks the test."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def _plan_for(fault: str, rng: random.Random) -> faults.FaultPlan:
    plan = faults.FaultPlan()
    link = rng.choice(LINKS)
    hit = rng.randint(1, 3)
    if fault == 'drop':
        for _ in range(rng.randint(1, 3)):   # consecutive losses
            plan.drop_peer(link=link, hit=hit)
    elif fault == 'dup':
        plan.dup_peer(link=link, hit=hit)
    elif fault == 'reorder':
        plan.reorder_peer(link=link, hit=hit)
    elif fault == 'delay':
        plan.delay_peer(link=link, hit=hit, seconds=0.001)
    elif fault == 'outage':
        plan.stall_link(link=link, once=False)
    elif fault == 'crash':
        plan.crash_peer(peer=rng.choice(PEERS), hit=hit)
    else:
        raise KeyError(fault)
    return plan


def _factory(strategy):
    def build(directory: Path) -> Engine:
        engine = Engine(strategy.sources,
                        wal=directory / 'engine.wal', wal_sync=False)
        engine.define_view(strategy, validate_first=False,
                           exist_ok=True)
        return engine
    return build


def _check_monotonic(net, previous: dict) -> dict:
    """Watermarks only ever advance — per link and per root, across
    pumps, restarts and retries."""
    snapshot = {}
    for name, peer in net.peers.items():
        for key, lsn in peer.watermarks.items():
            snapshot[(name, 'link', key)] = lsn
        for root, lsn in peer._applied_roots.items():
            snapshot[(name, 'root', root)] = lsn
    for key, lsn in previous.items():
        assert snapshot.get(key, 0) >= lsn, (
            f'watermark regressed: {key} went {lsn} -> '
            f'{snapshot.get(key, 0)}')
    return snapshot


def run_peer_chaos(seed: int, fault: str) -> bool:
    """One chaos scenario: the faulted mesh vs the fault-free
    single-engine oracle on the same seeded workload.  Returns whether
    the fault actually fired (for corpus vetting)."""
    strategy = _strategy(VIEW)
    rng = random.Random(seed)
    plan = _plan_for(fault, random.Random(seed ^ 0x5EED5))
    clock = _Clock()
    with tempfile.TemporaryDirectory(prefix='repro-peer-chaos-') as tmp:
        base = Path(tmp)
        net = PeerNetwork(retry_backoff=0.01, quarantine_after=3,
                          clock=clock, sleep=clock.sleep)
        oracle = Engine(strategy.sources)
        oracle.define_view(strategy, validate_first=False)
        try:
            for name in PEERS:
                net.add_peer(name, _factory(strategy), base / name,
                             shares=(VIEW,))
            net.share(VIEW, PEERS)
            live = {name: [] for name in PEERS}   # each peer's own rows
            counter = 0
            watermarks: dict = {}
            with plan.installed():
                for _ in range(10):
                    owner = rng.choice(PEERS)
                    rows = live[owner]
                    if rows and rng.random() < 0.35:
                        victim = rows.pop(rng.randrange(len(rows)))
                        statements = [Delete(dict(
                            zip(('wname', 'office'), victim)))]
                    else:
                        counter += 1
                        row = (f'{owner}:k{counter}',
                               f'office_{rng.randrange(4)}')
                        rows.append(row)
                        statements = [Insert(row)]
                    net.peers[owner].engine.execute(VIEW, statements)
                    oracle.execute(VIEW, statements)
                    for _ in range(rng.randint(0, 2)):
                        net.pump()
                    assert_caches_fresh(
                        {name: peer.engine
                         for name, peer in net.peers.items()}, VIEW,
                        f'{fault} (seed {seed}) transaction')
                    watermarks = _check_monotonic(net, watermarks)
                net.settle(max_rounds=300)
            # The outage (if any) ends; quarantined links catch up
            # from the durable outboxes — anti-entropy.
            net.heal()
            assert net.settle(), f'mesh failed to drain under {fault}'
            watermarks = _check_monotonic(net, watermarks)
            expected = frozenset(tuple(r) for r in oracle.rows(VIEW))
            for name, peer in net.peers.items():
                assert peer.rows(VIEW) == expected, (
                    f'peer {name} diverged from the fault-free oracle '
                    f'under {fault} (seed {seed})')
            assert converged(net.peers.values(), VIEW)
            # Crash recovery must also hold for a *final* restart:
            # every peer rebuilt from its logs still agrees.
            for name in PEERS:
                restarted = net.restart_peer(name)
                assert restarted.rows(VIEW) == expected
            _check_monotonic(net, watermarks)
            return plan.fired() > 0
        finally:
            net.close()
            oracle.close()


@given(seed=st.integers(min_value=0, max_value=2 ** 20),
       fault=st.sampled_from(PEER_FAULTS))
@example(seed=3, fault='outage')
@example(seed=3, fault='crash')
@example(seed=11, fault='drop')
@settings(deadline=None)
def test_faulted_mesh_matches_fault_free_oracle(seed, fault):
    """The acceptance property: under every generated workload and
    fault placement the mesh converges bit-identically to the oracle.
    (Whether the fault fires depends on traffic — the pinned corpus
    guarantees non-vacuity; the invariant must hold either way.)"""
    run_peer_chaos(seed, fault)


@pytest.mark.parametrize('seed,fault', SEED_CORPUS)
def test_peer_chaos_corpus_faults_fire_and_state_survives(seed, fault):
    """The vetted corpus: these scenarios demonstrably inject *and*
    converge — peer chaos coverage can't silently go vacuous."""
    assert run_peer_chaos(seed, fault), (
        f'corpus scenario ({seed}, {fault}) no longer injects its '
        f'fault — re-pin a live scenario')
