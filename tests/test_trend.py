"""``benchmarks/trend.py``: gating a bench_all run against the median
of its same-mode history, and the ``rebaseline`` record that starts a
new history."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / 'benchmarks' / 'trend.py'
_SPEC = importlib.util.spec_from_file_location('trend', _PATH)
trend = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trend)


def run(mode='quick', replica=40.0, **extra) -> dict:
    return {'mode': mode, 'overhead_ratio': 1.002,
            'speedups': {'replica': replica, 'sqlite': 0.3}, **extra}


def test_drop_below_the_median_fails():
    history = [run(replica=40.0), run(replica=38.0), run(replica=41.0)]
    assert trend.check_against_history(run(replica=30.0), history) == []
    [failure] = trend.check_against_history(run(replica=2.0), history)
    assert failure.startswith('replica:')
    # Another mode's history does not gate this run.
    assert trend.check_against_history(run(mode='full', replica=2.0),
                                       history) == []


def test_rebaseline_record_starts_a_new_history():
    history = [run(replica=40.0), run(replica=38.0),
               run(mode='full', replica=90.0, rebaseline='full only'),
               run(replica=2.1, rebaseline='artefact removed'),
               run(replica=1.9)]
    record = run(replica=2.0)
    assert trend.same_mode_history(record, history) == history[3:]
    assert trend.check_against_history(record, history) == []
    # The new history still gates: a collapse from it fails.
    assert trend.check_against_history(run(replica=0.5), history)
    # The full-mode rebaseline left the quick history alone before it.
    assert trend.same_mode_history(run(mode='full'), history) \
        == history[2:3]


def test_append_rebaseline_then_check(tmp_path, capsys):
    summary = tmp_path / 'BENCH_all.json'
    path = tmp_path / 'TREND.jsonl'
    path.write_text(json.dumps(run(replica=40.0)) + '\n')

    def write_summary(replica):
        summary.write_text(json.dumps({'mode': 'quick', 'configs': [
            {'config': 'memory', 'speedup_vs_memory': 1.0},
            {'config': 'replica', 'speedup_vs_memory': replica}],
            'metrics_overhead': {'ratio': 1.001}}))

    write_summary(2.0)
    args = ['--summary', str(summary), '--trend', str(path)]
    assert trend.main(['check', *args]) == 1
    assert trend.main(['append', *args, '--rebaseline', 'why']) == 0
    assert json.loads(path.read_text().splitlines()[-1])['rebaseline'] \
        == 'why'
    assert trend.main(['check', *args]) == 0
    assert 'against 1 quick-mode run' in capsys.readouterr().out
    assert trend.main(['show', '--trend', str(path)]) == 0
    assert 'rebaseline: why' in capsys.readouterr().out


@pytest.mark.parametrize('mode', ['quick', 'full'])
def test_empty_history_seeds(mode):
    assert trend.check_against_history(run(mode=mode), []) == []
