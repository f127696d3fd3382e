"""Trend tracking for ``bench_all``: gate on history, not magic floors.

Static throughput floors rot: they are tuned to one machine and either
never fire or fire on every slow CI runner.  This tool keeps a
*committed trajectory* of the hardware-independent numbers ``bench_all``
already computes — each configuration's ``speedup_vs_memory`` (a ratio
of two measurements from the *same* run on the *same* box) and the
metrics-overhead ratio — and gates a new run against the **median of
its own history** instead:

* ``append``  — record a summary JSON's ratios as one line of
  ``TREND.jsonl`` (commit the file; the history *is* the baseline).
* ``check``   — fail if any configuration's speedup fell below
  ``median(history) * (1 - tolerance)``, or the overhead ratio rose
  above ``max(ceiling, median * (1 + tolerance))``.  History is
  filtered to the same ``mode`` (quick/full runs are not comparable).
  An empty same-mode history passes with a note — the first run
  *seeds* the trajectory, it cannot regress from it.
* ``append --rebaseline REASON`` — record the run with a
  ``"rebaseline"`` field: that record starts a **new** same-mode
  history, and ``check`` ignores every same-mode run before it.  For a
  change that moves a ratio on purpose (removing an artefact that
  inflated it), never for a regression; the reason stays in the file.
* ``show``    — print the trajectory.

Stdlib-only on purpose: CI calls it right after ``bench_all`` with no
package on ``sys.path``.

Run:  python benchmarks/trend.py check [--summary P] [--trend P]
      python benchmarks/trend.py append [--summary P] [--trend P]
                                        [--rebaseline REASON]
      python benchmarks/trend.py show [--trend P]
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

#: Allowed drop below the historical median speedup before ``check``
#: fails.  Wide on purpose: shared CI boxes are noisy and the ratios
#: already cancel most machine variance — this catches *regressions*
#: (a config collapsing toward or below half its trajectory), not
#: jitter.
TOLERANCE = 0.35

HERE = Path(__file__).resolve().parent
DEFAULT_SUMMARY = HERE / 'BENCH_all.json'
DEFAULT_TREND = HERE / 'TREND.jsonl'


def record_from_summary(summary: dict) -> dict:
    """The committed-trajectory line for one ``bench_all`` summary."""
    speedups = {point['config']: point['speedup_vs_memory']
                for point in summary.get('configs', [])
                if point.get('config') != 'memory'}
    return {'mode': summary.get('mode', 'full'),
            'speedups': speedups,
            'overhead_ratio':
                summary.get('metrics_overhead', {}).get('ratio')}


def load_trend(path: Path) -> list[dict]:
    if not path.exists():
        return []
    records = []
    for line in path.read_text(encoding='utf-8').splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


def same_mode_history(record: dict, history: list[dict]) -> list[dict]:
    """The runs ``record`` is gated against: same mode, from the newest
    same-mode ``rebaseline`` record on."""
    same_mode = [r for r in history if r.get('mode') == record['mode']]
    for start in range(len(same_mode) - 1, -1, -1):
        if same_mode[start].get('rebaseline'):
            return same_mode[start:]
    return same_mode


def check_against_history(record: dict, history: list[dict], *,
                          tolerance: float = TOLERANCE) -> list[str]:
    """Failure messages for ``record`` vs the same-mode ``history``
    (empty list = pass)."""
    same_mode = same_mode_history(record, history)
    if not same_mode:
        return []
    failures = []
    for config, current in sorted(record['speedups'].items()):
        past = [r['speedups'][config] for r in same_mode
                if config in r.get('speedups', {})]
        if not past or current is None:
            continue
        median = statistics.median(past)
        floor = median * (1 - tolerance)
        if current < floor:
            failures.append(
                f'{config}: speedup_vs_memory {current:.3f} fell below '
                f'{floor:.3f} (median of {len(past)} {record["mode"]} '
                f'runs is {median:.3f}, tolerance {tolerance:.0%})')
    current_overhead = record.get('overhead_ratio')
    past_overhead = [r['overhead_ratio'] for r in same_mode
                     if r.get('overhead_ratio') is not None]
    if current_overhead is not None and past_overhead:
        median = statistics.median(past_overhead)
        ceiling = max(1.02, median * (1 + tolerance))
        if current_overhead > ceiling:
            failures.append(
                f'metrics overhead {current_overhead:.4f}x exceeds '
                f'{ceiling:.4f}x (median of {len(past_overhead)} '
                f'{record["mode"]} runs is {median:.4f}x)')
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest='command', required=True)
    for name in ('append', 'check', 'show'):
        p = sub.add_parser(name)
        p.add_argument('--trend', type=Path, default=DEFAULT_TREND)
        if name != 'show':
            p.add_argument('--summary', type=Path,
                           default=DEFAULT_SUMMARY)
        if name == 'check':
            p.add_argument('--tolerance', type=float,
                           default=TOLERANCE)
        if name == 'append':
            p.add_argument('--rebaseline', metavar='REASON',
                           help='start a new same-mode history here')
    args = parser.parse_args(argv)

    if args.command == 'show':
        history = load_trend(args.trend)
        if not history:
            print(f'{args.trend}: no recorded runs')
            return 0
        for i, r in enumerate(history):
            ratios = ' '.join(f'{c}={s:.2f}'
                              for c, s in sorted(r['speedups'].items()))
            overhead = r.get('overhead_ratio')
            tail = f' overhead={overhead:.4f}' \
                if overhead is not None else ''
            if r.get('rebaseline'):
                tail += f' rebaseline: {r["rebaseline"]}'
            print(f'{i:>3} [{r["mode"]}] {ratios}{tail}')
        return 0

    summary = json.loads(args.summary.read_text(encoding='utf-8'))
    record = record_from_summary(summary)

    if args.command == 'append':
        if args.rebaseline:
            record['rebaseline'] = args.rebaseline
        with args.trend.open('a', encoding='utf-8') as f:
            f.write(json.dumps(record, sort_keys=True) + '\n')
        print(f'appended [{record["mode"]}] run to {args.trend}')
        return 0

    history = load_trend(args.trend)
    failures = check_against_history(record, history,
                                     tolerance=args.tolerance)
    same_mode = len(same_mode_history(record, history))
    if not same_mode:
        print(f'trend check: no {record["mode"]}-mode history in '
              f'{args.trend} — run seeds the trajectory, passing')
        return 0
    for failure in failures:
        print(f'FAIL: {failure}', file=sys.stderr)
    if failures:
        return 1
    print(f'trend check passed against {same_mode} '
          f'{record["mode"]}-mode run(s)')
    return 0


if __name__ == '__main__':
    raise SystemExit(main())
