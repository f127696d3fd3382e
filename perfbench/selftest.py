"""The benchmark's self-test.

    python3 perfbench/selftest.py

For each workload, runs the traced run (``run.py --trace 1``) twice with
seed ``SEED`` and asserts that

* both runs are correct, with no failed operation — which includes the
  waterfall check of ``run.py`` (each op class's traced time, as the
  layers split it, less the tracing's estimated cost, within
  ``WATERFALL_TOLERANCE`` of its untraced latency);
* every count-valued per-layer metric (unit ``count`` or ``bytes``, and
  every ratio of counts, i.e. every ratio but the ``trace.*`` ones)
  is identical in the two runs, so later changes can cite them.

It also checks that the benchmark refuses to run, without printing a
result, from a directory that holds only ``BENCHMARK.json`` and the
benchmark's own files (the program under test is missing there).
Exits 0 when every check passed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ('fig6_oltp', 'sharded_durable')
SEED = 5


def _run(cwd: str, workload: str) -> tuple:
    # A traced run makes a fixed number of rounds; --seconds is unused.
    proc = subprocess.run(
        [sys.executable, 'perfbench/run.py', '--workload', workload,
         '--seed', str(SEED), '--seconds', '1', '--trace', '1'],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def _exact(spec) -> list[str]:
    return [metric['name'] for metric in spec['per_layer']
            if metric['unit'] in ('count', 'bytes')
            or (metric['unit'] == 'ratio'
                and not metric['name'].startswith('trace.'))]


def check_workload(workload: str, exact: list[str]) -> list[str]:
    failures = []
    results = []
    for attempt in (1, 2):
        code, lines, stderr = _run(ROOT, workload)
        if code != 0 or not lines:
            return [f'{workload}: run {attempt} exited {code}: '
                    f'{stderr.strip()[-500:]}']
        result = json.loads(lines[-1])
        if not result['correct'] or result['failed']:
            problems = [line for line in lines if 'problem' in line]
            failures.append(f'{workload}: run {attempt} not correct '
                            f'({result["failed"]} failed) {problems[:3]}')
        results.append(result['metrics'])
    for name in exact:
        first, second = results[0][name]['value'], results[1][name]['value']
        if first != second:
            failures.append(f'{workload}: {name} differs between '
                            f'same-seed runs: {first} != {second}')
    return failures


def check_refuses_without_program(workload: str) -> list[str]:
    bare = os.path.join(ROOT, '.perfbench_out', 'bare-checkout')
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, 'BENCHMARK.json'), bare)
        shutil.copytree(HERE, os.path.join(bare, 'perfbench'),
                        ignore=shutil.ignore_patterns('__pycache__'))
        code, lines, _ = _run(bare, workload)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0:
        return ['the benchmark exited 0 without the program']
    if lines and lines[-1].startswith('{'):
        return ['the benchmark printed a result without the program']
    return []


def main() -> int:
    with open(os.path.join(ROOT, 'BENCHMARK.json')) as spec_file:
        exact = _exact(json.load(spec_file))
    failures = check_refuses_without_program(WORKLOADS[0])
    for workload in WORKLOADS:
        found = check_workload(workload, exact)
        print(f'{workload}: {"ok" if not found else "FAILED"}')
        failures += found
    for failure in failures:
        print(f'FAIL {failure}')
    print(f'{len(exact)} exact-repeat metrics checked; '
          f'{"all checks passed" if not failures else "checks failed"}')
    return 1 if failures else 0


if __name__ == '__main__':
    sys.exit(main())
