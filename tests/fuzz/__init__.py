"""Property-based differential fuzzing of the execution modes.

With several execution axes live (memory/SQLite storage × batched/
statement-at-a-time translation × sharded/single deployment ×
in-process/worker-process shards), the equivalence surface has
outgrown hand-written differential tests; this
package is the repo's standing randomized oracle.  See
``strategies.py`` for the workload generator and ``test_differential``
for the assertions.
"""
