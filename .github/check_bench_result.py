"""Check the result line of ``perfbench/run.py`` read from stdin.

    python3 perfbench/run.py --workload W ... | tail -n 1 \
        | python3 .github/check_bench_result.py [METRIC ...]

Prints the line and the named metrics that read 0, and exits 1 unless
``correct`` is true and every named metric is nonzero.  ``run.py`` exits 0
whenever it prints a result, so the exit code alone says nothing.
"""

import json
import sys

line = sys.stdin.read()
print(line)
result = json.loads(line)
zero = [name for name in sys.argv[1:] if not result["metrics"][name]["value"]]
print("reading 0:", zero)
sys.exit(result["correct"] is not True or bool(zero))
