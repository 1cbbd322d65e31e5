"""Record the reference outcome of every benchmark operation.

    python3 perfbench/record_reference.py [workload ...]

Runs each operation of the named workloads (all when none is named) with
the library in src/ and writes perfbench/reference/<workload>.jsonl: one
line per operation, {"op": [...], "output": "..."} or {"op": [...],
"error": name}.  run.py compares every timed operation against these
lines, and takes the operation lists of the workloads from them.
Re-record only
when a verdict or a claim's evidence is meant to change, and say so where
the change is described.
"""

import json
import os
import sys
from itertools import combinations

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import worker  # noqa: E402
from mergedjohnson import classify  # noqa: E402


def census_queries(n_max=14):
    """Every (n, k, I) that `census --n-max 14` documents, in census order."""
    for n in range(4, n_max + 1):
        for k in range(2, n // 2 + 1):
            for size in range(1, k + 1):
                for combo in combinations(range(1, k + 1), size):
                    yield n, k, list(combo)


def certify_checks(n_max=12):
    """Every YES verdict with n <= n_max, as criterion 8 checks it."""
    for n, k, I in census_queries(n_max):
        cayley = classify.classify_cayley(n, k, I)
        two_reg = classify.classify_two_regular(n, k, I)
        if cayley.outcome:
            yield ["certify", n, k, I, "cayley", cayley.case, 1]
        if two_reg.outcome:
            yield ["certify", n, k, I, "two-regular", two_reg.cases[0], 2]


WORKLOAD_OPS = {
    "census": lambda: [["census", n, k, I] for n, k, I in census_queries()],
    "certify": lambda: list(certify_checks()),
    "large-groups": lambda: [
        ["dickson343"], ["psl28"],
        ["exceptional", [[5, 1], [7, 1], [11, 1], [11, 2], [23, 1], [29, 1]]]],
}


def main(workloads):
    os.makedirs(os.path.join(BENCH_DIR, "reference"), exist_ok=True)
    for workload in workloads or WORKLOAD_OPS:
        path = os.path.join(BENCH_DIR, "reference", workload + ".jsonl")
        with open(path, "w") as fh:
            for op in WORKLOAD_OPS[workload]():
                output, error = worker.execute(op)
                line = {"op": op, "output": output} if error is None \
                    else {"op": op, "error": error}
                fh.write(json.dumps(line, sort_keys=True) + "\n")
        print("wrote", path)


if __name__ == "__main__":
    main(sys.argv[1:])
