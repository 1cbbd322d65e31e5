"""Self-test of the benchmark at tiny size, in about half a minute.

    python3 perfbench/selftest.py

Runs each workload on its cheapest operations, traced and untraced,
and checks that
  - every metric that BENCHMARK.json names is printed with its unit,
  - traced spans nest,
  - per-layer self times sum to no more than the pass's wall_s,
  - a corrupted reference gives fail_share > 0 and "correct": false.
Exits 0 when all hold, 1 with the first failed check otherwise.
"""

import contextlib
import io
import json
import os
import sys

import run

sys.path.insert(0, run.SRC)
import tracing  # noqa: E402

TINY_OPS = {
    "census": [["census", 5, 2, [1]], ["census", 6, 3, [1, 3]],
               ["census", 13, 6, [1, 2, 3, 4, 5, 6]]],
    "certify": [["certify", 7, 2, [1], "cayley", 1, 1],
                ["certify", 8, 3, [1], "cayley", 2, 1],
                ["certify", 6, 3, [3], "two-regular", 2, 2]],
    "large-groups": [["psl28"]],
}


class CheckFailed(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def printed(out):
    """report()'s lines: the '#' metric lines by name, and the result."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        run.report(out)
    lines = buffer.getvalue().splitlines()
    metric_lines = {line.split()[2]: line.split() for line in lines
                    if line.startswith("# metric ")}
    return metric_lines, json.loads(lines[-1])


def check_metrics_printed(out, declared):
    metric_lines, result = printed(out)
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           "result keys %s" % sorted(result))
    expect(set(result["metrics"]) == {m["name"] for m in declared},
           "printed metrics differ from BENCHMARK.json")
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        expect(result["metrics"][name]["unit"] == unit, "unit of " + name)
        expect(isinstance(result["metrics"][name]["value"], (int, float)),
               "value of " + name)
        expect(metric_lines[name][-1] == unit, "'#' line unit of " + name)
    expect("fail_share" in metric_lines, "fail_share is not printed")
    return result


def check_spans(out):
    traced = [r for _, r in out["passes"] if r["traced"]]
    with_spans = [r for r in traced if "spans" in r]
    expect(with_spans, "no traced pass returned its spans")
    spans = with_spans[0]["spans"]
    expect(spans, "no spans recorded")
    for name, start, end, parent, op in spans:
        expect(start <= end, "span %s ends before it starts" % name)
        if parent < 0:
            expect(name == "op", "root span %s is not an operation" % name)
            continue
        p_name, p_start, p_end, _, p_op = spans[parent]
        expect(p_start <= start and end <= p_end,
               "span %s is not inside its parent %s" % (name, p_name))
        expect(op == p_op, "span %s changes operation id" % name)
    for result in traced:
        total = sum(result["self_s"].values())
        expect(total <= result["wall_s"],
               "self times %.6f s exceed wall_s %.6f s" % (total, result["wall_s"]))


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    try:
        expect(set(run.LAYER_SPANS) == {name for _, _, name in tracing.SPANS},
               "run.LAYER_SPANS and tracing.SPANS name different layers")
        expect({name for _, _, name in tracing.CALL_COUNTS} <= set(run.LAYER_COUNTS),
               "a counter of tracing.CALL_COUNTS is not reported")
        for workload, ops in TINY_OPS.items():
            reference = run.load_reference(workload)
            for trace, declared in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
                out = run.run(workload, 0, 1, trace, reference=reference,
                              ops=ops, spans_file=False)
                result = check_metrics_printed(out, declared)
                expect(result["correct"] and result["failed"] == 0,
                       "%s: outputs differ from the reference" % workload)
                if trace:
                    check_spans(out)
            corrupted = dict(reference)
            key = run.op_key(ops[0])
            corrupted[key] = {"output": reference[key]["output"] + " "}
            out = run.run(workload, 0, 1, False, reference=corrupted, ops=ops,
                          spans_file=False)
            tally = out["checked"]["tally"]
            expect(tally["mismatch"] > 0, "%s: a corrupted reference went unnoticed" % workload)
            metric_lines, result = printed(out)
            expect(float(metric_lines["fail_share"][3]) > 0,
                   "%s: fail_share stays 0 on a corrupted reference" % workload)
            expect(not result["correct"] and result["failed"] > 0,
                   "%s: a corrupted reference still reads correct" % workload)
            print("selftest %s ok" % workload)
    except CheckFailed as exc:
        print("selftest FAILED: %s" % exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
