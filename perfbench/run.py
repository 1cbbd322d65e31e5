"""Benchmark of the mergedjohnson library: one client, one workload process
at a time.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Workloads (NOTES.md says why each was chosen):
  census        every documented census query (4 <= n <= 14, 672 of them)
                through classify_instance and the census serializer
  certify       all 98 YES verdicts with n <= 12, in census order: witness
                group, graph, regular-action check
  large-groups  the `verify --suite full` claims on groups too big to sweep,
                as three operations: AHL1 over the order-343 Dickson
                near-field, the exceptional sharply 2-transitive groups for
                p <= 29, the PSL2(8) complement suite

A pass runs the workload's operations once, in a fresh interpreter
(worker.py): census in an order drawn from the seed, certify and
large-groups in the reference's order.  Passes repeat while they are
expected to end within --seconds, and at least one runs.  Every
operation's outcome is compared with reference/<workload>.jsonl.

Times are reported at reference speed: a probe in each pass
(calibrate.py) times a fixed kernel every 40 ms, and each interval is
scaled by how fast the kernel ran around it, because the shared machines
the benchmark runs on change speed by up to 1.6 times within a run.  The
unscaled figures are printed as '# detail raw.*' lines.

With --trace 0 the last line of stdout carries the end-to-end metrics.
With --trace 1 untraced and traced passes alternate, and it carries the
per-layer metrics of the traced passes and the tracing overhead.  The lines before it, each starting with
'#', stamp the run and print every metric by name and unit.

Exit status 0 on a completed run (wrong outputs included, reported as
"correct": false), 2 when the library or the reference cannot be found or a
pass dies.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOADS = ("census", "certify", "large-groups")

# set-up is measured in these extra interpreters as well as in every pass
SETUP_PROBES = 12
# a pass that has not finished by then is reported as a dead pass
PASS_TIMEOUT_S = 150

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("op_p50_ms", "ms"), ("op_tail_ms", "ms"), ("peak_rss_mb", "MB")]
LAYER_SPANS = [
    "catalog.minimal_stabilizer_order", "classify.classify_instance",
    "classify.witness_group", "perms.induced_subset_action",
    "johnson.build_graph", "verify.regular_action_check", "perms.elements",
    "perms.regularity_degree", "perms.orbit", "perms.chain",
    "fields.build_field", "nearfields.build_dickson", "nearfields.affine_group",
    "nearfields.exceptional_group", "verify.sharply_two_transitive_check",
    "verify.is_automorphism", "complement.build_cocycle_data",
    "complement.complement_vertex_group", "cli._emit",
]
LAYER_COUNTS = [
    "catalog.groups_built", "subsets.ksubset_rank.calls", "johnson.edges",
    "perms.elements.count", "perms.sweep.checks", "perms.orbit.points",
    "perms.chain.base_len", "perms.permutations_built",
    "verify.pair_orbit.states",
]
PER_LAYER = ([(name + ".self_s", "s") for name in LAYER_SPANS]
             + [(name, "count") for name in LAYER_COUNTS]
             + [("trace_overhead_s", "s")])


class BenchError(Exception):
    """The run cannot produce a result."""


def op_key(op) -> str:
    return json.dumps(op)


def load_reference(workload: str) -> dict:
    """op key -> {"output": str} or {"error": exception name}."""
    path = os.path.join(BENCH_DIR, "reference", workload + ".jsonl")
    try:
        with open(path) as fh:
            lines = [json.loads(line) for line in fh]
    except OSError as exc:
        raise BenchError("cannot read the reference: %s" % exc)
    return {op_key(line.pop("op")): line for line in lines}


# -- passes -----------------------------------------------------------------

def run_worker(ops, trace=False, spans=False) -> dict:
    """One fresh interpreter running the ops once; set-up time added."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    job = json.dumps({"ops": ops, "trace": trace, "spans": spans})
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER], input=job, env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("a pass ran longer than %d s" % PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("a pass died with status %d:\n%s"
                         % (proc.returncode, proc.stderr[-2000:]))
    result = json.loads(proc.stdout)
    raw = result.pop("setup_done") - start - result.pop("setup_paused")
    result["raw"]["setup_s"] = raw
    result["setup_s"] = raw * result.pop("setup_factor")
    return result


def run_passes(ops, rng, seconds, modes=(False,), spans=False, shuffle=True) -> list:
    """Passes in fresh interpreters, cycling through `modes` (traced or
    not), each in a seed-drawn order unless `shuffle` is false.  A pass
    starts only if it is expected to end within `seconds`, judged by the
    passes before it; every mode runs at least once.  Returns (order,
    worker result) pairs."""
    passes = []
    start = time.monotonic()
    durations = []
    while len(passes) < len(modes) or (
            time.monotonic() + statistics.median(durations) <= start + seconds):
        trace = modes[len(passes) % len(modes)]
        order = list(ops)
        if shuffle:
            rng.shuffle(order)
        began = time.monotonic()
        first_traced = trace and not any(r["traced"] for _, r in passes)
        result = run_worker(order, trace, spans and first_traced)
        result["traced"] = trace
        durations.append(time.monotonic() - began)
        passes.append((order, result))
    return passes


# -- checking ---------------------------------------------------------------

def judge(expected: dict, digest, error) -> str:
    """'ok', 'known-failure' (raised the error the reference recorded),
    'unchecked' (answers where the reference recorded an error, so there is
    nothing to compare with) or 'mismatch'."""
    if "error" in expected:
        if error == expected["error"]:
            return "known-failure"
        return "unchecked" if error is None else "mismatch"
    if error is None and digest == hashlib.sha256(expected["output"].encode()).hexdigest():
        return "ok"
    return "mismatch"


def check(passes, reference) -> dict:
    """Outcome counts over all passes, and the ops that were not 'ok'."""
    tally = {"ok": 0, "known-failure": 0, "unchecked": 0, "mismatch": 0}
    flagged = {}
    for order, result in passes:
        for op, (digest, error) in zip(order, result["ops"]):
            verdict = judge(reference[op_key(op)], digest, error)
            tally[verdict] += 1
            if verdict != "ok":
                flagged[op_key(op)] = verdict if error is None else "%s (%s)" % (verdict, error)
    return {"tally": tally, "flagged": flagged}


# -- metrics ----------------------------------------------------------------

def _beta_fraction(a, b, x):
    """Continued fraction of the incomplete beta function (Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def beta_cdf(x, a, b):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def quantile(samples, p):
    """Harrell-Davis estimate of the p-quantile: a weighted mean of the
    order statistics, weights from Beta((n+1)p, (n+1)(1-p)).  Unlike a
    single order statistic it does not jump between two operations when
    their times come close, which in a pass of 98 operations of a few
    dozen different sizes moved the plain median by 10% from run to run."""
    ordered = sorted(samples)
    count = len(ordered)
    if count == 1:
        return ordered[0]
    a, b = (count + 1) * p, (count + 1) * (1.0 - p)
    cdf = [beta_cdf(i / count, a, b) for i in range(count + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def tail(samples):
    """The highest percentile with at least ten samples above it, and that
    percentile; the maximum when there are fewer than eleven samples."""
    count = len(samples)
    if count < 11:
        return max(samples), 100.0
    share = (count - 10) / count
    return quantile(samples, share), 100.0 * share


def time_figures(passes, setups) -> dict:
    """Medians over passes of the time metrics; each pass holds its
    wall_s, cpu_s and per-operation op_ms."""
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "op_p50_ms": statistics.median(quantile(p["op_ms"], 0.5) for p in passes),
        "op_tail_ms": statistics.median(tail(p["op_ms"])[0] for p in passes),
    }


def end_to_end(results, setups) -> tuple[dict, dict]:
    """Medians over passes, at reference speed.  Every pass runs the same
    operations, so the per-pass figures do not depend on how many passes
    fit in the run.  The details add the same figures before scaling and
    the median scale factor."""
    metrics = time_figures(results, [r["setup_s"] for r in setups])
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in results)
    raw = time_figures([r["raw"] for r in results], [r["raw"]["setup_s"] for r in setups])
    details = {"raw." + name: value for name, value in raw.items()}
    details.update(op_tail_percentile=tail(results[0]["op_ms"])[1],
                   ops_per_pass=len(results[0]["op_ms"]), passes=len(results),
                   setup_samples=len(setups),
                   speed_factor=statistics.median(r["factor"] for r in results))
    return metrics, details


def per_layer(traced, untraced_wall) -> dict:
    metrics = {}
    for name in LAYER_SPANS:
        metrics[name + ".self_s"] = statistics.median(
            r["self_s"].get(name, 0.0) for r in traced)
    for name in LAYER_COUNTS:
        metrics[name] = statistics.median(r["counts"].get(name, 0) for r in traced)
    metrics["trace_overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - untraced_wall)
    return metrics


# -- reporting --------------------------------------------------------------

def source_digest() -> str:
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "mergedjohnson"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def report(out) -> None:
    """Print the '#' lines, then the result object as the last line."""
    print("# stamp " + json.dumps(out["stamp"], sort_keys=True))
    for name, unit in out["units"]:
        print("# metric %-45s %-16r %s" % (name, out["metrics"][name], unit))
    for name, value in sorted(out["details"].items()):
        print("# detail %-45s %r" % (name, value))
    tally = out["checked"]["tally"]
    attempted = sum(tally.values())
    failures = tally["known-failure"] + tally["mismatch"]
    print("# metric %-45s %-16r share  (%d of %d operations raised, were "
          "refuted or differed from the reference)"
          % ("fail_share", failures / attempted, failures, attempted))
    print("# outcomes " + json.dumps(tally, sort_keys=True))
    for key, verdict in sorted(out["checked"]["flagged"].items()):
        print("# flagged %s %s" % (key, verdict))
    if out["spans_path"]:
        print("# spans written to " + out["spans_path"])
    print(json.dumps({
        "correct": tally["mismatch"] == 0,
        "attempted": attempted,
        "failed": tally["mismatch"],
        "metrics": {name: {"value": out["metrics"][name], "unit": unit}
                    for name, unit in out["units"]},
    }))


def write_spans(passes, workload, seed) -> str:
    order, result = next((o, r) for o, r in passes if "spans" in r)
    folder = os.path.join(ROOT, ".perfbench")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, "spans-%s-seed%d.jsonl" % (workload, seed))
    with open(path, "w") as fh:
        for name, start, end, parent, op in result["spans"]:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "op": op,
                                 "input": order[op] if op is not None else None}) + "\n")
    return os.path.relpath(path, ROOT)


def run(workload, seed, seconds, trace, reference=None, ops=None, spans_file=True):
    """One benchmark run; returns the result object of the last line plus
    the details that report() prints."""
    if not os.path.isfile(os.path.join(SRC, "mergedjohnson", "__init__.py")):
        raise BenchError("no library at %s; run from the root of a checkout" % SRC)
    if reference is None:
        reference = load_reference(workload)
    rng = random.Random(seed)
    if ops is None:
        ops = [json.loads(key) for key in reference]
    probes = [run_worker([]) for _ in range(SETUP_PROBES)]
    # traced and untraced passes alternate, so that both see the same
    # machine; the tracing overhead is the difference of their medians
    # only census is shuffled: in certify and large-groups an operation's
    # time depends on the operations before it (a check took up to 1.7
    # times as long in one order as in another), and with few operations
    # per pass op_p50_ms and op_tail_ms would follow the order
    passes = run_passes(ops, rng, seconds, (False, True) if trace else (False,),
                        spans=trace, shuffle=workload == "census")
    untraced = [r for _, r in passes if not r["traced"]]
    traced = [r for _, r in passes if r["traced"]]
    metrics, details = end_to_end(untraced, probes + untraced)
    units = END_TO_END
    spans_path = None
    if trace:
        details["traced_passes"] = len(traced)
        details["traced_wall_s"] = statistics.median(r["wall_s"] for r in traced)
        details.update(("untraced." + name, value) for name, value in metrics.items())
        metrics = per_layer(traced, metrics["wall_s"])
        units = PER_LAYER
        if spans_file:
            spans_path = write_spans(passes, workload, seed)
    checked = check(passes, reference)
    stamp = {"workload": workload, "seed": seed, "seconds": seconds,
             "trace": int(trace), "commit": git_commit(),
             "source_sha256": source_digest(),
             "nproc": len(os.sched_getaffinity(0)),
             "python": platform.python_version(),
             "numpy": passes[0][1]["numpy"]}
    return {"stamp": stamp, "metrics": metrics, "units": units,
            "details": details, "checked": checked, "spans_path": spans_path,
            "passes": passes}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    report(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
