"""One timed pass of a benchmark workload, in a fresh interpreter.

run.py starts this script once per pass and once per set-up probe, so no
process cache of the library (the lru_cache on the near-field search,
NearField tables, group chains and element lists) carries over between
passes.  The job arrives as JSON on stdin:

    {"ops": [[kind, *args], ...], "trace": bool, "spans": bool}

and one JSON object goes to stdout: the monotonic time at which
`import mergedjohnson.cli` returned, the pass's wall and CPU time, its peak
resident memory, and per operation its time in ms, the SHA-256 of its
output and the name of the exception it raised, if any.  With "trace" the
library is wrapped by tracing.py and per-layer self times and counters are
added, and "spans" adds the raw spans.

Times are net of the speed probe and scaled to reference speed
(calibrate.py); "raw" holds the net times before scaling, and
"setup_paused" and "setup_factor" let run.py do the same for set-up.
"""

import sys
import time

import calibrate

# the speed probe runs from interpreter start, so that set-up is measured
# at reference speed too (calibrate.py)
SAMPLER = calibrate.Sampler()
if __name__ == "__main__":
    SAMPLER.start()

import mergedjohnson.cli  # noqa: E402  set-up ends when this import returns

SETUP_DONE = time.monotonic()
SETUP_END, SETUP_NET = SAMPLER.now()

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402

from mergedjohnson import (classify, cli, complement, johnson,  # noqa: E402
                           nearfields, perms, verify)

# Library functions are looked up through their modules at call time, so a
# traced pass reaches the wrappers that tracing.install puts there.


def _claim(ok: bool, evidence: dict) -> dict:
    return {"outcome": "confirmed" if ok else "refuted", "evidence": evidence}


def census(n, k, I):
    """One `census` row, serialized the way `mergedjohnson census` does."""
    out = io.StringIO()
    cli._emit(classify.classify_instance(n, k, frozenset(I)), out)
    return out.getvalue()


def certify(n, k, I, kind, case, r):
    """Criterion 8 for one YES verdict: witness, graph, then the r-regular
    action check, nothing cached."""
    witness = classify.witness_group(n, k, frozenset(I), kind, case)
    graph = johnson.build_graph(n, k, frozenset(I))
    report = verify.regular_action_check(witness, graph, r)
    return json.dumps(_claim(report.confirmed, report.evidence), sort_keys=True)


def dickson343():
    """AHL1 of the order-343 Dickson near-field is regular on 58653
    2-subsets (the `verify --suite full` claim)."""
    ahl = nearfields.affine_group(nearfields.build_dickson(7, 3), "AHL")
    r = ahl.regularity_degree(perms.ActionDomain.ksubsets(343, 2))
    return json.dumps(_claim(r == 1 and ahl.order == 58653,
                             {"order": ahl.order, "regularity_degree": r}),
                      sort_keys=True)


def exceptional(pairs):
    """For each (p, variant), the exceptional near-field of order p^2 gives
    a sharply 2-transitive group: one claim per pair, as `verify --suite
    full` makes them, run as one operation."""
    claims = []
    for p, variant in pairs:
        spec = nearfields.exceptional_spec(p, variant)
        group = nearfields.exceptional_group(spec)
        sharp = verify.sharply_two_transitive_check(group)
        ok = sharp.confirmed and group.order == p * p * (p * p - 1)
        claims.append(_claim(ok, {"order": group.order,
                                  "pair_orbit": sharp.evidence["pair_orbit"],
                                  "structure": spec.g0_structure}))
    return json.dumps(claims, sort_keys=True)


def psl28():
    """PSL2(8) complement classes: orbit signatures, 2-regularity and
    automorphisms of J(10,5)_I, and the Frobenius 3-cycle."""
    graphs = [johnson.build_graph(10, 5, frozenset(I)) for I in [(1, 4), (2, 3)]]
    datas = {label: complement.build_cocycle_data(label) for label in range(4)}
    ok = True
    sigs = {}
    for label, data in datas.items():
        group = complement.complement_vertex_group(data)
        sigs[label] = complement.orbit_signature(data)
        if label:
            ok &= group.order == 504 and sigs[label] == (252,)
            ok &= group.regularity_degree() == 2
            ok &= all(verify.is_automorphism(x, g)
                      for g in graphs for x in group.generators)
        else:
            ok &= sigs[label] == (126, 126)
    frob = {x: complement.frobenius_class_action(datas[x]) for x in range(4)}
    ok &= frob[0] == 0 and sorted(frob[x] for x in (1, 2, 3)) == [1, 2, 3] \
        and all(frob[x] != x for x in (1, 2, 3))
    evidence = {"orbit_signatures": {str(k): list(v) for k, v in sigs.items()},
                "frobenius_action": frob}
    return json.dumps(_claim(ok, evidence), sort_keys=True)


OPS = {"census": census, "certify": certify, "dickson343": dickson343,
       "exceptional": exceptional, "psl28": psl28}


def execute(op, tracer=None, op_id=None):
    """Run one operation: (output, exception name), exactly one None."""
    fn = OPS[op[0]]
    try:
        if tracer is None:
            return fn(*op[1:]), None
        return tracer.run_op(op_id, lambda: fn(*op[1:])), None
    except Exception as exc:  # a failed operation never aborts the pass
        return None, type(exc).__name__


def main():
    job = json.load(sys.stdin)
    tracer = None
    if job.get("trace"):
        import tracing

        tracer = tracing.Tracer(clock=SAMPLER.net_clock)
        tracing.install(tracer)
    ops = []
    cpu0 = SAMPLER.cpu()
    start, net0 = SAMPLER.now()
    for i, op in enumerate(job["ops"]):
        raw0, op0 = SAMPLER.now()
        output, error = execute(op, tracer, i)
        raw1, op1 = SAMPLER.now()
        ops.append([raw0, raw1, op1 - op0, output, error])
    end, net1 = SAMPLER.now()
    cpu = SAMPLER.cpu() - cpu0
    # probes after the last operation, which the factors below look at
    SAMPLER.probe(calibrate.NEIGHBOURS)
    SAMPLER.stop()
    factor = SAMPLER.factor(start, end)
    wall = net1 - net0
    result = {
        "setup_done": SETUP_DONE,
        "setup_paused": SETUP_END - SETUP_NET,
        "setup_factor": SAMPLER.factor(SAMPLER.started, SETUP_END),
        "numpy": numpy.__version__,
        "wall_s": wall * factor,
        "cpu_s": cpu * factor,
        "factor": factor,
        "op_ms": [net * 1000.0 * SAMPLER.factor(raw0, raw1)
                  for raw0, raw1, net, _, _ in ops],
        "raw": {"wall_s": wall, "cpu_s": cpu,
                "op_ms": [net * 1000.0 for _, _, net, _, _ in ops]},
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": [[None if out is None else hashlib.sha256(out.encode()).hexdigest(), err]
                for _, _, _, out, err in ops],
    }
    if tracer is not None:
        result["self_s"] = {name: t * factor for name, t in tracer.self_times().items()}
        result["counts"] = dict(tracer.counts)
        if job.get("spans"):
            result["spans"] = tracer.spans
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
