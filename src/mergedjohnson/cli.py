"""Command-line interface.

All structured output is JSON lines.  Exit codes: 0 success, 1 refuted
verification claim, 2 usage error.
"""

from __future__ import annotations

import json
import sys
from itertools import combinations

import click

from . import classify as cls
from . import complement as cpl
from . import verify as vfy
from .johnson import build_graph
from .nearfields import (affine_group, build_dickson, exceptional_group,
                         exceptional_spec, is_dickson_pair)
from .perms import ActionDomain, Permutation, PermutationGroup


def _parse_merge(value: str, k: int) -> frozenset:
    try:
        I = frozenset(int(part) for part in value.split(","))
    except ValueError:
        raise click.UsageError("merge set must be a comma list of integers")
    if not I or not I <= set(range(1, k + 1)):
        raise click.UsageError("merge set must be a nonempty subset of 1..k")
    return I


def _emit(record: dict, out):
    out.write(json.dumps(record, sort_keys=True) + "\n")


def _group_record(group: PermutationGroup, **extra) -> dict:
    record = {"degree": group.degree, "order": group.order,
              "generators": [g.to_one_based() for g in group.generators]}
    record.update(extra)
    return record


@click.group()
@click.option("--seed", type=int, default=None,
              help="Accepted for interface stability; all algorithms are "
                   "deterministic.")
def main(seed):
    """Merged Johnson graphs: construction, classification, witnesses,
    verification."""


@main.command()
@click.option("-n", required=True, type=int)
@click.option("-k", required=True, type=int)
@click.option("-I", "--merge", "merge", required=True,
              help="1-based merge set, e.g. 1,3")
def classify(n, k, merge):
    """Classify one instance: Aut case, Cayley, 2-regular, deficiency."""
    I = _parse_merge(merge, k)
    try:
        verdict = cls.classify_instance(n, k, I)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit(verdict, sys.stdout)


def census_rows(n_max: int):
    """All (n, k, I) verdicts with n <= n_max, sorted."""
    rows = []
    for n in range(4, n_max + 1):
        for k in range(2, n // 2 + 1):
            for size in range(1, k + 1):
                for combo in combinations(range(1, k + 1), size):
                    rows.append(cls.classify_instance(n, k, frozenset(combo)))
    rows.sort(key=lambda r: (r["n"], r["k"], sorted(r["I"])))
    return rows


@main.command()
@click.option("--n-max", required=True, type=int)
@click.option("--format", "fmt", type=click.Choice(["json", "table"]),
              default="json")
def census(n_max, fmt):
    """Classify every instance with n <= n_max."""
    if n_max > 14:
        raise click.UsageError("census capped at n_max = 14")
    rows = census_rows(n_max)
    cayley = sum(1 for r in rows if r["cayley"]["outcome"] == "YES"
                 and r["connected"])
    flagged = sum(1 for r in rows if r["cayley"]["outcome"] == "YES"
                  and not r["connected"])
    two_reg = sum(1 for r in rows if r["two_regular"]["outcome"] == "YES")
    if fmt == "json":
        for row in rows:
            _emit(row, sys.stdout)
        _emit({"summary": {"instances": len(rows), "cayley_yes": cayley,
                           "cayley_yes_disconnected": flagged,
                           "two_regular_yes": two_reg,
                           "neither": len(rows) - two_reg}}, sys.stdout)
    else:
        click.echo("%-4s %-3s %-12s %-8s %-8s %-6s" %
                   ("n", "k", "I", "cayley", "2-reg", "aut"))
        for r in rows:
            click.echo("%-4d %-3d %-12s %-8s %-8s %-6s" %
                       (r["n"], r["k"], ",".join(map(str, sorted(r["I"]))),
                        r["cayley"]["outcome"], r["two_regular"]["outcome"],
                        r["aut"]["case"]))
        click.echo("instances=%d cayley=%d two_regular=%d"
                   % (len(rows), cayley, two_reg))


@main.group()
def graph():
    """Graph construction and export."""


@graph.command("export")
@click.option("-n", required=True, type=int)
@click.option("-k", required=True, type=int)
@click.option("-I", "--merge", "merge", required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "edges", "dimacs"]),
              default="json")
@click.option("-o", "--output", type=click.Path(writable=True), default=None)
def graph_export(n, k, merge, fmt, output):
    """Write J(n,k)_I as JSON, an edge list, or DIMACS."""
    I = _parse_merge(merge, k)
    try:
        g = build_graph(n, k, I)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if not g.materialized:
        raise click.UsageError("J(%d,%d) has %d vertices, more than export "
                               "materializes" % (n, k, g.num_vertices))
    if fmt == "json":
        text = g.export_json() + "\n"
    elif fmt == "edges":
        text = g.edge_lines()
    else:
        text = g.export_dimacs()
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


@main.group()
def group():
    """Witness group construction."""


def _dickson(q, d):
    """The Dickson near-field of order q^d; ValueError on bad input."""
    if not is_dickson_pair(q, d):
        raise ValueError("(%d, %d) is not a Dickson pair" % (q, d))
    return build_dickson(q, d)


def _affine_cmd(kind):
    @click.option("-q", required=True, type=int)
    @click.option("-d", type=int, default=None,
                  help="Dickson parameter; omit for the field case (d=1)")
    def run(q, d):
        d = 1 if d is None else d
        try:
            g = affine_group(_dickson(q, d), kind)
        except ValueError as exc:
            raise click.UsageError(str(exc))
        _emit(_group_record(g, kind=kind, q=q, d=d), sys.stdout)
    return run


group.command("agl")(_affine_cmd("AGL"))
group.command("ahl")(_affine_cmd("AHL"))
group.command("agammal")(_affine_cmd("AGammaL"))


@group.command("dickson")
@click.option("-q", required=True, type=int)
@click.option("-d", required=True, type=int)
def group_dickson(q, d):
    """Build a Dickson near-field and emit its structure."""
    try:
        nf = _dickson(q, d)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    sys.stdout.write(nf.export_json() + "\n")


@group.command("exceptional")
@click.option("-p", required=True, type=int)
@click.option("--variant", type=int, default=1)
def group_exceptional(p, variant):
    """Sharply 2-transitive group from an exceptional near-field."""
    try:
        spec = exceptional_spec(p, variant)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    g = exceptional_group(spec)
    _emit(_group_record(g, p=p, variant=variant, structure=spec.g0_structure),
          sys.stdout)


@group.command("psl28-complement")
@click.option("--delta", type=click.IntRange(0, 3), required=True,
              help="Cocycle class label; 0 is the split complement.")
def group_psl28(delta):
    """PSL2(8) complement acting on the 252 vertices of J(10,5)."""
    data = cpl.build_cocycle_data(delta)
    g = cpl.complement_vertex_group(data)
    _emit(_group_record(g, delta=delta,
                        orbit_sizes=list(cpl.orbit_signature(data))),
          sys.stdout)


# --------------------------------------------------------------------------
# Verification suites
# --------------------------------------------------------------------------

def _cayley_witness_checks(instances):
    for n, k, I in instances:
        g = build_graph(n, k, I)
        w = cls.witness_group(n, k, I, "cayley")
        yield vfy.regular_action_check(w, g, 1)


def _fast_suite():
    # regular (Cayley) witnesses with at most 300 vertices
    yield from _cayley_witness_checks([(7, 2, frozenset({1})),
                                       (11, 2, frozenset({1, 2})),
                                       (19, 2, frozenset({2})),
                                       (23, 2, frozenset({1})),
                                       (8, 3, frozenset({1}))])
    # Dickson order 9: sharply 2-transitive AGL1, 2-regular on 36 vertices
    nf9 = build_dickson(3, 2)
    agl9 = affine_group(nf9, "AGL")
    yield vfy.regular_action_check(agl9.induced_subset_action(2),
                                   build_graph(9, 2, frozenset({1})), 2)
    # brute-force Aut on all graphs with <= 10 vertices
    import time as _time
    for n, k, I, expect in [(4, 2, frozenset({1}), 48),
                            (4, 2, frozenset({2}), 48),
                            (4, 2, frozenset({1, 2}), 720),
                            (5, 2, frozenset({1}), 120),
                            (5, 2, frozenset({2}), 120)]:
        t0 = _time.perf_counter()
        g = build_graph(n, k, I)
        got = vfy.bruteforce_automorphism_group(g)
        want = cls.aut_descriptor(n, k, I).order
        yield vfy.OracleReport(
            "brute-force Aut J(%d,%d)_%s has order %d" % (n, k, sorted(I), expect),
            "confirmed" if got == expect == want else "refuted",
            {"bruteforce": got, "descriptor": want},
            (_time.perf_counter() - t0) * 1000.0)
    # Petersen: no regular subgroup inside S5
    s5 = PermutationGroup([Permutation.from_cycles(5, [(0, 1)]),
                           Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])
    yield vfy.regular_subgroup_nonexistence(s5.induced_subset_action(2),
                                            build_graph(5, 2, frozenset({2})))
    # lemma sweeps
    yield vfy.lemma_regorbits_exhaustive_n4()
    yield vfy.lemma_two_orbit_check(PermutationGroup(
        [Permutation.from_cycles(4, [(0, 1, 2)])]))


def _full_suite():
    yield from _fast_suite()
    yield from _cayley_witness_checks([(27, 2, frozenset({1})),
                                       (31, 2, frozenset({1, 2})),
                                       (32, 3, frozenset({1}))])
    # order-343 Dickson near-field, regular on C(343,2) = 58653 subsets
    import time as _time
    t0 = _time.perf_counter()
    nf343 = build_dickson(7, 3)
    ahl = affine_group(nf343, "AHL")
    r = ahl.regularity_degree(ActionDomain.ksubsets(343, 2))
    yield vfy.OracleReport(
        "AHL1 of the order-343 Dickson near-field is regular on 58653 "
        "2-subsets",
        "confirmed" if r == 1 and ahl.order == 58653 else "refuted",
        {"order": ahl.order, "regularity_degree": r},
        (_time.perf_counter() - t0) * 1000.0)
    # exceptional near-fields
    for p, variant in [(5, 1), (7, 1), (11, 1), (11, 2), (23, 1),
                       (29, 1), (59, 1)]:
        t0 = _time.perf_counter()
        spec = exceptional_spec(p, variant)
        g = exceptional_group(spec)
        sharp = vfy.sharply_two_transitive_check(g)
        ok = sharp.confirmed and g.order == p * p * (p * p - 1)
        yield vfy.OracleReport(
            "exceptional near-field p=%d variant %d gives a sharply "
            "2-transitive group" % (p, variant),
            "confirmed" if ok else "refuted",
            {"order": g.order, "pair_orbit": sharp.evidence["pair_orbit"],
             "structure": spec.g0_structure},
            (_time.perf_counter() - t0) * 1000.0)
    # PSL2(8) complement suite
    t0 = _time.perf_counter()
    sigs = {}
    graphs = [build_graph(10, 5, frozenset(I))
              for I in [(1, 4), (2, 3)]]
    ok = True
    evidence = {}
    datas = {label: cpl.build_cocycle_data(label) for label in range(4)}
    for label, data in datas.items():
        g = cpl.complement_vertex_group(data)
        sigs[label] = cpl.orbit_signature(data)
        if label:
            ok &= g.order == 504 and sigs[label] == (252,)
            ok &= g.regularity_degree() == 2
            ok &= all(vfy.is_automorphism(x, gr)
                      for gr in graphs for x in g.generators)
        else:
            ok &= sigs[label] == (126, 126)
    evidence["orbit_signatures"] = {str(k): list(v) for k, v in sigs.items()}
    frob = {x: cpl.frobenius_class_action(datas[x]) for x in range(4)}
    ok &= frob[0] == 0 and sorted(frob[x] for x in (1, 2, 3)) == [1, 2, 3] \
        and all(frob[x] != x for x in (1, 2, 3))
    evidence["frobenius_action"] = frob
    yield vfy.OracleReport("PSL2(8) complement classes: orbit signatures, 2-regularity, "
                           "Frobenius 3-cycle",
                           "confirmed" if ok else "refuted", evidence,
                           (_time.perf_counter() - t0) * 1000.0)


@main.command()
@click.option("--suite", type=click.Choice(["fast", "full"]), default="fast")
def verify(suite):
    """Run the oracle suite; exit 1 if any claim is refuted."""
    reports = _fast_suite() if suite == "fast" else _full_suite()
    failed = False
    for report in reports:
        sys.stdout.write(report.to_json() + "\n")
        failed |= not report.confirmed
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
