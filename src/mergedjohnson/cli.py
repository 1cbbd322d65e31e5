"""Command-line interface.

All structured output is JSON lines.  Exit codes: 0 success, 1 refuted
verification claim, 2 usage error (a bad option, or an input the library
refuses with RefusedInput in any subcommand), 3 internal error (an
AssertionError or any other ValueError in any subcommand, reported in one
line on stderr).
"""

from __future__ import annotations

import json
import sys

import click

from . import classify as cls
from . import complement as cpl
from . import verify as vfy
from .johnson import build_graph
from .nearfields import affine_group, build_dickson, exceptional_group, exceptional_spec
from .perms import PermutationGroup
from .subsets import RefusedInput


def _parse_merge(value: str) -> frozenset:
    """The integers of a comma list; the library checks the set after the
    bounds on n and k, so a bad k is named before a bad set."""
    try:
        return frozenset(int(part) for part in value.split(","))
    except ValueError:
        raise click.UsageError("merge set must be a comma list of integers")


def _emit(record: dict, out):
    out.write(json.dumps(record, sort_keys=True) + "\n")


def _group_record(group: PermutationGroup, **extra) -> dict:
    record = {"degree": group.degree, "order": group.order,
              "generators": [g.to_one_based() for g in group.generators]}
    record.update(extra)
    return record


class _Command(click.Command):
    """A subcommand, with an input the library refuses turned into a usage error."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except RefusedInput as exc:
            raise click.UsageError(str(exc), ctx)


class _Main(click.Group):
    """The command group, with internal errors turned into exit code 3."""

    command_class = _Command
    group_class = type  # the subgroups are _Main too

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (AssertionError, ValueError) as exc:
            message = " ".join(str(exc).split()) or type(exc).__name__
            click.echo("internal error: %s" % message, err=True)
            ctx.exit(3)


@click.group(cls=_Main)
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
    _emit(cls.classify_instance(n, k, _parse_merge(merge)), sys.stdout)


def census_rows(n_max: int):
    """All (n, k, I) verdicts with n <= n_max, sorted."""
    rows = [cls.classify_instance(n, k, I)
            for n, k, I in cls.census_instances(n_max)]
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
@click.option("-o", "--output", type=click.Path(dir_okay=False, writable=True),
              default=None)
def graph_export(n, k, merge, fmt, output):
    """Write J(n,k)_I as JSON, an edge list, or DIMACS."""
    g = build_graph(n, k, _parse_merge(merge))
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
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise click.UsageError("cannot write %s: %s" % (output, exc.strerror))


@main.group()
def group():
    """Witness group construction."""


def _affine_cmd(kind):
    @click.option("-q", required=True, type=int)
    @click.option("-d", type=int, default=None,
                  help="Dickson parameter; omit for the field case (d=1)")
    def run(q, d):
        d = 1 if d is None else d
        g = affine_group(build_dickson(q, d), kind)
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
    sys.stdout.write(build_dickson(q, d).export_json() + "\n")


@group.command("exceptional")
@click.option("-p", required=True, type=int)
@click.option("--variant", type=int, default=1)
def group_exceptional(p, variant):
    """Sharply 2-transitive group from an exceptional near-field."""
    spec = exceptional_spec(p, variant)
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
    _emit(_group_record(g, delta=delta, orbit_sizes=list(g.orbit_sizes())),
          sys.stdout)


@main.command()
@click.option("--suite", type=click.Choice(list(vfy.SUITES)), default="fast")
def verify(suite):
    """Run the oracle suite; exit 1 if any claim is refuted."""
    failed = False
    for report in vfy.run_suite(suite):
        sys.stdout.write(report.to_json() + "\n")
        failed |= not report.confirmed
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
