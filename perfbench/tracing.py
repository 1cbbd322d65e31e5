"""Runtime spans and counters around the library's public functions.

Nothing under src/ is edited: `install` replaces functions and methods on
the already imported modules with timing wrappers.  A module-level function
is replaced wherever the same object is bound, so names that other modules
took with `from .x import f` are wrapped too.

Spans are kept in memory as [name, start, end, parent index, op id] and
turned into per-layer self times when a pass ends.  A span's self time is
its duration minus the durations of its direct children; the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

from mergedjohnson import (catalog, classify, cli, complement, fields, johnson,
                           nearfields, perms, subsets, verify)

# (owner, attribute, span name): module functions and class methods timed
# as layers.  Self time of a span is the layer's own work.
SPANS = [
    (catalog, "minimal_stabilizer_order", "catalog.minimal_stabilizer_order"),
    (classify, "classify_instance", "classify.classify_instance"),
    (classify, "witness_group", "classify.witness_group"),
    (johnson, "build_graph", "johnson.build_graph"),
    (verify, "regular_action_check", "verify.regular_action_check"),
    (verify, "sharply_two_transitive_check", "verify.sharply_two_transitive_check"),
    (verify, "is_automorphism", "verify.is_automorphism"),
    (fields, "build_field", "fields.build_field"),
    (nearfields, "build_dickson", "nearfields.build_dickson"),
    (nearfields, "affine_group", "nearfields.affine_group"),
    (nearfields, "exceptional_group", "nearfields.exceptional_group"),
    (complement, "build_cocycle_data", "complement.build_cocycle_data"),
    (complement, "complement_vertex_group", "complement.complement_vertex_group"),
    (cli, "_emit", "cli._emit"),
    (perms.PermutationGroup, "induced_subset_action", "perms.induced_subset_action"),
    (perms.PermutationGroup, "elements", "perms.elements"),
    (perms.PermutationGroup, "regularity_degree", "perms.regularity_degree"),
    (perms.PermutationGroup, "orbit", "perms.orbit"),
    (perms.StabilizerChain, "__init__", "perms.chain"),
]

# Hot calls that are only counted: a span each would cost more than the call.
# The hooks below add the counters johnson.edges, perms.elements.count,
# perms.sweep.checks, perms.orbit.points, perms.chain.base_len and
# verify.pair_orbit.states.
CALL_COUNTS = [
    (subsets, "ksubset_rank", "subsets.ksubset_rank.calls"),
    (catalog.HomogRecord, "construct", "catalog.groups_built"),
    (perms.Permutation, "__init__", "perms.permutations_built"),
]


def _elements_before(args, kwargs):
    # only a call that enumerates counts: no cached list yet, or a limit
    limit = kwargs.get("limit", args[1] if len(args) > 1 else None)
    return args[0]._elements is None or limit is not None


def _elements_after(tracer, fresh, result, args, kwargs):
    if fresh:
        tracer.counts["perms.elements.count"] += len(result)


_REGULARITY_SIGNATURE = inspect.signature(perms.PermutationGroup.regularity_degree)


def _sweep_after(tracer, _, result, args, kwargs):
    # the exhaustive sweep tests every element at every domain point
    if result is None:
        return
    bound = _REGULARITY_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    group, domain = bound.arguments["self"], bound.arguments["domain"]
    size = group.degree if domain is None else domain.size
    if group.order <= bound.arguments["exhaustive_limit"]:
        tracer.counts["perms.sweep.checks"] += group.order * size


def _orbit_after(tracer, _, result, args, kwargs):
    tracer.counts["perms.orbit.points"] += len(result[0])


def _chain_after(tracer, _, result, args, kwargs):
    tracer.counts["perms.chain.base_len"] += len(args[0].levels)


def _graph_after(tracer, _, result, args, kwargs):
    if result.materialized:
        tracer.counts["johnson.edges"] += len(result.edges)


def _pair_orbit_after(tracer, _, result, args, kwargs):
    tracer.counts["verify.pair_orbit.states"] += result.evidence["pair_orbit"]


HOOKS = {
    "perms.elements": (_elements_before, _elements_after),
    "perms.regularity_degree": (None, _sweep_after),
    "perms.orbit": (None, _orbit_after),
    "perms.chain": (None, _chain_after),
    "johnson.build_graph": (None, _graph_after),
    "verify.sharply_two_transitive_check": (None, _pair_orbit_after),
}

class Tracer:
    """Span and counter store for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.op = None

    def span(self, name, fn):
        spans, stack, tracer, clock = self.spans, self.stack, self, self.clock
        before, after = HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            token = before(args, kwargs) if before else None
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after:
                after(tracer, token, result, args, kwargs)
            return result

        return wrapped

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def run_op(self, op_id, fn):
        """Run one operation under a root span named 'op'."""
        self.op = op_id
        return self.span("op", fn)()

    def self_times(self) -> dict:
        """Per-name sum of self times over the recorded spans."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals = defaultdict(float)
        for (name, *_), t in zip(self.spans, own):
            totals[name] += t
        return dict(totals)


def _rebind(original, replacement):
    """Point every binding of a module-level function at the replacement."""
    for name, module in list(sys.modules.items()):
        if name == "mergedjohnson" or name.startswith("mergedjohnson."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced function and method; call once per process."""
    for table, wrap in ((SPANS, tracer.span), (CALL_COUNTS, tracer.counter)):
        for owner, attr, name in table:
            original = vars(owner)[attr]
            replacement = wrap(name, original)
            if inspect.isclass(owner):
                setattr(owner, attr, replacement)
            else:
                _rebind(original, replacement)
