"""Merged Johnson graphs J(n,k)_I: construction, Cayley and 2-regular
classification, explicit witness groups, and brute-force verification."""

from .classify import (AutDescriptor, DeficiencyResult, Verdict,
                       aut_descriptor, cayley_deficiency, classify_cayley,
                       classify_instance, classify_two_regular, only_an_sn,
                       witness_group)
from .johnson import MergedJohnsonGraph, MergeSet, build_graph, graph_stats
from .nearfields import (NearField, affine_group, build_dickson,
                         exceptional_group, exceptional_spec, is_dickson_pair)
from .perms import ActionDomain, Permutation, PermutationGroup
from .subsets import RefusedInput
from .verify import (OracleReport, bruteforce_automorphism_group,
                     is_automorphism, lemma_regorbits_exhaustive_n4,
                     lemma_two_orbit_check, regular_action_check,
                     regular_subgroup_nonexistence)

__all__ = [
    "ActionDomain", "AutDescriptor", "DeficiencyResult", "MergeSet",
    "MergedJohnsonGraph", "NearField", "OracleReport", "Permutation",
    "PermutationGroup", "RefusedInput", "Verdict",
    "affine_group", "aut_descriptor", "build_dickson", "build_graph",
    "bruteforce_automorphism_group", "cayley_deficiency", "classify_cayley",
    "classify_instance", "classify_two_regular",
    "exceptional_group", "exceptional_spec", "graph_stats", "is_automorphism",
    "is_dickson_pair", "lemma_regorbits_exhaustive_n4",
    "lemma_two_orbit_check", "only_an_sn", "regular_action_check",
    "regular_subgroup_nonexistence", "witness_group",
]

__version__ = "0.1.0"
