"""Cocycle complements of PSL2(8) inside S2^126 : PSL2(8).

S = PSL2(8) of order 504 acts on 10 points (the projective line over F_8
plus one fixed point) and hence on the 126 equipartitions of the point
set into complementary 5-subsets.  M is the group of all functions from
equipartitions to F_2, E = M : S the semidirect product.  Complements of
M in E correspond to cocycles gamma induced from homomorphisms delta of
the Klein four-group V stabilizing a base equipartition phi0.  The zero
delta gives the standard complement with two vertex orbits of size 126;
the three nonzero delta give 2-regular groups on all 252 five-subsets,
the witnesses for J(10,5)_I with I in {{1,4}, {2,3}, {1,4,5}, {2,3,5}}.

An equipartition is only an index: the lex rank of its half holding
point 0 among the 126 such 5-subsets, and phi0 is index 0.  E is never
multiplied out: (gamma(s), s) is handled as its action on the 252
five-subsets, s followed by the complement swaps that gamma(s) marks.
The transversal from phi0 is perms.transversal_bfs over the index table
of the action on the 126 equipartitions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .catalog import moebius_generators, projective_line_group
from .perms import Permutation, PermutationGroup, transversal_bfs
from .subsets import RefusedInput, complement_ranks, ksubsets, read_only


# --------------------------------------------------------------------------
# Pointed PSL2(8) on 10 points
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PointedPSL28:
    """PSL2(8) of degree 10: points 0..7 are the elements of GF(8) in
    canonical order, 8 is infinity, 9 is the extra fixed point."""

    group: PermutationGroup
    frobenius: Permutation


def build_pointed_psl28() -> PointedPSL28:
    """catalog's PSL2(8) on P^1(F_8), plus the fixed point 9; frobenius is
    the field automorphism a -> a^2 on the same 10 points."""
    psl28 = projective_line_group(8, "PSL2")
    group = PermutationGroup([g.extended(10) for g in psl28.generators])
    if group.order != 504:
        raise AssertionError("PSL2(8) came out with order %d" % group.order)
    *_, frobenius = moebius_generators(8)
    return PointedPSL28(group, frobenius.extended(10))


# --------------------------------------------------------------------------
# Equipartitions and the cocycle data
# --------------------------------------------------------------------------

@functools.cache
def _equipartition_tables() -> tuple:
    """(halves, phi_of_rank): each equipartition's half holding point 0 as
    an ascending row of points, by equipartition index (126 rows, in lex
    order), and the index of the equipartition each 5-subset is a half of,
    by co-lex rank (252 entries)."""
    halves = np.array([(0, *rest) for rest in combinations(range(1, 10), 4)])
    key_rank = ksubsets(10, 5).rank(halves)
    phi_of_rank = np.empty(252, dtype=np.intp)
    phi_of_rank[key_rank] = np.arange(126)
    phi_of_rank[complement_ranks(10, 5)[key_rank]] = np.arange(126)
    return read_only(halves), read_only(phi_of_rank)


def _phi_images(images) -> np.ndarray:
    """The index of phi * s for every equipartition phi, along the last
    axis, under each point map s in images (shape (..., 10))."""
    halves, phi_of_rank = _equipartition_tables()
    return phi_of_rank[ksubsets(10, 5).rank(images[..., halves])]


@dataclass(frozen=True)
class CocycleData:
    pointed: PointedPSL28
    V: tuple                       # the four stabilizer elements, identity first
    transversal: tuple             # index -> t_phi with phi0 * t_phi = phi
    delta_label: int               # 0..3

    def delta(self, v: Permutation) -> int:
        if v == self.V[0]:
            return 0
        if self.delta_label == 0:
            return 0
        # delta_label i > 0 means the kernel is {identity, V[i]}
        return 0 if v == self.V[self.delta_label] else 1

    @functools.cached_property
    def arrays(self) -> tuple:
        """(transversal, inverses, V, delta of each V) as arrays: the
        transversal's images and their inverses by equipartition index,
        V's four rows of images and their delta bits."""
        transversal = np.stack([t.images for t in self.transversal])
        inverses = np.empty_like(transversal)
        np.put_along_axis(inverses, transversal, np.arange(10), axis=1)
        v_rows = np.stack([v.images for v in self.V])
        bits = np.array([self.delta(v) for v in self.V])
        return tuple(read_only(a) for a in (transversal, inverses, v_rows, bits))


def equipartition_setup(pointed: PointedPSL28):
    """The Klein four stabilizer of phi0, index 0, and a transversal over
    the single 126-element orbit."""
    group = pointed.group
    orbit, transversal = transversal_bfs(
        0, _phi_images(group.generator_images), group.generators)
    if len(orbit) != 126:
        raise AssertionError("equipartition action is not transitive")
    identity = Permutation.identity(10)
    elements = group.elements()
    fixes = _phi_images(np.stack([s.images for s in elements]))[:, 0]
    stab = [s for s, phi in zip(elements, fixes) if phi == 0]
    if len(stab) != 4 or any(s * s != identity for s in stab):
        raise AssertionError("stabilizer of phi0 is not a Klein four-group")
    V = tuple([identity] + sorted((s for s in stab if s != identity),
                                  key=lambda s: s.images.tolist()))
    return V, tuple(transversal[i] for i in range(126))


@functools.cache
def _setup() -> tuple:
    """(pointed, V, transversal): one pointed PSL2(8) per process and its
    equipartition_setup, computed once; the four cocycle classes over it
    differ only in delta."""
    pointed = build_pointed_psl28()
    return (pointed, *equipartition_setup(pointed))


def build_cocycle_data(delta_label: int) -> CocycleData:
    if delta_label not in (0, 1, 2, 3):
        raise RefusedInput("delta_label must be 0..3")
    return CocycleData(*_setup(), delta_label)


# --------------------------------------------------------------------------
# Cocycles and the extension E = M : S
# --------------------------------------------------------------------------

def induced_cocycle(data: CocycleData, s: Permutation) -> tuple:
    """gamma(s) as a 126-bit tuple: gamma(s)(phi*s) = delta(v) where
    t_phi * s = v * t_{phi*s}.

    Recording the value at the image equipartition makes gamma satisfy
    gamma(s1 s2) = gamma(s1)^{s2} + gamma(s2), the identity matching the
    semidirect twisting convention (m1, s1)(m2, s2) = (m1^{s2} + m2, s1 s2);
    recording at the source would satisfy the mirror identity instead, and
    the 504 vertex lifts (gamma(s), s) would not form a group.
    """
    transversal, inverses, v_rows, delta_bits = data.arrays
    j = _phi_images(s.images)
    # v_i = t_i * s * t_j^-1 sends p to t_j^-1[s[t_i[p]]], for all i at once
    v = np.take_along_axis(inverses[j], s.images[transversal], axis=1)
    match = (v[:, None, :] == v_rows).all(axis=2)
    if not match.any(axis=1).all():
        raise AssertionError("transversal decomposition left V")
    bits = np.empty(126, dtype=np.intp)
    bits[j] = delta_bits[match.argmax(axis=1)]
    return tuple(bits.tolist())


# --------------------------------------------------------------------------
# Vertex action on the 252 five-subsets
# --------------------------------------------------------------------------

def vertex_permutation(data: CocycleData, s: Permutation,
                       m: tuple | None = None) -> Permutation:
    """Action of (m, s) on 5-subsets: apply s, then flip to the complement
    where the m-bit of the subset's equipartition is set.  m defaults to
    gamma(s)."""
    if m is None:
        m = induced_cocycle(data, s)
    ranks = ksubsets(10, 5).image_ranks(s.images)
    _, phi_of_rank = _equipartition_tables()
    flip = np.array(m, dtype=bool)[phi_of_rank[ranks]]
    return Permutation(np.where(flip, complement_ranks(10, 5)[ranks], ranks))


@functools.cache
def complement_vertex_group(data: CocycleData) -> PermutationGroup:
    """The vertex action of data's complement, built once per class."""
    gens = [vertex_permutation(data, s) for s in data.pointed.group.generators]
    group = PermutationGroup(gens)
    if group.order != 504:
        raise AssertionError("complement vertex action has order %d"
                             % group.order)
    return group


def orbit_signature(data: CocycleData) -> tuple:
    return complement_vertex_group(data).orbit_sizes()


# --------------------------------------------------------------------------
# The Frobenius action on complement classes
# --------------------------------------------------------------------------

def frobenius_class_action(data: CocycleData) -> int:
    """Class label of the conjugate of data's complement by the field
    automorphism sigma.  The label of a complement C is read off from the
    elements of C sitting over V: for v in V, delta'(v) is the flip bit at
    a vertex whose equipartition is phi0."""
    sigma = data.pointed.frobenius
    S = data.pointed.group
    for g in S.generators:
        if sigma.inverse() * g * sigma not in S:
            raise AssertionError("sigma does not normalize PSL2(8)")
    sigma_vertex = vertex_permutation(data, sigma, m=(0,) * 126)
    halves, _ = _equipartition_tables()
    k0 = int(ksubsets(10, 5).rank(halves[0]))
    comp_rank = complement_ranks(10, 5)
    labels = {}
    for idx in (1, 2, 3):
        v = data.V[idx]
        s_conj = sigma * v * sigma.inverse()
        lifted = vertex_permutation(data, s_conj)
        conj = sigma_vertex.inverse() * lifted * sigma_vertex
        plain = int(ksubsets(10, 5).image_ranks(v.images)[k0])
        image = conj(k0)
        if image == plain:
            labels[idx] = 0
        elif image == comp_rank[plain]:
            labels[idx] = 1
        else:
            raise AssertionError("conjugated element acts outside the fiber")
    if data.delta_label == 0:
        if any(labels.values()):
            raise AssertionError("standard complement moved off label 0")
        return 0
    kernel = [idx for idx in (1, 2, 3) if labels[idx] == 0]
    if len(kernel) != 1 or sum(labels.values()) != 2:
        raise AssertionError("conjugated labels are not a nonzero homomorphism")
    return kernel[0]
