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
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import moebius_generators, psl2
from .johnson import Equipartition, all_equipartitions, make_equipartition
from .perms import Permutation, PermutationGroup
from .subsets import all_masks, complement_ranks, ksubset_rank, mask_of


# --------------------------------------------------------------------------
# Pointed PSL2(8) on 10 points
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PointedPSL28:
    """PSL2(8) of degree 10: points 0..7 are the elements of GF(8) in
    canonical order, 8 is infinity, 9 is the extra fixed point."""

    group: PermutationGroup
    frobenius: Permutation

    @property
    def fixed_point(self) -> int:
        return 9


def build_pointed_psl28() -> PointedPSL28:
    """catalog.psl2(8) on P^1(F_8), plus the fixed point 9; frobenius is
    the field automorphism a -> a^2 on the same 10 points."""
    group = PermutationGroup([g.extended(10) for g in psl2(8).generators])
    if group.order != 504:
        raise AssertionError("PSL2(8) came out with order %d" % group.order)
    *_, frobenius = moebius_generators(8)
    return PointedPSL28(group, frobenius.extended(10))


# --------------------------------------------------------------------------
# Equipartitions and the cocycle data
# --------------------------------------------------------------------------

def _apply_to_equipartition(phi: Equipartition, perm: Permutation) -> Equipartition:
    # labels are 1-based, permutation points 0-based
    return make_equipartition(10, {perm.images[x - 1] + 1 for x in phi.key_part})


@dataclass(frozen=True)
class CocycleData:
    pointed: PointedPSL28
    equipartitions: tuple          # all 126, canonical order
    index_of: dict                 # Equipartition -> index
    phi0_index: int
    V: tuple                       # the four stabilizer elements, identity first
    transversal: tuple             # index -> t_phi with phi0 * t_phi = phi
    delta_label: int               # 0..3

    @property
    def phi0(self) -> Equipartition:
        return self.equipartitions[self.phi0_index]

    def delta(self, v: Permutation) -> int:
        if v == self.V[0]:
            return 0
        if self.delta_label == 0:
            return 0
        # delta_label i > 0 means the kernel is {identity, V[i]}
        return 0 if v == self.V[self.delta_label] else 1


def equipartition_setup(pointed: PointedPSL28):
    """phi0, its Klein four stabilizer and a transversal over the single
    126-element orbit."""
    phis = tuple(all_equipartitions(10))
    if len(phis) != 126:
        raise AssertionError("expected 126 equipartitions")
    index_of = {phi: i for i, phi in enumerate(phis)}
    phi0_index = 0
    phi0 = phis[phi0_index]
    identity = Permutation.identity(10)
    transversal = [None] * 126
    transversal[phi0_index] = identity
    frontier = [phi0_index]
    while frontier:
        nxt = []
        for i in frontier:
            for g in pointed.group.generators:
                j = index_of[_apply_to_equipartition(phis[i], g)]
                if transversal[j] is None:
                    transversal[j] = transversal[i] * g
                    nxt.append(j)
        frontier = nxt
    if any(t is None for t in transversal):
        raise AssertionError("equipartition action is not transitive")
    stab = [s for s in pointed.group.elements()
            if _apply_to_equipartition(phi0, s) == phi0]
    if len(stab) != 4 or any(s * s != identity for s in stab):
        raise AssertionError("stabilizer of phi0 is not a Klein four-group")
    V = tuple([identity] + sorted((s for s in stab if s != identity),
                                  key=lambda s: s.images))
    return phis, index_of, phi0_index, V, tuple(transversal)


def build_cocycle_data(delta_label: int = 0,
                       pointed: PointedPSL28 | None = None) -> CocycleData:
    if delta_label not in (0, 1, 2, 3):
        raise ValueError("delta_label must be 0..3")
    if pointed is None:
        pointed = build_pointed_psl28()
    phis, index_of, phi0_index, V, transversal = equipartition_setup(pointed)
    return CocycleData(pointed, phis, index_of, phi0_index, V, transversal,
                       delta_label)


# --------------------------------------------------------------------------
# Cocycles and the extension E = M : S
# --------------------------------------------------------------------------

def induced_cocycle(data: CocycleData, s: Permutation) -> tuple:
    """gamma(s) as a 126-bit tuple: gamma(s)(phi*s) = delta(v) where
    t_phi * s = v * t_{phi*s}.

    Recording the value at the image equipartition makes gamma satisfy
    gamma(s1 s2) = gamma(s1)^{s2} + gamma(s2), the identity matching the
    semidirect twisting convention; recording at the source would satisfy
    the mirror identity instead and fail closure.
    """
    bits = [0] * 126
    v_set = set(data.V)
    for i, phi in enumerate(data.equipartitions):
        j = data.index_of[_apply_to_equipartition(phi, s)]
        v = data.transversal[i] * s * data.transversal[j].inverse()
        if v not in v_set:
            raise AssertionError("transversal decomposition left V")
        bits[j] = data.delta(v)
    return tuple(bits)


def _mvector_twist(m: tuple, s_inv: Permutation, data: CocycleData) -> tuple:
    """(m^s)(phi) = m(phi * s^{-1}), given s^{-1}."""
    out = [0] * 126
    for i, phi in enumerate(data.equipartitions):
        out[i] = m[data.index_of[_apply_to_equipartition(phi, s_inv)]]
    return tuple(out)


@dataclass(frozen=True)
class ExtElement:
    """Element (m, s) of E = M : S with the right twisting convention
    (m1, s1)(m2, s2) = (m1^{s2} + m2, s1 s2)."""

    m: tuple
    s: Permutation
    data: CocycleData

    def __mul__(self, other: "ExtElement") -> "ExtElement":
        twisted = _mvector_twist(self.m, other.s.inverse(), self.data)
        m = tuple(a ^ b for a, b in zip(twisted, other.m))
        return ExtElement(m, self.s * other.s, self.data)

    def key(self):
        return (self.m, self.s.images)


def complement_elements(data: CocycleData) -> list:
    """The 504 elements {(gamma(s), s)}; closure under ExtElement
    multiplication is asserted, validating the twisting convention."""
    out = [ExtElement(induced_cocycle(data, s), s, data)
           for s in data.pointed.group.elements()]
    keys = {el.key() for el in out}
    if len(keys) != 504:
        raise AssertionError("complement candidate has repeated elements")
    sample = out[:8] + out[250:258]
    for a in sample:
        for b in sample:
            if (a * b).key() not in keys:
                raise AssertionError("complement set is not closed; twisting "
                                     "convention mismatch")
    return out


# --------------------------------------------------------------------------
# Vertex action on the 252 five-subsets
# --------------------------------------------------------------------------

def _phi_index_of_mask(mask: int, data: CocycleData) -> int:
    labels = {x + 1 for x in range(10) if (mask >> x) & 1}
    return data.index_of[make_equipartition(10, labels)]


def vertex_permutation(data: CocycleData, s: Permutation,
                       m: tuple | None = None) -> Permutation:
    """Action of (m, s) on 5-subsets: apply s, then flip to the complement
    where the m-bit of the subset's equipartition is set.  m defaults to
    gamma(s)."""
    if m is None:
        m = induced_cocycle(data, s)
    comp_rank = complement_ranks(10, 5)
    images = []
    for mask in all_masks(10, 5):
        img = s.act_mask(mask)
        rank = ksubset_rank(img)
        if m[_phi_index_of_mask(img, data)]:
            rank = comp_rank[rank]
        images.append(rank)
    return Permutation(images)


def complement_vertex_group(data: CocycleData) -> PermutationGroup:
    gens = [vertex_permutation(data, s) for s in data.pointed.group.generators]
    group = PermutationGroup(gens)
    if group.order != 504:
        raise AssertionError("complement vertex action has order %d"
                             % group.order)
    return group


def orbit_signature(data: CocycleData) -> tuple:
    group = complement_vertex_group(data)
    return tuple(sorted(len(o) for o in group.orbits()))


def global_flip() -> Permutation:
    return Permutation(complement_ranks(10, 5))


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
    k0_mask = mask_of(x - 1 for x in data.phi0.key_part)
    k0 = ksubset_rank(k0_mask)
    comp_rank = complement_ranks(10, 5)
    labels = {}
    for idx in (1, 2, 3):
        v = data.V[idx]
        s_conj = sigma * v * sigma.inverse()
        lifted = vertex_permutation(data, s_conj)
        conj = sigma_vertex.inverse() * lifted * sigma_vertex
        plain = ksubset_rank(v.act_mask(k0_mask))
        image = conj.images[k0]
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
