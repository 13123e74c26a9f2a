import json
import os
from math import lcm

import pytest

from permgroup_oracles import (conjugation_orbits_by_products,
                               cyclic_subgroups_by_keys, depth1_all_elements,
                               depth1_by_products,
                               derived_subgroup_by_commutators, element_order,
                               element_view, every_subgroup, generators,
                               is_identity, lemma_S_all_elements,
                               lemma_S_by_products, subgroup_index)
from sepdepth.corpus import corpus_groups, corpus_pairs, corpus_subgroups
from sepdepth.errors import (CapExceeded, ElementNotInGroup, InvalidArgument,
                             NotASubgroup)
from sepdepth.permgroup import (FiniteGroup, Permutation, Subgroup,
                                all_subgroups, alternating_group, center,
                                centralizer, conjugacy_classes, cyclic_group,
                                cyclic_subgroups, depth1_group,
                                derived_subgroup, dihedral_group,
                                direct_product, extraspecial_27,
                                h_classes, h_orbits, hz_condition, is_normal,
                                lemma_S_via_centralizers, part_labels,
                                property_S, quaternion_group, right_cosets,
                                right_transversal, symmetric_group)


class TestPermutation:
    def test_composition_applies_right_factor_first(self):
        p = Permutation((1, 0, 2))
        q = Permutation((0, 2, 1))
        # (p*q)(x) = p(q(x))
        assert (p * q).images == (1, 2, 0)
        assert (q * p).images == (2, 0, 1)

    def test_inverse_and_order(self):
        c = Permutation.from_cycles(4, [[0, 1, 2, 3]])
        assert element_order(c) == 4
        assert is_identity(c * c.inverse())

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])

    def test_unchecked_products_are_permutations(self):
        """Products and inverses skip the check; they must still be
        genuine permutations of the group."""
        G = dihedral_group(5)
        for p in G.elements:
            assert type(p.inverse()) is Permutation
            assert p.inverse() * p == G.elements[0]
            for q in G.elements:
                r = p * q
                assert type(r) is Permutation and r in G
                assert r.images == tuple(p.images[x] for x in q.images)


def test_analyze_pair_enumerates_class_partitions_once(monkeypatch):
    """One analyze_pair call enumerates the classes of G and the H-orbits
    on G once each; H's classes are the H-orbits inside H."""
    from sepdepth import analyze, permgroup
    calls = []
    enumerate_orbits = permgroup._conjugation_orbits

    def counting(group, by):
        by = list(by)
        calls.append((group.order,
                      frozenset(group.elements[s] for s in by)))
        return enumerate_orbits(group, by)

    monkeypatch.setattr(permgroup, "_conjugation_orbits", counting)
    G = symmetric_group(4)
    H = G.subgroup([Permutation.from_cycles(4, [[0, 1]]),
                    Permutation.from_cycles(4, [[0, 1, 2]])])
    analyze.analyze_pair(G, H)
    assert sorted(calls, key=repr) == sorted(
        [(24, frozenset(G.generators)), (24, frozenset(generators(H)))],
        key=repr)


def test_analyze_pair_builds_no_group_for_the_subgroup(monkeypatch):
    """Once G exists, analyze_pair constructs no FiniteGroup: H is read
    on G's index data."""
    from sepdepth import analyze
    G = symmetric_group(4)
    H = G.subgroup([Permutation.from_cycles(4, [[0, 1, 2, 3]])])
    built = []
    init = FiniteGroup.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "__init__", counting)
    analyze.analyze_pair(G, H)
    assert built == []


def test_analysed_group_is_freed_without_the_cycle_collector():
    """The partitions a group caches about itself form no reference
    cycle: after analyze_pair, G is freed as soon as its last reference
    goes, even with the cycle collector off."""
    import gc
    import weakref

    from sepdepth.analyze import analyze_pair
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        G = symmetric_group(4)
        H = G.subgroup([Permutation.from_cycles(4, [[0, 1, 2]])])
        analyze_pair(G, H)
        ref = weakref.ref(G)
        del G, H
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


FOREIGN_PARENT_REPORTS = os.path.join(os.path.dirname(__file__), "data",
                                      "foreign_parent_reports.json")


def test_subgroup_of_another_parent_analysed_in_G():
    """A subgroup whose parent is not G is analysed on G's numbering: C3
    taken from its own A4, and D4 taken from a second S4, each inside S4,
    give the reports recorded when H was rebuilt as a group of its own."""
    from sepdepth.analyze import analyze_pair
    with open(FOREIGN_PARENT_REPORTS) as fh:
        expected = json.load(fh)
    G = symmetric_group(4)
    A4, S4b = alternating_group(4), symmetric_group(4)
    pairs = {
        "C3_from_A4": A4.subgroup(
            [Permutation.from_cycles(4, [[0, 1, 2]])], name="C3"),
        "D4_from_other_S4": S4b.subgroup(
            [Permutation.from_cycles(4, [[0, 1, 2, 3]]),
             Permutation.from_cycles(4, [[0, 2]])], name="D4"),
    }
    for key, H in pairs.items():
        assert H.parent is not G
        rep = analyze_pair(G, H)
        assert rep.index == G.order // H.order, key
        assert rep.to_json_dict() == expected[key], key


def test_subgroups_are_read_in_their_parents_numbering():
    """A (G, H) routine reads H's parent indices, so it takes H only when
    its parent numbers G's elements: C3 built in A4 is refused in S4, while
    D4 built in a second S4 gives what D4 built in S4 gives.  Two character
    tables are likewise refused when they number different elements."""
    from sepdepth.chartable import (character_table_mod_p, common_prime,
                                    inclusion_matrix)
    from sepdepth.permgroup import right_cosets
    G = symmetric_group(4)
    C3 = alternating_group(4).subgroup(
        [Permutation.from_cycles(4, [[0, 1, 2]])])
    for routine in (h_orbits, right_cosets, is_normal):
        with pytest.raises(NotASubgroup):
            routine(G, C3)
    gens = [Permutation.from_cycles(4, [[0, 1, 2, 3]]),
            Permutation.from_cycles(4, [[0, 2]])]
    D4 = symmetric_group(4).subgroup(gens)
    D4_in_G = G.subgroup(gens)
    assert D4.parent is not G
    for routine in (h_orbits, right_cosets, is_normal):
        assert routine(G, D4) == routine(G, D4_in_G), routine
    p = common_prime(G, C3)
    with pytest.raises(NotASubgroup):
        inclusion_matrix(G, C3, tableG=character_table_mod_p(G, prime=p),
                         tableH=character_table_mod_p(C3, prime=p))
    with pytest.raises(NotASubgroup):
        inclusion_matrix(G, C3)
    assert inclusion_matrix(G, D4) == inclusion_matrix(G, D4_in_G)


def test_repeat_analysis_maps_no_permutation_to_an_index(monkeypatch):
    """H carries its parent indices and the transversal is an index list,
    so a repeat analyze_pair(S5, A5) calls FiniteGroup.index_of not at
    all."""
    from sepdepth.analyze import analyze_pair
    G = symmetric_group(5)
    H = derived_subgroup(G)
    analyze_pair(G, H)
    calls = []
    index_of = FiniteGroup.index_of

    def counting(self, p):
        calls.append(p)
        return index_of(self, p)

    monkeypatch.setattr(FiniteGroup, "index_of", counting)
    analyze_pair(G, H)
    assert calls == []


def test_enumerate_closure_cap():
    gens = symmetric_group(4).generators
    with pytest.raises(CapExceeded) as exc:
        FiniteGroup(gens, cap=10)
    assert exc.value.value == 11
    assert str(exc.value) == "group order exceeds cap 10"


def test_standard_group_orders():
    assert symmetric_group(4).order == 24
    assert alternating_group(5).order == 60
    assert dihedral_group(7).order == 14
    assert quaternion_group(4).order == 8
    assert quaternion_group(8).order == 16
    assert cyclic_group(12).order == 12
    assert extraspecial_27().order == 27
    assert direct_product(symmetric_group(3), cyclic_group(2)).order == 12


def test_quaternion_group_needs_even_m():
    with pytest.raises(InvalidArgument):
        quaternion_group(3)


def test_exponents():
    assert symmetric_group(5).exponent() == 60
    assert extraspecial_27().exponent() == 3
    assert quaternion_group(4).exponent() == 4
    for G in corpus_groups():
        assert G.exponent() == lcm(*map(element_order, G.elements)), G


def test_classes_and_orbits_match_products():
    """The index searches over generator conjugation maps give the same
    partitions, in the same order, as conjugating by every element with
    Permutation products: classes of each corpus group of order <= 60,
    of each of its corpus subgroups (as the H-orbits inside H), and their
    H-orbits.  part_labels names each element's class."""
    for G in corpus_groups():
        if G.order > 60:
            continue
        classes = conjugation_orbits_by_products(G.elements, G.elements)
        assert element_view(G, conjugacy_classes(G)) == classes, G
        labels = part_labels(conjugacy_classes(G), G.order)
        assert all(g in classes[label]
                   for g, label in zip(G.elements, labels)), G
        for H in corpus_subgroups(G):
            classes_h = conjugation_orbits_by_products(H.elements,
                                                       H.elements)
            assert element_view(G, conjugacy_classes(H)) == classes_h, H
            assert element_view(G, h_classes(G, H)) == classes_h, H
            assert element_view(G, h_orbits(G, H)) == \
                conjugation_orbits_by_products(G.elements, H.elements), H


def test_corpus_builds_each_subgroup_once(monkeypatch):
    """corpus_pairs() names each harvested subgroup in place: Subgroup is
    built 148 times, once per harvested subgroup (142 kept, 6 repeats
    dropped), not a second time per pair to name it."""
    from sepdepth import permgroup
    from sepdepth.corpus import corpus_pairs
    built = []
    init = permgroup.Subgroup.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(permgroup.Subgroup, "__init__", counting)
    pairs = list(corpus_pairs())
    assert len(pairs) == 142
    assert len(built) == 148
    assert all(any(H is b for b in built) for _, _, H in pairs)


def test_conjugacy_class_sizes():
    sizes = [len(c) for c in conjugacy_classes(symmetric_group(3))]
    assert sizes == [1, 2, 3]
    sizes4 = [len(c) for c in conjugacy_classes(symmetric_group(4))]
    assert sizes4 == [1, 3, 6, 6, 8]
    assert len(conjugacy_classes(quaternion_group())) == 5
    assert len(conjugacy_classes(alternating_group(5))) == 5
    assert len(conjugacy_classes(extraspecial_27())) == 11


def test_classes_partition_group():
    G = dihedral_group(6)
    classes = conjugacy_classes(G)
    assert sum(len(c) for c in classes) == G.order
    assert len({g for c in classes for g in c}) == G.order


def test_center_and_centralizer():
    Q = quaternion_group()
    assert center(Q).order == 2
    a = next(p for p in Q.elements if element_order(p) == 4)
    assert centralizer(Q, a).order == 4
    with pytest.raises(ElementNotInGroup):
        centralizer(Q, Permutation.identity(Q.degree + 1))


def test_subgroup_validation():
    G = symmetric_group(3)
    with pytest.raises(NotASubgroup):
        G.subgroup([Permutation.identity(5)])
    # generators may come as any iterable, Permutations or indices
    H = G.subgroup(iter([Permutation((1, 2, 0))]))
    assert H.order == 3
    assert Subgroup(G, iter(H.gen_indices)).indices == H.indices


def test_right_transversal():
    G = symmetric_group(4)
    H = G.subgroup([Permutation.from_cycles(4, [[0, 1, 2]])])
    reps = right_transversal(G, H)
    assert len(reps) == subgroup_index(H) == 8
    assert reps[0] == 0 and is_identity(G.elements[0])
    cosets = {frozenset(h * G.elements[r] for h in H.elements) for r in reps}
    assert len(cosets) == 8


def test_h_orbits_refine_classes():
    G = quaternion_group()
    H = G.subgroup([next(p for p in G.elements if element_order(p) == 4)])
    orbits = h_orbits(G, H)
    classes = conjugacy_classes(G)
    assert len(orbits) == 6 > len(classes) == 5
    for orb in orbits:
        assert any(set(orb) <= set(c) for c in classes)


def test_property_s_examples():
    G = quaternion_group()
    H = G.subgroup([next(p for p in G.elements if element_order(p) == 4)])
    assert not property_S(G, H)
    assert property_S(G, G.full_subgroup())
    GX = direct_product(symmetric_group(3), cyclic_group(2))
    HX = GX.subgroup(list(GX.generators[:2]))
    assert property_S(GX, HX)


def test_property_s_matches_centralizer_criterion():
    for G in (symmetric_group(3), symmetric_group(4), quaternion_group(),
              dihedral_group(4), alternating_group(4)):
        for H in all_subgroups(G):
            assert property_S(G, H) == lemma_S_via_centralizers(G, H)


def test_centralizer_criteria_match_products():
    """The coset-label criteria agree with the product-set oracles on
    every subgroup, not only up to conjugacy, and both verdicts occur."""
    seen = set()
    for G in (symmetric_group(3), quaternion_group(), dihedral_group(4),
              alternating_group(4), symmetric_group(4), dihedral_group(6)):
        for H in every_subgroup(G):
            lem, d1 = lemma_S_via_centralizers(G, H), depth1_group(G, H)
            assert lem == lemma_S_by_products(G, H), (G, H)
            assert d1 == depth1_by_products(G, H), (G, H)
            hz = len({h * z for h in H.elements
                      for z in center(G).elements}) == G.order
            assert hz_condition(G, H) == hz, (G, H)
            seen.add((lem, d1))
    assert seen == {(True, True), (False, True), (False, False)}


def test_centralizer_criteria_match_all_element_scans():
    """One a per H-orbit and one h per class of H give the verdicts of the
    coset test at every element: on all 142 corpus pairs and on the S6
    family, with both verdicts of each criterion seen."""
    pairs = [(G, H) for _, G, H in corpus_pairs()]
    assert len(pairs) == 142
    S6 = symmetric_group(6)
    pairs += [(S6, H) for H in corpus_subgroups(S6)]
    seen = set()
    for G, H in pairs:
        lem, d1 = lemma_S_via_centralizers(G, H), depth1_group(G, H)
        assert lem == lemma_S_all_elements(G, H), (G, H)
        assert d1 == depth1_all_elements(G, H), (G, H)
        seen.add((lem, d1))
    assert seen == {(True, True), (False, True), (False, False)}


def test_centralizer_criteria_on_s7_hold_few_maps():
    """Both criteria on S7 > S7 build the right maps of one element per
    class, of its inverse and of the tree paths to them, not the 5040
    right maps of a scan over every element; no left map is cached."""
    G = symmetric_group(7)
    H = G.full_subgroup()
    assert lemma_S_via_centralizers(G, H)
    assert depth1_group(G, H)
    assert len(G._right_maps) == 118
    assert not hasattr(G, "_left_maps")


def test_right_cosets_match_products():
    """elements[x] = elements[factor[x]] * g_j, j = label[x], with
    factor[x] in H and g_j the least element of the j-th coset, the
    cosets numbered by least element: on every subgroup of S4 and Q8."""
    for G in (symmetric_group(4), quaternion_group()):
        E = G.elements
        for H in every_subgroup(G):
            label, factor = right_cosets(G, H)
            cosets = sorted({frozenset(h * g for h in H.elements)
                             for g in E}, key=min)
            reps = [min(c) for c in cosets]
            for x, g in enumerate(E):
                assert E[factor[x]] in H
                assert g in cosets[label[x]]
                assert g == E[factor[x]] * reps[label[x]]


def test_index_maps_are_the_products():
    """right maps, inverses and mul on indices equal Permutation
    products: on a group whose generators include a redundant one, on
    S5, and on Q8 in its regular representation."""
    redundant = FiniteGroup([Permutation((1, 0, 2, 3)),
                             Permutation((1, 2, 3, 0)),
                             Permutation((0, 1, 3, 2))])
    for G in (redundant, symmetric_group(5), quaternion_group()):
        E = G.elements
        at = {p: i for i, p in enumerate(E)}
        for a in range(G.order):
            assert E[G.inverse[a]] == E[a].inverse()
            assert G.right_map(a) == [at[g * E[a]] for g in E]
            assert [G.mul(b, a) for b in range(G.order)] == [
                at[g * E[a]] for g in E]


def test_conjugation_maps_are_the_products():
    """x -> s x s^-1 for a generator of G, an element that is not one,
    and the identity."""
    from sepdepth.permgroup import _conjugation_maps
    G = symmetric_group(4)
    E = G.elements
    gen = G.index_of(G.generators[0])
    other = G.index_of(Permutation.from_cycles(4, [[0, 2]]))
    assert other not in map(G.index_of, G.generators)
    maps = list(_conjugation_maps(G, [gen, other, 0]))
    assert len(maps) == 3
    for s, conj in zip((gen, other, 0), maps):
        assert conj == [E.index(E[s] * x * E[s].inverse()) for x in E]
    assert maps[2] == list(range(G.order))


def test_criteria_form_no_permutation_products(monkeypatch):
    """Once a group's index and class data exist, the centralizer criteria
    and both fullness tests on S5/o4.0 build no Permutation."""
    from sepdepth import permgroup
    from sepdepth.corpus import corpus_pairs
    from sepdepth.groupalg import is_full_in_T, is_full_in_U
    (_, G, H), = corpus_pairs("S5/o4.0")
    conjugacy_classes(G)
    conjugacy_classes(H)
    h_orbits(G, H)
    G.inverse
    made = []
    trusted = permgroup._trusted

    def counting(images):
        made.append(images)
        return trusted(images)

    monkeypatch.setattr(permgroup, "_trusted", counting)
    assert not lemma_S_via_centralizers(G, H)
    assert not depth1_group(G, H)
    assert not is_full_in_T(G, H)
    assert not is_full_in_U(G, H)
    assert made == []
    G.elements[1] * G.elements[2]
    assert len(made) == 1


def test_group_construction_forms_no_permutation_products(monkeypatch):
    """Building the corpus groups and S6 multiplies no two Permutations:
    the one search runs on image tuples."""
    calls = []
    mul = Permutation.__mul__

    def counting(p, q):
        calls.append((p, q))
        return mul(p, q)

    monkeypatch.setattr(Permutation, "__mul__", counting)
    groups = corpus_groups()
    assert symmetric_group(6).order == 720
    assert groups and calls == []
    Permutation((1, 0)) * Permutation((1, 0))
    assert len(calls) == 1


def test_group_needs_generators():
    with pytest.raises(InvalidArgument, match="empty generator list"):
        FiniteGroup([])
    with pytest.raises(InvalidArgument, match="unequal degree"):
        FiniteGroup([Permutation((1, 0)), Permutation((0, 2, 1))])


def test_depth1_and_hz():
    Q = quaternion_group()
    Hz = Q.subgroup(list(center(Q).elements))
    assert depth1_group(Q, Hz)             # central subgroup
    assert depth1_group(Q, Q.trivial_subgroup())
    Hi = Q.subgroup([next(p for p in Q.elements if element_order(p) == 4)])
    assert not depth1_group(Q, Hi)
    GX = direct_product(symmetric_group(3), cyclic_group(2))
    HX = GX.subgroup(list(GX.generators[:2]))
    assert hz_condition(GX, HX)
    assert depth1_group(GX, HX)
    assert not hz_condition(Q, Q.trivial_subgroup())


def test_hz_implies_property_s():
    for G in (symmetric_group(4), quaternion_group(), dihedral_group(6)):
        for H in all_subgroups(G):
            if hz_condition(G, H):
                assert property_S(G, H)
                assert depth1_group(G, H)


def test_normality():
    G = symmetric_group(3)
    A3 = G.subgroup([Permutation((1, 2, 0))])
    S2 = G.subgroup([Permutation((1, 0, 2))])
    assert is_normal(G, A3)
    assert not is_normal(G, S2)


def test_normality_matches_products():
    """is_normal on index data equals g h g^-1 in H over all g and h, on
    every subgroup of a few groups; both verdicts occur."""
    seen = set()
    for G in (symmetric_group(4), quaternion_group(), dihedral_group(6),
              alternating_group(4)):
        for H in every_subgroup(G):
            brute = all(g * h * g.inverse() in H
                        for g in G.elements for h in H.elements)
            assert is_normal(G, H) == brute, (G, H)
            seen.add(brute)
    assert seen == {True, False}


def test_derived_subgroups():
    assert derived_subgroup(symmetric_group(4)).order == 12
    assert derived_subgroup(alternating_group(4)).order == 4
    assert derived_subgroup(symmetric_group(3)).order == 3
    assert derived_subgroup(cyclic_group(6)).order == 1


def test_subgroup_harvests():
    assert len(all_subgroups(symmetric_group(3))) == 4
    assert len(all_subgroups(quaternion_group())) == 6
    assert len(all_subgroups(dihedral_group(4))) == 8
    assert len(all_subgroups(alternating_group(4))) == 5
    # abelian group: conjugation dedup keeps all three C2s
    assert len(all_subgroups(direct_product(cyclic_group(2),
                                            cyclic_group(2)))) == 5
    assert len(cyclic_subgroups(symmetric_group(4))) == 5


def test_harvest_matches_conjugating_by_all_of_G():
    """cyclic_subgroups, read off G's classes, keeps the same <g> as
    conjugating every cyclic subgroup by all of G, and derived_subgroup,
    a normal closure, gives the group of all commutators: on every corpus
    group and on S6, A6, C4xC6, D15 and Q24."""
    extra = [symmetric_group(6), alternating_group(6),
             direct_product(cyclic_group(4), cyclic_group(6)),
             dihedral_group(15), quaternion_group(12)]
    def reps(subs):
        return sorted((H.gen_indices, H.indices) for H in subs)

    for G in corpus_groups() + extra:
        assert reps(cyclic_subgroups(G)) == \
            reps(cyclic_subgroups_by_keys(G)), G
        assert derived_subgroup(G).indices == \
            derived_subgroup_by_commutators(G).indices, G


def test_cyclic_harvest_caches_few_maps():
    """Harvesting S6's cyclic subgroups caches fewer than |S6| right
    maps, where conjugating each by all of G caches 720."""
    G = symmetric_group(6)
    assert len(cyclic_subgroups(G)) == 11
    assert len(G._right_maps) < G.order


def test_corpus_subgroups_have_short_generator_lists():
    """Each harvested subgroup is built from a short generator list, not
    from all of its elements."""
    for G in corpus_groups():
        for H in corpus_subgroups(G):
            assert len(H.gen_indices) <= 4, (G, H)
