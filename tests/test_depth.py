from depth_oracles import depth_report_json
from permgroup_oracles import (conjugation_orbits_by_products, element_order,
                               every_subgroup)
from sepdepth.depth import (bimodule_matrices, burciu_depth1, depth_report,
                            is_diagonal, min_depth, min_even_depth,
                            min_h_depth, min_odd_depth, zero_pattern)
from sepdepth.permgroup import (Permutation, all_subgroups,
                                alternating_group, cyclic_group,
                                dihedral_group, direct_product,
                                quaternion_group, symmetric_group)

# inclusion matrices used below (rows = subgroup irreducibles)
M_S2_S3 = [[1, 0, 1], [0, 1, 1]]
M_A3_S3 = [[1, 1, 0], [0, 0, 1], [0, 0, 1]]


def test_zero_pattern_and_diagonal():
    assert zero_pattern([[0, 1], [2, 0]]) == ((True, False), (False, True))
    assert is_diagonal([[3, 0], [0, 5]])
    assert not is_diagonal([[1, 1], [0, 1]])


def test_bimodule_matrices():
    S, T = bimodule_matrices(M_S2_S3)
    assert S == [[2, 1], [1, 2]]
    assert T == [[1, 0, 1], [0, 1, 1], [1, 1, 2]]


def test_identity_matrix_depths():
    ident = [[1, 0], [0, 1]]
    assert min_depth(ident) == 1
    assert min_odd_depth(ident) == 1
    assert min_h_depth(ident) == 1


def test_s2_in_s3_depths():
    assert min_odd_depth(M_S2_S3) == 3
    assert min_even_depth(M_S2_S3) == 4
    assert min_depth(M_S2_S3) == 3
    assert min_h_depth(M_S2_S3) == 5


def test_normal_subgroup_depth_two():
    assert min_depth(M_A3_S3) == 2
    assert min_odd_depth(M_A3_S3) == 3
    assert min_h_depth(M_A3_S3) == 3


def test_trivial_subgroup_row_vector():
    # one subgroup irreducible: S = [[sum of squares]] is 1x1, depth 1
    M = [[1, 1, 2]]
    assert min_depth(M) == 1
    S, T = bimodule_matrices(M)
    assert S == [[6]]
    assert not is_diagonal(T)
    assert min_h_depth(M) == 3


def test_depth_report_invariants():
    for M in (M_S2_S3, M_A3_S3, [[1, 1, 2]], [[1, 0], [0, 1]]):
        rep = depth_report(M)
        assert rep.min_depth == min(rep.min_odd_depth, rep.min_even_depth)
        assert abs(rep.min_depth - rep.min_h_depth) <= 2
        assert rep.min_h_depth % 2 == 1
        assert rep.even_rule_derived
        d = depth_report_json(rep)
        assert d["min_depth"] == rep.min_depth
        assert d["even_rule_derived"] is True


def test_burciu_depth1():
    G = symmetric_group(3)
    assert not burciu_depth1(G, G.subgroup([Permutation((1, 0, 2))]))
    assert burciu_depth1(G, G.trivial_subgroup())
    assert burciu_depth1(G, G.full_subgroup())
    GX = direct_product(symmetric_group(3), cyclic_group(2))
    assert burciu_depth1(GX, GX.subgroup(list(GX.generators[:2])))
    Q = quaternion_group()
    assert not burciu_depth1(Q, Q.subgroup(
        [next(p for p in Q.elements if element_order(p) == 4)]))


def test_burciu_matches_matrix_criterion():
    from sepdepth.chartable import inclusion_matrix
    for G in (symmetric_group(3), quaternion_group(), alternating_group(4)):
        from sepdepth.permgroup import all_subgroups
        for H in all_subgroups(G):
            S, _ = bimodule_matrices(inclusion_matrix(G, H).as_lists())
            assert burciu_depth1(G, H) == is_diagonal(S)


def test_burciu_matches_products():
    """burciu_depth1 on index data equals closing each H-class (by
    Permutation products) under conjugation by every element of G."""
    seen = set()
    for G in (symmetric_group(4), quaternion_group(), dihedral_group(6)):
        for H in every_subgroup(G):
            brute = all({g * x * g.inverse() for x in cls} == set(cls)
                        for cls in conjugation_orbits_by_products(
                            H.elements, H.elements)
                        for g in G.elements)
            assert burciu_depth1(G, H) == brute, (G, H)
            seen.add(brute)
    assert seen == {True, False}
