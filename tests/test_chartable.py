import pytest

from sepdepth.chartable import (character_table_mod_p, class_data,
                                class_mult_coeffs, common_prime, dixon_prime,
                                inclusion_matrix, induction_matrix_mod_p)
from sepdepth.errors import InvalidArgument, LiftInconsistency
from sepdepth.permgroup import (Permutation, alternating_group, cyclic_group,
                                extraspecial_27, quaternion_group,
                                symmetric_group)


def test_dixon_prime_values():
    assert dixon_prime(2, 2) == 5           # C2
    assert dixon_prime(6, 6) == 7           # S3
    assert dixon_prime(4, 8) == 13          # Q8: 5 fails the size bound
    assert dixon_prime(60, 720) == 61       # S6


def test_class_mult_coeffs_counts():
    G = symmetric_group(3)
    cd = class_data(G)
    # row sums over k weighted by |C_k| equal |C_i| * |C_j|
    for i in range(cd.num_classes):
        a = class_mult_coeffs(G, cd, i)
        for j in range(cd.num_classes):
            total = sum(a[j][k] * cd.sizes[k] for k in range(cd.num_classes))
            assert total == cd.sizes[i] * cd.sizes[j]


def test_degrees_s3_q8_trivial():
    assert character_table_mod_p(symmetric_group(3)).degrees == (1, 1, 2)
    assert character_table_mod_p(quaternion_group()).degrees == (1, 1, 1, 1, 2)
    triv = cyclic_group(2).subgroup(
        [Permutation.identity(2)]).as_group()
    assert character_table_mod_p(triv).degrees == (1,)


def test_degrees_larger_groups():
    assert character_table_mod_p(symmetric_group(4)).degrees == (1, 1, 2, 3, 3)
    assert character_table_mod_p(alternating_group(5)).degrees == (1, 3, 3, 4, 5)
    e27 = character_table_mod_p(extraspecial_27())
    assert sorted(e27.degrees) == [1] * 9 + [3, 3]


def test_table_invariants():
    for G in (symmetric_group(4), quaternion_group(), extraspecial_27()):
        tab = character_table_mod_p(G)
        tab.check_invariants(G.order)


def test_table_deterministic():
    G = symmetric_group(4)
    t1 = character_table_mod_p(G, seed=0)
    t2 = character_table_mod_p(G, seed=0)
    assert t1.table == t2.table
    # a different seed still produces the same canonical table
    t3 = character_table_mod_p(G, seed=5)
    assert t1.table == t3.table


def test_inclusion_matrix_s2_in_s3():
    G = symmetric_group(3)
    H = G.subgroup([Permutation((1, 0, 2))])
    M = inclusion_matrix(G, H)
    assert M.as_lists() == [[1, 0, 1], [0, 1, 1]]
    assert M.row_degrees == (1, 1)
    assert M.col_degrees == (1, 1, 2)


def test_inclusion_matrix_full_subgroup_is_identity():
    for G in (symmetric_group(3), quaternion_group()):
        M = inclusion_matrix(G, G.full_subgroup())
        n = len(M.entries)
        assert M.as_lists() == [[1 if i == j else 0 for j in range(n)]
                                for i in range(n)]


def test_inclusion_matrix_column_sums():
    G = symmetric_group(4)
    H = G.subgroup([Permutation.from_cycles(4, [[0, 1, 2]])])
    M = inclusion_matrix(G, H)
    for j, d in enumerate(M.col_degrees):
        assert sum(M.entries[i][j] * M.row_degrees[i]
                   for i in range(len(M.entries))) == d


def test_prime_mismatch_rejected():
    G = symmetric_group(3)
    H = G.subgroup([Permutation((1, 0, 2))])
    tg = character_table_mod_p(G, prime=7)
    th = character_table_mod_p(H.as_group(), prime=5)
    with pytest.raises(LiftInconsistency):
        inclusion_matrix(G, H, tableG=tg, tableH=th)


def test_bad_prime_rejected():
    G = symmetric_group(3)
    for p in (11, 25, 3):   # not 1 mod 6; not prime; not above 2*sqrt(6)
        with pytest.raises(InvalidArgument):
            character_table_mod_p(G, prime=p)


def test_frobenius_reciprocity():
    """Restriction multiplicities equal induction multiplicities mod p."""
    for G, gens in ((symmetric_group(4), None), (quaternion_group(), None)):
        for H in (G.subgroup([G.elements[-1]]), G.full_subgroup()):
            HG = H.as_group()
            p = common_prime(G, HG)
            tg = character_table_mod_p(G, prime=p)
            th = character_table_mod_p(HG, prime=p)
            M = inclusion_matrix(G, H, tableG=tg, tableH=th)
            ind = induction_matrix_mod_p(G, H, tg, th)
            for i in range(len(M.entries)):
                for j in range(len(M.entries[0])):
                    assert M.entries[i][j] % p == ind[i][j] % p
