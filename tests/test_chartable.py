import random
from functools import reduce
from itertools import count
from operator import mul

import pytest

from chartable_oracles import (_charpoly, class_mult_by_products,
                               det_mod_p, eigenspace_table, inclusion_shape,
                               induction_matrix_mod_p, table_json_dict,
                               table_value)
from permgroup_oracles import conjugation_orbits_by_products, element_view
from sepdepth import chartable
from sepdepth.chartable import (_abelian_rows, _character_row, _dixon_rows,
                                _split_piece, character_table_mod_p,
                                class_data, class_mult_coeffs, common_prime,
                                dixon_prime, inclusion_matrix)
from sepdepth.corpus import corpus_groups, corpus_subgroups
from sepdepth.errors import (CheckFailed, ElementNotInGroup, InvalidArgument,
                             LiftInconsistency, SplittingFailure)
from sepdepth.permgroup import (FiniteGroup, Permutation, alternating_group,
                                conjugacy_classes, cyclic_group,
                                dihedral_group, direct_product,
                                extraspecial_27, quaternion_group,
                                symmetric_group)


@pytest.fixture(scope="module")
def corpus_table_inputs():
    """(group or subgroup, prime) for the 169 tables of the corpus: each
    corpus group and each of its subgroups, at the group's prime.  A
    corpus run builds 142 of them: a pair with H = G reads G's table."""
    inputs = []
    for G in corpus_groups():
        p = common_prime(G, G)
        inputs.append((G, p))
        inputs += [(H, p) for H in corpus_subgroups(G)]
    return inputs


def test_dixon_prime_values():
    assert dixon_prime(2, 2) == 5           # C2
    assert dixon_prime(6, 6) == 7           # S3
    assert dixon_prime(4, 8) == 13          # Q8: 5 fails the size bound
    assert dixon_prime(60, 720) == 61       # S6


def test_dixon_prime_matches_a_scan():
    """dixon_prime(e, n) is the least prime p = 1 mod e above twice the
    least r with r^2 >= n, found here by trial division of every such
    candidate."""
    for e in range(1, 61):
        for n in (1, 2, 8, 27, 120, 720, 5040):
            root = next(r for r in count() if r * r >= n)
            p = next(q for q in count(2 * root + 1)
                     if q % e == 1 % e and all(q % d for d in range(2, q)))
            assert dixon_prime(e, n) == p, (e, n)


def test_class_data_matches_products():
    """class_data gives the classes, their sizes, the class of each
    class's inverses and each element's class as Permutation products
    give them, on groups and on their corpus subgroups, whose class data
    number the parent's elements."""
    for G in (symmetric_group(4), quaternion_group(), cyclic_group(12),
              extraspecial_27()):
        for H in (G, *corpus_subgroups(G)):
            cd = class_data(H)
            classes = conjugation_orbits_by_products(H.elements, H.elements)
            assert element_view(G, cd.classes) == classes, H
            assert cd.num_classes == len(classes), H
            assert cd.sizes == tuple(map(len, classes)), H
            assert cd.elements == G.elements
            for cls, k in zip(classes, cd.inverse_map):
                assert cls[0].inverse() in classes[k], H
            for g, label in zip(G.elements, cd.class_of):
                assert (g in classes[label]) if g in H else label is None


def test_class_mult_coeffs_counts():
    G = symmetric_group(3)
    cd = class_data(G)
    # row sums over k weighted by |C_k| equal |C_i| * |C_j|
    for i in range(cd.num_classes):
        a = class_mult_coeffs(G, cd, i)
        for j in range(cd.num_classes):
            total = sum(a[j][k] * cd.sizes[k] for k in range(cd.num_classes))
            assert total == cd.sizes[i] * cd.sizes[j]


def test_class_mult_coeffs_match_products():
    for G in (symmetric_group(4), quaternion_group(), alternating_group(5),
              extraspecial_27()):
        cd = class_data(G)
        for i in range(cd.num_classes):
            assert class_mult_coeffs(G, cd, i) == \
                class_mult_by_products(G, cd, i), (G, i)


def _charpoly_cases():
    rng = random.Random(7)
    for p in (5, 13, 61):
        for n in range(1, 13):
            yield p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        for n in (1, 4, 9):
            yield p, [[0] * n for _ in range(n)]
            yield p, [[int(i == j) for j in range(n)] for i in range(n)]
            # strictly upper triangular, hence nilpotent
            yield p, [[rng.randrange(p) if j > i else 0 for j in range(n)]
                      for i in range(n)]
            # diag(2, 2, ..., 3, 3, ...) conjugated by a random unipotent
            # lower-triangular matrix and its inverse
            d = [2 if i < n // 2 + 1 else 3 for i in range(n)]
            low = [[rng.randrange(p) if j < i else int(i == j)
                    for j in range(n)] for i in range(n)]
            low_inv = _unipotent_inverse(low, p)
            yield p, [[sum(low[i][k] * d[k] * low_inv[k][j]
                           for k in range(n)) % p for j in range(n)]
                      for i in range(n)]


def _unipotent_inverse(low, p):
    n = len(low)
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            inv[i][j] = -sum(low[i][k] * inv[k][j]
                             for k in range(j, i)) % p
    return inv


def test_charpoly_is_the_determinant():
    """Horner on det(xI - M) at every lam equals det(lam I - M) mod p."""
    for p, mat in _charpoly_cases():
        n = len(mat)
        poly = _charpoly(mat, p)
        assert len(poly) == n + 1 and poly[-1] == 1
        for lam in range(p):
            value = 0
            for c in reversed(poly):
                value = (value * lam + c) % p
            shifted = [[(lam if i == j else 0) - x for j, x in enumerate(row)]
                       for i, row in enumerate(mat)]
            assert value == det_mod_p(shifted, p), (p, mat)


def test_table_matches_the_eigenspace_route(corpus_table_inputs):
    """Splitting e_0 along one cyclic vector gives the degrees and rows
    of the eigenspace-basis route, on every table the corpus builds and
    on five larger groups."""
    extra = [symmetric_group(6), alternating_group(6),
             direct_product(cyclic_group(4), cyclic_group(6)),
             dihedral_group(15), cyclic_group(30)]
    inputs = corpus_table_inputs + [
        (G, dixon_prime(G.exponent(), G.order)) for G in extra]
    assert len(inputs) == 169 + 5
    for G, p in inputs:
        tab = character_table_mod_p(G, prime=p)
        assert (tab.degrees, tab.table) == eigenspace_table(G, p), G


def _is_abelian(G):
    """Whether G's generators commute, by Permutation products."""
    gens = [G.parent.elements[i] for i in G.gen_indices]
    return all(a * b == b * a for a in gens for b in gens)


def test_class_matrices_built_only_while_pieces_are_missing(
        corpus_table_inputs, monkeypatch):
    """The Dixon route builds each of the 40 non-abelian tables and stops
    asking for class matrices once it has one piece per class, and the
    129 abelian tables ask for none: 115 over the corpus's 169 tables
    (233 while the abelian tables took the Dixon route too), where
    building every class matrix of every table would take 651.  The
    count pins work done, not a correctness bound."""
    calls = []

    def counted(G, cd, i):
        calls.append(i)
        return class_mult_coeffs(G, cd, i)

    monkeypatch.setattr(chartable, "class_mult_coeffs", counted)
    abelian = 0
    for G, p in corpus_table_inputs:
        before = len(calls)
        character_table_mod_p(G, prime=p)
        if _is_abelian(G):
            abelian += 1
            assert len(calls) == before, G
        else:
            assert len(calls) > before, G
    assert abelian == 129
    assert len(calls) == 115
    assert 0 not in calls


def _power(g, k):
    return reduce(mul, [g] * k, Permutation.identity(g.degree))


def _abelian_cases():
    """(G, p) for the abelian route beyond the corpus: the trivial group;
    generator lists that hold the identity, a repeated generator, or one
    in the span of the earlier ones; and C2 x C4, C3 x C4 (inside S7) and
    the elementary abelian group of order 27 (inside C3^3 x C4), each at
    a prime shared with the larger group, above its own Dixon prime."""
    yield cyclic_group(2).trivial_subgroup(), 5
    yield FiniteGroup([Permutation.identity(3)]), 3
    c = Permutation.from_cycles(6, [[0, 1, 2, 3, 4, 5]])
    yield FiniteGroup([Permutation.identity(6), c, c]), 7
    C12 = cyclic_group(12)
    g = C12.generators[0]
    # g^2 lies in <g^4, g^6>; g^3 enters <g^2> at g^6, which is not 1
    for exps in ((4, 6, 2), (2, 3), (3, 3, 0, 4)):
        yield C12.subgroup([_power(g, k) for k in exps]), 13
    S7 = symmetric_group(7)
    C3 = cyclic_group(3)
    E = direct_product(direct_product(C3, C3), C3)
    EC4 = direct_product(E, cyclic_group(4))
    for G, H in ((S7, S7.subgroup([Permutation.from_cycles(7, [[0, 1]]),
                                   Permutation.from_cycles(
                                       7, [[2, 3, 4, 5]])])),
                 (S7, S7.subgroup([Permutation.from_cycles(7, [[0, 1, 2]]),
                                   Permutation.from_cycles(
                                       7, [[3, 4, 5, 6]])])),
                 (EC4, EC4.subgroup(EC4.generators[:3]))):
        p = common_prime(G, H)
        assert p > dixon_prime(H.exponent(), H.order)
        yield H, p


def test_abelian_rows_match_both_oracles(corpus_table_inputs):
    """The homomorphisms built along the generators are the rows of the
    Dixon route and of the eigenspace route, on every abelian table the
    corpus builds and on the cases above, and character_table_mod_p
    returns them."""
    cases = [(G, p) for G, p in corpus_table_inputs if _is_abelian(G)]
    cases += _abelian_cases()
    assert len(cases) == 129 + 9
    for G, p in cases:
        assert _is_abelian(G)
        cd = class_data(G)
        assert cd.num_classes == G.order
        rows = sorted(_abelian_rows(G, cd, p))
        assert rows == sorted(_dixon_rows(G, cd, p)), G
        assert rows == list(zip(*eigenspace_table(G, p))), G
        tab = character_table_mod_p(G, prime=p)
        assert list(zip(tab.degrees, tab.table)) == rows, G


def _refused_tamper(monkeypatch, tamper, match):
    """character_table_mod_p refuses the abelian route's rows, changed by
    tamper(rows, p), with CheckFailed matching match, on C12 and on
    C2 x C4; the Dixon route is never entered."""
    def tampered(G, cd, p):
        rows = _abelian_rows(G, cd, p)
        tamper(rows, p)
        return rows

    def refuse(*args):
        raise AssertionError("abelian group sent to the Dixon route")

    monkeypatch.setattr(chartable, "_abelian_rows", tampered)
    monkeypatch.setattr(chartable, "_dixon_rows", refuse)
    for G in (cyclic_group(12), direct_product(cyclic_group(2),
                                               cyclic_group(4))):
        with pytest.raises(CheckFailed, match=match):
            character_table_mod_p(G)


def test_tampered_abelian_row_is_refused(monkeypatch):
    """The certificate runs on the tables of the abelian route: with one
    value of one row changed, that row is no longer multiplicative."""
    def tamper(rows, p):
        d, chi = rows[1]
        rows[1] = (d, chi[:1] + ((chi[1] + 1) % p,) + chi[2:])

    _refused_tamper(monkeypatch, tamper, "not multiplicative")


def test_abelian_certificate_refuses_duplicated_missing_and_bad_rows(
        monkeypatch):
    """A row repeated in place of another, a row dropped and a row with
    chi(1) = 2 (its other values doubled too, so that it is not refused
    for multiplicativity first) are each refused."""
    def duplicate(rows, p):
        rows[1] = rows[0]

    def drop(rows, p):
        del rows[-1]

    def double(rows, p):
        d, chi = rows[1]
        rows[1] = (d, tuple(2 * x % p for x in chi))

    _refused_tamper(monkeypatch, duplicate, "two rows are equal")
    _refused_tamper(monkeypatch, drop, "11 rows for a group of order 12"
                    "|7 rows for a group of order 8")
    _refused_tamper(monkeypatch, double, r"chi\(1\) is not 1")


def test_check_invariants_accepts_every_abelian_table_of_the_corpus(
        corpus_table_inputs):
    """check_invariants, the c^3 orthonormality check of the Dixon route,
    is the oracle for the certificate: it accepts each of the 129 abelian
    tables the corpus builds, which the certificate accepted."""
    cases = [(G, p) for G, p in corpus_table_inputs if _is_abelian(G)]
    assert len(cases) == 129
    for G, p in cases:
        character_table_mod_p(G, prime=p).check_invariants(G.order)


def test_space_left_unsplit_raises(monkeypatch):
    """The class sums separate the central characters, so refinement ends
    in one piece per class; a piece left unsplit when the class matrices
    run out is refused, not retried."""
    monkeypatch.setattr(chartable, "_split_piece", lambda v, mat, p: [v])
    with pytest.raises(SplittingFailure, match="stalled"):
        character_table_mod_p(symmetric_group(3))


def test_minimal_polynomial_without_distinct_roots_raises():
    """A piece whose minimal polynomial is not a product of distinct
    linear factors over GF(p) is refused."""
    # a nilpotent Jordan block: m = x^2, a repeated root
    with pytest.raises(SplittingFailure, match="not diagonalizable"):
        _split_piece([0, 1], [[0, 1], [0, 0]], 7)
    # a rotation: m = x^2 + 1, which has no root mod 7
    with pytest.raises(SplittingFailure, match="not diagonalizable"):
        _split_piece([1, 0], [[0, 6], [1, 0]], 7)
    # the same rotation mod 5, where i = 2 and -i = 3, splits
    assert _split_piece([1, 0], [[0, 4], [1, 0]], 5) == [[3, 4], [3, 1]]


def test_degree_routes_disagree_on_a_tampered_piece():
    """Each final piece is (d^2 / |G|) * omega; the degree read off that
    coefficient must equal the one from the orthogonality sum."""
    G = symmetric_group(4)
    tab = character_table_mod_p(G)
    cd, p = tab.class_data, tab.prime
    inv_sizes = [pow(s, -1, p) for s in cd.sizes]
    for d, chi in zip(tab.degrees, tab.table):
        # omega_j = |C_j| chi_j / d, and the piece is (d^2 / |G|) omega
        coeff = d * d * pow(G.order, -1, p)
        piece = [coeff * size * x * pow(d, -1, p) % p
                 for size, x in zip(cd.sizes, chi)]
        assert _character_row(piece, cd, inv_sizes, G.order, p) == (d, chi)
        tampered = [2 * x % p for x in piece]
        with pytest.raises(LiftInconsistency, match="differs"):
            _character_row(tampered, cd, inv_sizes, G.order, p)
        with pytest.raises(LiftInconsistency):
            _character_row([0] + piece[1:], cd, inv_sizes, G.order, p)


def test_degrees_s3_q8_trivial():
    assert character_table_mod_p(symmetric_group(3)).degrees == (1, 1, 2)
    assert character_table_mod_p(quaternion_group()).degrees == (1, 1, 1, 1, 2)
    triv = cyclic_group(2).subgroup([Permutation.identity(2)])
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
    assert inclusion_shape(M) == (2, 3)


def test_table_value_and_json():
    """table_value(tab, i, g) reads row i at the class of the element
    g."""
    G = symmetric_group(4)
    tab = character_table_mod_p(G)
    for k, cls in enumerate(element_view(G, conjugacy_classes(G))):
        for g in cls:
            assert [table_value(tab, i, g) for i in range(tab.num_chars)] == \
                [row[k] for row in tab.table]
    d = table_json_dict(tab)
    assert d["degrees"] == [1, 1, 2, 3, 3]
    assert d["class_sizes"] == [1, 3, 6, 6, 8]
    assert d["table"] == [list(r) for r in tab.table]


def test_table_value_outside_the_group_rejected():
    """table_value(tab, i, g) raises ElementNotInGroup for g outside the
    table's
    group, on a group table and on a subgroup table (which numbers its
    parent's elements)."""
    tab = character_table_mod_p(symmetric_group(3))
    # below, between and past the sorted elements of S3
    for g in (Permutation((0,)), Permutation((0, 1, 2, 3)),
              Permutation((3, 0, 1, 2))):
        with pytest.raises(ElementNotInGroup):
            table_value(tab, 0, g)
    G = symmetric_group(4)
    C3 = G.subgroup([Permutation.from_cycles(4, [[0, 1, 2]])])
    tab = character_table_mod_p(C3)
    for k, cls in enumerate(element_view(G, conjugacy_classes(C3))):
        for h in cls:
            assert [table_value(tab, i, h) for i in range(tab.num_chars)] == \
                [row[k] for row in tab.table]
    for g in G.elements:
        if g not in C3:
            with pytest.raises(ElementNotInGroup):
                table_value(tab, 1, g)
    with pytest.raises(ElementNotInGroup):
        table_value(tab, 1, Permutation.from_cycles(5, [[0, 1, 2]]))


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
    th = character_table_mod_p(H, prime=5)
    with pytest.raises(LiftInconsistency):
        inclusion_matrix(G, H, tableG=tg, tableH=th)


def test_corpus_run_reads_g_table_for_h_equal_g(monkeypatch):
    """A corpus run, G's table once per group and analyze_pair on each
    pair, builds 142 tables, not 169: none for the 27 pairs with H = G,
    which read G's table, and one for each other pair."""
    from sepdepth import analyze
    from sepdepth.analyze import analyze_pair
    from sepdepth.corpus import corpus_pairs
    built = []

    def counting(G, prime=None, seed=0):
        built.append(G)
        return character_table_mod_p(G, prime=prime, seed=seed)

    monkeypatch.setattr(analyze, "character_table_mod_p", counting)
    tables, full = {}, 0
    for _, G, H in corpus_pairs():
        if G.name not in tables:
            tables[G.name] = counting(G, prime=common_prime(G, G))
        before = len(built)
        rep = analyze_pair(G, H, matrix_only=True, table_g=tables[G.name])
        assert len(built) == before + (H.order < G.order), rep.subgroup
        full += H.order == G.order
    assert (len(tables), full, len(built)) == (27, 27, 142)


def test_prime_mismatch_with_h_equal_g_rejected():
    """A G table at another prime is not read as H's table: with H = G,
    H's table is built at the pair's prime and the two are refused."""
    from sepdepth.analyze import analyze_pair
    G = symmetric_group(3)
    assert common_prime(G, G) == 7
    with pytest.raises(LiftInconsistency):
        analyze_pair(G, G.full_subgroup(),
                     table_g=character_table_mod_p(G, prime=13))


def test_bad_prime_rejected():
    G = symmetric_group(3)
    for p in (11, 25, 3):   # not 1 mod 6; not prime; not above 2*sqrt(6)
        with pytest.raises(InvalidArgument):
            character_table_mod_p(G, prime=p)


def test_frobenius_reciprocity():
    """Restriction multiplicities equal induction multiplicities mod p."""
    for G, gens in ((symmetric_group(4), None), (quaternion_group(), None)):
        for H in (G.subgroup([G.elements[-1]]), G.full_subgroup()):
            p = common_prime(G, H)
            tg = character_table_mod_p(G, prime=p)
            th = character_table_mod_p(H, prime=p)
            M = inclusion_matrix(G, H, tableG=tg, tableH=th)
            ind = induction_matrix_mod_p(G, H, tg, th)
            for i in range(len(M.entries)):
                for j in range(len(M.entries[0])):
                    assert M.entries[i][j] % p == ind[i][j] % p
