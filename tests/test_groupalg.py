import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from groupalg_oracles import (TProductTable, USpace, _one_in_span,
                              _u_trace_form_counts, casimir_orbits,
                              casimir_points, casimir_space,
                              casimir_trace_images, centralizer_basis,
                              corner_dims, e_index, idempotent_in_t, in_t,
                              is_full_in_T_by_elimination, is_full_in_T_span,
                              is_full_in_U_by_elimination, is_full_in_U_span,
                              mu, mu_system, t_basis, t_product,
                              t_span_brute, t_square, teT_candidates,
                              teT_class_images, trace_form_signatures,
                              trace_image, u_class_images, u_class_traces,
                              u_span_brute, u_trace_images, unit)
from permgroup_oracles import element_order, every_subgroup
from sepdepth import chartable, groupalg, linalg
from sepdepth.cli import main as cli_main
from sepdepth.corpus import corpus_pairs, corpus_subgroups
from sepdepth.errors import CapExceeded, CheckFailed, NotInT
from sepdepth.groupalg import (TensorSquare, is_full_in_T, is_full_in_U,
                               separability_elements)
from sepdepth.linalg import SparseEchelon, nullspace, rank, solve_affine
from sepdepth.permgroup import (Permutation, all_subgroups,
                                alternating_group, conjugacy_classes,
                                cyclic_group, dihedral_group,
                                direct_product, h_orbits, part_labels,
                                quaternion_group, symmetric_group)


def s3_pair(order):
    G = symmetric_group(3)
    if order == 2:
        return G, G.subgroup([Permutation((1, 0, 2))])
    if order == 3:
        return G, G.subgroup([Permutation((1, 2, 0))])
    return G, G.full_subgroup()


def q8_i_pair():
    Q = quaternion_group()
    return Q, Q.subgroup(
        [next(p for p in Q.elements if element_order(p) == 4)])


class TestTensorSquare:
    def test_dimensions_and_cap(self):
        G, H = s3_pair(2)
        ts = TensorSquare(G, H)
        assert ts.dim == 18 and ts.n == 3
        with pytest.raises(CapExceeded):
            TensorSquare(G, H, cap=17)

    def test_unit_is_neutral(self):
        G, H = s3_pair(2)
        ts = TensorSquare(G, H)
        one = unit(ts)
        for t in (ts.canonical_separability_element(),
                  {3: Fraction(2), 7: Fraction(-1)}):
            assert t_product(ts, one, t) == t
            assert t_product(ts, t, one) == t

    def test_t_product_associative_on_basis(self):
        G, H = s3_pair(3)
        ts = TensorSquare(G, H)
        import itertools
        idxs = range(0, ts.dim, 5)
        for i, j, k in itertools.product(idxs, repeat=3):
            a, b, c = ({i: 1}, {j: 1}, {k: 1})
            assert t_product(ts, t_product(ts, a, b), c) == \
                t_product(ts, a, t_product(ts, b, c))

    def test_canonical_element_is_separability_idempotent(self):
        for G, H in (s3_pair(2), s3_pair(3), q8_i_pair()):
            ts = TensorSquare(G, H)
            e = ts.canonical_separability_element()
            assert in_t(ts, e)
            assert ts.is_central(e)
            assert mu(ts, e) == {0: Fraction(1)}
            assert idempotent_in_t(ts, e)
            assert not idempotent_in_t(
                ts, {k: 2 * v for k, v in e.items()})

    def test_casimir_dim_equals_h_orbit_count(self):
        for G, H in (s3_pair(2), s3_pair(3), q8_i_pair(), s3_pair(6)):
            ts = TensorSquare(G, H)
            assert len(ts.casimir_basis()) == len(h_orbits(G, H))

    def test_casimir_basis_equals_orbit_search_on_corpus(self):
        """The point form of the H-orbits equals the orbit search of
        conjugation on all basis points, order included, on every corpus
        pair with the cap lifted to |G|^2."""
        for name, G, H in corpus_pairs():
            ts = TensorSquare(G, H, cap=G.order ** 2)
            assert casimir_points(ts) == casimir_orbits(ts), name

    def test_casimir_basis_reads_no_h_orbits(self, monkeypatch):
        """casimir_basis searches its own H-orbits, and the separability
        rows are labelled by them, so the report's casimir_dim and
        separability_kind stay a route apart from property S, which reads
        permgroup.h_orbits.  The rows read G's classes, which are
        computed before the H-orbits are refused."""
        from sepdepth import groupalg, permgroup
        G = symmetric_group(4)
        H = G.subgroup([Permutation((1, 0, 2, 3)),
                        Permutation((2, 3, 0, 1))])
        conjugacy_classes(G)

        def refuse(*args, **kwargs):
            raise AssertionError("H-orbits read from permgroup")

        for name in ("h_orbits", "_conjugation_orbits"):
            monkeypatch.setattr(permgroup, name, refuse)
        # groupalg keeps no reference of its own to h_orbits
        assert not hasattr(groupalg, "h_orbits")
        ts = TensorSquare(G, H)
        assert casimir_points(ts) == casimir_orbits(ts)
        assert len(ts.casimir) == 8     # the H-orbits of D4 on S4
        # 8 H-orbits and 5 classes of S4
        assert separability_elements(ts)[::2] == ("infinite", 3)


def test_separability_kinds():
    G, H2 = s3_pair(2)
    kind, witness, kdim = separability_elements(TensorSquare(G, H2))
    assert kind == "infinite" and kdim >= 1
    _, H3 = s3_pair(3)
    assert separability_elements(TensorSquare(G, H3))[0] == "infinite"
    # H = G: the only separability element is 1 (x) 1
    kind_full, w_full, kdim_full = separability_elements(
        TensorSquare(G, G.full_subgroup()))
    assert kind_full == "unique" and kdim_full == 0
    GX = direct_product(symmetric_group(3), cyclic_group(2))
    HX = GX.subgroup(list(GX.generators[:2]))
    assert separability_elements(TensorSquare(GX, HX))[0] == "unique"


@pytest.mark.parametrize("tamper, message", [
    # two orbits of S3 over <(0 1)> in different classes, merged
    (lambda orbs: [tuple(sorted(orbs[0] + orbs[1]))] + orbs[2:],
     "meets two classes"),
    # an orbit left out, so its class is not filled
    (lambda orbs: orbs[:-1], "do not fill"),
])
def test_separability_checks_what_the_closed_form_reads(tamper, message):
    """Casimir orbits that straddle two classes of G, or leave part of a
    class uncovered, raise CheckFailed rather than give a kernel
    dimension."""
    G, H = s3_pair(2)
    ts = TensorSquare(G, H)
    ts.casimir = tamper(list(ts.casimir))
    with pytest.raises(CheckFailed, match=message):
        separability_elements(ts)


def test_separability_triple_matches_dense_solve():
    """kind and kernel_dim, read off the Casimir orbit sizes in closed
    form, equal what the back-substituting dense solve of the full |G|-row
    system gives, on every corpus pair below order 60."""
    for name, G, H in corpus_pairs():
        if G.order >= 60:
            continue
        ts = TensorSquare(G, H)
        mus = [mu(ts, dict.fromkeys(w, 1)) for w in casimir_points(ts)]
        sol, null = solve_affine([[m.get(gi, 0) for m in mus]
                                  for gi in range(G.order)],
                                 [int(gi == 0) for gi in range(G.order)])
        kind = ("none" if sol is None else
                "unique" if not null else "infinite")
        got_kind, _, kdim = separability_elements(ts)
        assert (got_kind, kdim) == (kind, len(null)), name


def _larger_pairs():
    """An S6 point stabiliser, A6 over A5, and the subgroups of C4 x C6
    and of D15 (up to conjugacy)."""
    S6 = symmetric_group(6)
    yield "S6/S5", S6, S6.subgroup([Permutation((1, 0, 2, 3, 4, 5)),
                                     Permutation((1, 2, 3, 4, 0, 5))])
    A6 = alternating_group(6)
    yield "A6/A5", A6, A6.subgroup([Permutation((1, 2, 0, 3, 4, 5)),
                                     Permutation((1, 2, 3, 4, 0, 5))])
    for G in (direct_product(cyclic_group(4), cyclic_group(6)),
              dihedral_group(15)):
        for H in all_subgroups(G):
            yield f"{G.name}/{H.order}", G, H


def test_class_rows_match_the_element_rows():
    """The closed form, #H-orbits - #classes of G read off the Casimir
    orbit sizes, gives the kind, kernel dimension and Casimir count of the
    |G|-row mu system over the searched Casimir orbits, on every corpus
    pair with the cap lifted to |G|^2 and on larger pairs."""
    pairs = list(corpus_pairs())
    assert len(pairs) == 142
    for name, G, H in pairs + list(_larger_pairs()):
        ts = TensorSquare(G, H, cap=G.order ** 2)
        kind, _, kdim = separability_elements(ts)
        assert (kind, kdim, len(ts.casimir)) == mu_system(ts), name


def test_separability_on_s5_forms_only_the_witness_products(monkeypatch):
    """On a fresh S5 over 1 at cap 16384, separability_elements builds no
    echelon and calls G.mul only in the checks on the witness: one product
    per support point and generator of G for A-centrality, one per point
    for mu, (len(G.gen_indices) + 1) * [G:H] = 360 in all."""
    G = symmetric_group(5)
    ts = TensorSquare(G, G.trivial_subgroup(), cap=16384)
    calls = []

    def no_echelon(*args, **kwargs):
        raise AssertionError("separability_elements ran an echelon")

    def counted(i, j, _mul=G.mul):
        calls.append((i, j))
        return _mul(i, j)

    monkeypatch.setattr(linalg.SparseEchelon, "__init__", no_echelon)
    monkeypatch.setattr(G, "mul", counted)
    kind, _, kdim = separability_elements(ts)
    assert (kind, kdim) == ("infinite", 120 - 7)
    assert len(calls) <= (len(G.gen_indices) + 1) * ts.n == 360


def test_closed_forms_on_the_corpus(capsys):
    """At --cap-linear 16384, on all 142 corpus pairs: the Casimir space
    has one dimension per H-orbit, the separability kernel one per H-orbit
    beyond the classes of G, and e is full in T exactly when H = G."""
    assert cli_main(["corpus", "--cap-linear", "16384"]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    pairs = list(corpus_pairs())
    assert len(reports) == len(pairs) == 142
    for (name, G, H), r in zip(pairs, reports):
        assert not r["caps_hit"], name
        _, _, kdim = separability_elements(TensorSquare(G, H, cap=16384))
        assert r["casimir_dim"] == r["num_h_orbits"], name
        assert kdim == r["num_h_orbits"] - r["num_classes_g"], name
        assert r["full_in_t"] == (r["subgroup_order"] == r["group_order"]), \
            name


def test_unique_separable_examples():
    Q, Hi = q8_i_pair()
    assert separability_elements(TensorSquare(Q, Hi))[0] != "unique"
    assert separability_elements(
        TensorSquare(Q, Q.full_subgroup()))[0] == "unique"
    GX = direct_product(symmetric_group(3), cyclic_group(2))
    assert separability_elements(TensorSquare(
        GX, GX.subgroup(list(GX.generators[:2]))))[0] == "unique"


def test_q8_dimension_gap():
    """dim A^B = 6 exceeds dim Z(A) = 5 for the order-4 cyclic subgroup."""
    Q, Hi = q8_i_pair()
    assert len(centralizer_basis(Q, Hi)) == 6
    assert len(TensorSquare(Q, Hi).casimir_basis()) == 6
    assert len(conjugacy_classes(Q)) == 5


def test_fullness_in_t():
    G, H2 = s3_pair(2)
    assert not is_full_in_T(G, H2)
    assert is_full_in_T(G, G.full_subgroup())
    GX = direct_product(symmetric_group(3), cyclic_group(2))
    HX = GX.subgroup(list(GX.generators[:2]))
    assert not is_full_in_T(GX, HX)   # depth 1 but not H-depth 1
    # even abelian pairs fail: distinct G-irreps share H-constituents
    C = cyclic_group(6)
    assert not is_full_in_T(C, C.subgroup([C.elements[3]]))
    assert is_full_in_T(C, C.full_subgroup())


def test_fullness_in_t_cross_check():
    """Trace-form criterion agrees with the explicit ideal span and with
    the span of the T-basis products t_a . e . t_b."""
    for G in (symmetric_group(3), quaternion_group(), dihedral_group(4)):
        for H in all_subgroups(G):
            full = is_full_in_T(G, H)
            assert full == is_full_in_T_span(G, H)
            ts = TensorSquare(G, H)
            e = ts.canonical_separability_element()
            assert full == (t_span_brute(ts, e).rank == len(t_basis(ts)))


def _teT_pairs():
    return [(G, H) for G in (symmetric_group(3), quaternion_group(),
                             dihedral_group(4), alternating_group(4))
            for H in all_subgroups(G)]


def test_teT_images_are_the_casimir_traces():
    """The counted images of 1 and of each Casimir orbit equal, in order,
    the point-by-point trace forms of the explicit candidates w.r with
    r = {1}; there is one image per Casimir orbit."""
    for G, H in _teT_pairs():
        ts = TensorSquare(G, H)
        signatures = trace_form_signatures(ts)
        one, images = casimir_trace_images(ts)
        assert len(images) == len(ts.casimir)
        assert one == trace_image(ts, unit(ts), signatures)
        r_sums = centralizer_basis(G, H)
        per_w = len(r_sums)
        r1 = r_sums.index({0: 1})
        candidates = list(teT_candidates(ts))[r1::per_w]
        assert images == [trace_image(ts, vec, signatures)
                          for vec in candidates]


def test_teT_images_span_the_w_r_images():
    """The Casimir images span what all the w.r images span: same rank,
    and the image of 1 lies in both spans or in neither."""
    for G, H in _teT_pairs():
        ts = TensorSquare(G, H)
        signatures = trace_form_signatures(ts)
        one, images = teT_class_images(G, H)
        fast = SparseEchelon(images)
        full = SparseEchelon(trace_image(ts, vec, signatures)
                             for vec in teT_candidates(ts))
        assert fast.rank == full.rank
        assert fast.contains(one) == full.contains(one)


def test_casimir_traces_are_class_counts_on_the_corpus():
    """On every corpus pair, uncapped, the image of the Casimir orbit w_O
    of an H-orbit O is |O| times the class count a^L of the G-class L of
    O^-1, and is_full_in_T agrees with the span of the Casimir images."""
    pairs = 0
    for name, G, H in corpus_pairs():
        ts = TensorSquare(G, H, cap=G.order ** 2)
        one, images = casimir_trace_images(ts)
        fast_one, counts = teT_class_images(G, H)
        assert fast_one == one, name
        class_of = part_labels(conjugacy_classes(G), G.order)
        for w, image in zip(casimir_points(ts), images):
            # the points of w with i = 0 are d (x) 1 for d in O
            orbit = [idx // ts.n for idx in w if idx % ts.n == 0]
            a = counts[class_of[G.inverse[orbit[0]]]]
            assert image == {k: len(orbit) * v for k, v in a.items()}, name
        assert is_full_in_T(G, H) == \
            SparseEchelon(images).contains(one), name
        pairs += 1
    assert pairs == 142


def test_teT_images_need_only_g_class_data(monkeypatch):
    """_teT_images counts one image per conjugacy class of G on every
    corpus pair, and is_full_in_T decides D4 < S4 and the subgroups of A4
    with the character-table routines out of reach."""
    for name, G, H in corpus_pairs():
        _, images = teT_class_images(G, H)
        assert len(images) == len(conjugacy_classes(G)), name
    S4 = symmetric_group(4)
    D4, = (H for H in all_subgroups(S4) if H.order == 8)
    A4 = alternating_group(4)
    pairs = [(S4, D4)] + [(A4, H) for H in all_subgroups(A4)]
    want = [is_full_in_T_span(G, H) for G, H in pairs]
    assert want.count(True) == 1

    def unreachable(*args, **kwargs):
        raise AssertionError("the T side read a character table")

    monkeypatch.setattr(chartable, "class_mult_coeffs", unreachable)
    monkeypatch.setattr(chartable, "character_table_mod_p", unreachable)
    assert [is_full_in_T(G, H) for G, H in pairs] == want


def test_read_off_verdicts_equal_the_elimination_verdicts(capsys):
    """The coefficients read off the identity-class row decide fullness in
    T and in U as the echelon over every class count does: on all 142
    corpus pairs, in the corpus reports at the default linear cap (138
    pairs uncapped) and at --cap-linear 16384 (all 142, the S5 pairs
    included), and on the S6 family, with both verdicts seen."""
    want = {}
    for name, G, H in corpus_pairs():
        want[name] = (is_full_in_T_by_elimination(G, H),
                      is_full_in_U_by_elimination(G, H))
        assert (is_full_in_T(G, H), is_full_in_U(G, H)) == want[name], name
    assert len(want) == 142
    assert {t for t, _ in want.values()} == {u for _, u in want.values()} \
        == {True, False}
    for argv, uncapped in ((["corpus"], 138),
                           (["corpus", "--cap-linear", "16384"], 142)):
        assert cli_main(argv) == 0
        reports = json.loads(capsys.readouterr().out)["reports"]
        got = {f"{r['group']}/{r['subgroup']}": (r["full_in_t"],
                                                 r["full_in_u"])
               for r in reports if not r["caps_hit"]}
        assert len(got) == uncapped
        assert all(got[name] == want[name] for name in got)
    S6 = symmetric_group(6)
    seen = set()
    for H in corpus_subgroups(S6):
        verdicts = (is_full_in_T(S6, H), is_full_in_U(S6, H))
        assert verdicts == (is_full_in_T_by_elimination(S6, H),
                            is_full_in_U_by_elimination(S6, H)), H.name
        seen.update(verdicts)
    assert seen == {True, False}


def test_fullness_builds_one_class_image_per_pair(monkeypatch):
    """On every corpus pair is_full_in_T and is_full_in_U each build one
    class image, the identity class's, and run no echelon."""
    built = []

    def counted(images):
        def wrapper(G, H):
            one, cd, image = images(G, H)

            def counting(label):
                built.append((images.__name__, cd.classes[label][0]))
                return image(label)
            return one, cd, counting
        return wrapper

    def no_echelon(*args, **kwargs):
        raise AssertionError("a fullness test ran an echelon")

    monkeypatch.setattr(groupalg, "_teT_images",
                        counted(groupalg._teT_images))
    monkeypatch.setattr(groupalg, "_u_images", counted(groupalg._u_images))
    monkeypatch.setattr(linalg.SparseEchelon, "__init__", no_echelon)
    for name, G, H in corpus_pairs():
        built.clear()
        is_full_in_T(G, H)
        is_full_in_U(G, H)
        assert built == [("_teT_images", 0), ("_u_images", 0)], name


def test_idempotent_in_t_on_integers():
    """The integer test accepts the canonical e and a separability
    idempotent with mixed denominators, and rejects 2e."""
    G, H = s3_pair(2)
    ts = TensorSquare(G, H)
    e = ts.canonical_separability_element()
    assert idempotent_in_t(ts, e)
    assert not idempotent_in_t(ts, {k: 2 * v for k, v in e.items()})
    # e plus a fifth of a Casimir element with mu = 0 is again a
    # separability idempotent
    points = casimir_points(ts)
    mus = [mu(ts, dict.fromkeys(w, 1)) for w in points]
    kernel, = nullspace([[m.get(g, 0) for m in mus]
                         for g in range(G.order)])
    mixed = dict(e)
    for w, c in zip(points, kernel):
        for idx in w:
            mixed[idx] = mixed.get(idx, 0) + c / 5
    mixed = {k: v for k, v in mixed.items() if v}
    assert len({Fraction(v).denominator for v in mixed.values()}) > 1
    assert t_product(ts, mixed, mixed) == mixed
    assert idempotent_in_t(ts, mixed)
    assert not idempotent_in_t(ts, {k: 2 * v for k, v in mixed.items()})


def test_t_ideal_brute_cross_check():
    G, H3 = s3_pair(3)
    ts = TensorSquare(G, H3)
    e = ts.canonical_separability_element()
    brute = t_span_brute(ts, e)
    assert brute.rank == 6 < len(t_basis(ts))


def test_fullness_in_u():
    G, H2 = s3_pair(2)
    assert not is_full_in_U(G, H2)
    assert is_full_in_U(G, G.full_subgroup())
    assert is_full_in_U(G, G.trivial_subgroup())
    GX = direct_product(symmetric_group(3), cyclic_group(2))
    assert is_full_in_U(GX, GX.subgroup(list(GX.generators[:2])))
    Q, Hi = q8_i_pair()
    assert not is_full_in_U(Q, Hi)


def test_fullness_in_u_cross_check():
    """The trace-form test agrees with the explicit span of UEU on every
    subgroup, not only up to conjugacy."""
    checked = 0
    for G in (symmetric_group(3), quaternion_group(), dihedral_group(4),
              alternating_group(4), symmetric_group(4), dihedral_group(6)):
        for H in every_subgroup(G):
            assert is_full_in_U(G, H) == is_full_in_U_span(G, H), (G, H)
            checked += 1
    assert checked == 78


def test_u_trace_form_counts_are_the_explicit_traces():
    """The counted images of 1 and of the lambda_c . f_O equal the traces
    of explicit |G| x |G| matrices against the class-pair operators."""
    for G in (symmetric_group(3), quaternion_group(), dihedral_group(4),
              alternating_group(4)):
        for H in all_subgroups(G):
            one, images = _u_trace_form_counts(G, H)
            want_one, want_images = u_trace_images(G, H)
            assert one == want_one
            assert Counter(frozenset(i.items()) for i in images) == \
                Counter(frozenset(i.items()) for i in want_images)


def _same_span(left, right):
    """Equal rank, and each list inside the other's span."""
    left, right = SparseEchelon(left), SparseEchelon(right)
    return (left.rank == right.rank
            and all(map(right.contains, left.basis()))
            and all(map(left.contains, right.basis())))


def test_u_class_images_match_the_orbit_images():
    """The r H-class counts b^C give the same image of 1, and span the
    same space, as the per-orbit counts over lambda_c . f_O: on every
    corpus pair (the verdict at cap |G|^2 too), on every subgroup of the
    six groups of test_fullness_in_u_cross_check, and on S6 and A6 over
    the point stabilisers S5 and A5."""
    def check(G, H):
        one, images = u_class_images(G, H)
        want_one, want_images = _u_trace_form_counts(G, H)
        want_images = list(want_images)
        assert one == want_one, (G, H)
        assert _same_span(images, want_images), (G, H)
        return _one_in_span(want_one, want_images)

    for name, G, H in corpus_pairs():
        assert is_full_in_U(G, H) == check(G, H), name
    checked = 0
    for G in (symmetric_group(3), quaternion_group(), dihedral_group(4),
              alternating_group(4), symmetric_group(4), dihedral_group(6)):
        for H in every_subgroup(G):
            check(G, H)
            checked += 1
    assert checked == 78
    for G, n in ((symmetric_group(6), 2), (alternating_group(6), 3)):
        H = G.subgroup([Permutation.from_cycles(6, [list(range(n))]),
                        Permutation.from_cycles(6, [list(range(5))])])
        assert H.order == G.order // 6
        check(G, H)


def test_u_class_counts_are_the_explicit_traces():
    """Each b^C times |H| |C| is the trace over kH of y -> K C y K', from
    Permutation products, and the image of 1 is the explicit trace of the
    identity of kG."""
    for G in (symmetric_group(3), quaternion_group(), dihedral_group(4),
              alternating_group(4)):
        for H in all_subgroups(G):
            one, images = u_class_images(G, H)
            assert one == u_trace_images(G, H)[0]
            assert images == u_class_traces(G, H)


def test_one_in_span_is_rank_membership():
    """_one_in_span decides membership as the dense ranks do, on the U
    images of every subgroup of S4 and on random integer vectors, with
    repeated images among them."""
    rng = random.Random(23)

    def vector(keys):
        return {k: rng.choice((-2, -1, 1, 2)) for k in keys}

    cases = []
    G = symmetric_group(4)
    for H in every_subgroup(G):
        cases.append(u_class_images(G, H))
    for _ in range(200):
        images = [vector(rng.sample(range(6), 3))
                  for _ in range(rng.randint(1, 5))]
        images.append(dict(rng.choice(images)))
        cases.append((vector(rng.sample(range(6), 4)), images))
    seen = set()
    for one, images in cases:
        width = 1 + max(max(v, default=0) for v in images + [one])
        dense = [[v.get(k, 0) for k in range(width)] for v in images]
        want = rank(dense) == rank(dense + [[one.get(k, 0)
                                             for k in range(width)]])
        assert _one_in_span(one, images) == want
        seen.add(want)
    assert seen == {True, False}


def test_corpus_span_tests_stay_in_integers(monkeypatch):
    """On S5/o4.0 the two fullness tests and the separability solve run
    on integer vectors only: the echelon builds no Fraction."""
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(linalg, "Fraction", counted)
    G = symmetric_group(5)
    H = next(H for H in corpus_subgroups(G) if H.name == "o4.0")
    ts = TensorSquare(G, H)
    assert separability_elements(ts)[0] == "infinite"
    assert not is_full_in_T(G, H)
    assert not is_full_in_U(G, H)
    assert built == []


def test_t_square_is_the_t_product():
    """e . e from the cached index maps equals the product computed from
    group elements, on elements inside and outside T."""
    D = dihedral_group(4)
    for G, H in (s3_pair(2), s3_pair(3), q8_i_pair(),
                 (D, D.trivial_subgroup())):
        ts = TensorSquare(G, H)
        e = ts.canonical_separability_element()
        for t in (e, {k: 2 * v for k, v in e.items()},
                  {3: Fraction(2), 7: Fraction(-1), 11: Fraction(1, 3)}):
            assert t_square(ts, t) == t_product(ts, t, t)


def test_u_span_brute_cross_check():
    G, H3 = s3_pair(3)
    U = USpace(G, H3)
    brute = u_span_brute(U)
    assert brute.rank == 6 < U.dim == 8
    full = USpace(G, G.full_subgroup())
    assert u_span_brute(full).rank == full.dim


def test_corner_dims():
    G, H2 = s3_pair(2)
    assert corner_dims(G, H2) == (3, 2)
    assert corner_dims(G, G.full_subgroup()) == (3, 3)
    Q, Hi = q8_i_pair()
    assert corner_dims(Q, Hi) == (5, 4)


def test_e_index():
    G, H2 = s3_pair(2)
    # the identity is index 0
    assert e_index(G, H2) == {0: Fraction(3)}
    assert e_index(G, G.full_subgroup()) == {0: Fraction(1)}
    Q, Hi = q8_i_pair()
    assert e_index(Q, Hi) == {0: Fraction(2)}


def test_casimir_space_function():
    G, H2 = s3_pair(2)
    ts, vecs = casimir_space(G, H2)
    assert len(vecs) == len(h_orbits(G, H2)) == 4
    for v in vecs:
        assert ts.is_central(v)


def test_t_product_table():
    G, H3 = s3_pair(3)
    ts = TensorSquare(G, H3)
    table = TProductTable(ts)
    e = ts.canonical_separability_element()
    coords = table.coords(e)
    assert any(coords)
    big_orbit = next(b for b in t_basis(ts) if len(b) > 1)
    with pytest.raises(NotInT):
        table.coords({min(big_orbit): Fraction(1)})   # not H-central
