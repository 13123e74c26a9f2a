import json
import os
import random
import sys
from fractions import Fraction

import pytest

from depth_oracles import depth_report_json, depths_by_powers, zero_pattern
from permgroup_oracles import (conjugation_orbits_by_products, element_order,
                               every_subgroup)
from sepdepth import depth
from sepdepth.chartable import inclusion_matrix
from sepdepth.corpus import corpus_subgroups
from sepdepth.depth import (bimodule_matrices, burciu_depth1, depth_report,
                            is_diagonal, min_depth, min_even_depth,
                            min_h_depth, min_odd_depth)
from sepdepth.errors import InvalidArgument
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
    for G in (symmetric_group(3), quaternion_group(), alternating_group(4)):
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


def _mask_route(M):
    """bimodule_matrices and the four depth scans of sepdepth.depth."""
    return (*bimodule_matrices(M), min_odd_depth(M), min_even_depth(M),
            min_h_depth(M), min_depth(M))


def _report_route(M):
    """depth_report's scans on M, held to the oracle's S and T through
    s_diagonal and t_diagonal, and its S and T as read."""
    rep = depth_report(M)
    S, T = depths_by_powers(M)[:2]
    assert (rep.s_diagonal, rep.t_diagonal) == (is_diagonal(S),
                                                is_diagonal(T)), M
    return (rep.S, rep.T, rep.min_odd_depth, rep.min_even_depth,
            rep.min_h_depth, rep.min_depth)


def test_masks_match_powers_on_the_corpus(corpus_reports):
    reports, _ = corpus_reports
    assert len(reports) == 142
    for name, _, _, rep in reports:
        M = rep.inclusion_matrix
        oracle = depths_by_powers(M)
        assert _mask_route(M) == oracle == _report_route(M), name


def test_masks_match_powers_on_recorded_large_matrices():
    path = os.path.join(os.path.dirname(__file__), "data",
                        "matrix_reports.json")
    with open(path) as fh:
        cases = json.load(fh)
    assert sorted(cases) == ["A5<S5", "S5<S6", "S6<S7"]
    for name, case in cases.items():
        M = json.loads(case["output"])["inclusion_matrix"]
        oracle = depths_by_powers(M)
        assert _mask_route(M) == oracle == _report_route(M), name


def test_masks_match_powers_on_the_symmetric_chain():
    """kS_n inside kS_{n+1} (criterion 1): depth 2n-1, H-depth 2n+1."""
    for n in (2, 3, 4, 5):
        G = symmetric_group(n + 1)
        H = G.subgroup([Permutation(tuple([1, 0] + list(range(2, n + 1)))),
                        Permutation(tuple(list(range(1, n)) + [0, n]))])
        M = inclusion_matrix(G, H).as_lists()
        oracle = depths_by_powers(M)
        assert _mask_route(M) == oracle == _report_route(M), n
        assert oracle[4:] == (2 * n + 1, 2 * n - 1)


def test_masks_match_powers_on_the_s6_family():
    """S6 over its cyclic, derived, trivial and full subgroups."""
    G = symmetric_group(6)
    subs = corpus_subgroups(G)
    assert len(subs) == 13
    for H in subs:
        M = inclusion_matrix(G, H).as_lists()
        oracle = depths_by_powers(M)
        assert _mask_route(M) == oracle == _report_route(M), H.name


def test_s_and_t_are_built_only_when_read(monkeypatch):
    """depth_report scans M without forming S or T; reading .S or .T
    builds both, once, through bimodule_matrices."""
    calls = []
    real = depth.bimodule_matrices

    def counted(M):
        calls.append(M)
        return real(M)

    monkeypatch.setattr(depth, "bimodule_matrices", counted)
    rep = depth_report(M_S2_S3)
    assert (rep.s_diagonal, rep.t_diagonal) == (False, False)
    assert calls == []
    assert (rep.S, rep.T) == real(M_S2_S3)
    assert rep.T == [[1, 0, 1], [0, 1, 1], [1, 1, 2]]
    assert calls == [M_S2_S3]


def _random_matrix(rng):
    r, s = rng.randint(1, 7), rng.randint(1, 9)
    density = rng.choice((0.1, 0.3, 0.6, 1.0))
    M = [[rng.randint(1, 4) if rng.random() < density else 0
          for _ in range(s)] for _ in range(r)]
    if rng.random() < 0.3:
        M[rng.randrange(r)] = [0] * s
    if rng.random() < 0.3:
        j = rng.randrange(s)
        for row in M:
            row[j] = 0
    return M


def test_masks_match_powers_on_random_matrices():
    """Sparse and dense nonnegative matrices, some with zero rows or
    columns, the all-zero ones, and single rows and columns (1 x c and
    r x 1) with zero entries among them."""
    rng = random.Random(22011)
    mats = [_random_matrix(rng) for _ in range(400)]
    mats += [[[0]], [[0, 0, 0]], [[0], [0]], [[0, 0], [0, 0]]]
    # single rows and single columns, as the trivial subgroup gives
    for _ in range(40):
        row = [rng.randint(0, 3) for _ in range(rng.randint(1, 40))]
        mats += [[row], [[x] for x in row]]
    zero_lines = 0
    for M in mats:
        oracle = depths_by_powers(M)
        assert _mask_route(M) == oracle == _report_route(M), M
        zero_lines += not all(map(any, M)) or not all(map(any, zip(*M)))
    assert zero_lines > 100


def test_oracle_calls_nothing_in_sepdepth():
    """depths_by_powers shares no code with the mask route."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code.co_filename)

    sys.setprofile(profile)
    try:
        depths_by_powers([[1, 0, 1], [0, 1, 1]])
    finally:
        sys.setprofile(None)
    assert not any(os.sep + "sepdepth" + os.sep in f for f in called)
    assert any(f.endswith("depth_oracles.py") for f in called)


BAD_MATRICES = {  # case: (word in the message, matrices)
    "empty": ("empty", ([[]], [], [[], []])),
    "ragged": ("ragged", ([[1, 2], [3]], [[1], [2, 0]])),
    "non_integer": ("integers", ([[1, 0.5]], [[Fraction(1)]], [[1, "1"]],
                                 [[None]], [[True, 0]], [[1.0]])),
    "negative": ("nonnegative", ([[1, -1]], [[0], [-2]])),
    "not_rows": ("rows must be lists", ([5], [[1], None])),
}
ENTRY_POINTS = (bimodule_matrices, depth_report, min_depth, min_odd_depth,
                min_even_depth, min_h_depth)


@pytest.mark.parametrize("case", sorted(BAD_MATRICES))
def test_invalid_matrix_refused(case):
    """Each public entry point raises InvalidArgument with a one-line
    message instead of scanning a malformed matrix."""
    word, mats = BAD_MATRICES[case]
    for M in mats:
        for fn in ENTRY_POINTS:
            with pytest.raises(InvalidArgument, match=word) as err:
                fn(M)
            assert "\n" not in str(err.value), (fn, M)
