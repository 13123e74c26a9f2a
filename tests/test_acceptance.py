"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line for its criterion and then
asserts it, so `pytest -v` doubles as the acceptance report.  The heavy
corpus sweep is computed once by the session fixture in conftest.py.
"""

import hashlib
import json
import os
import time

import pytest

from findim_oracles import (matrix_algebra_separability_witnesses,
                            monoid_decomposition_dims)
from groupalg_oracles import centralizer_basis, idempotent_in_t, mu
from permgroup_oracles import element_order
from sepdepth import chartable, depth, permgroup
from sepdepth.analyze import AGREE, DISAGREE, SKIPPED, analyze_pair
from sepdepth.chartable import (character_table_mod_p, common_prime,
                                inclusion_matrix)
from sepdepth.depth import min_depth
from sepdepth.findim import (RelativeTensorSquare, AlgebraInclusion,
                             is_separable_extension, monoid_algebra,
                             monoid_nilpotent_part_subalgebra,
                             strict_upper_subalgebra,
                             structural_matrix_example,
                             upper_triangular_algebra,
                             verify_separability_witness)
from sepdepth.groupalg import TensorSquare, separability_elements
from sepdepth.permgroup import (Permutation, conjugacy_classes,
                                cyclic_group, property_S, quaternion_group,
                                symmetric_group)


def _verdict(num, desc, ok):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _sym_chain_pair(n):
    """kS_n inside kS_{n+1}, with S_n fixing the last point."""
    G = symmetric_group(n + 1)
    trans = Permutation(tuple([1, 0] + list(range(2, n + 1))))
    cyc = Permutation(tuple(list(range(1, n)) + [0, n]))
    return G, G.subgroup([trans, cyc])


def test_criterion_01_symmetric_chain_depths():
    t0 = time.time()
    depths = {}
    for n in (2, 3, 4, 5):
        G, H = _sym_chain_pair(n)
        M = inclusion_matrix(G, H).as_lists()
        depths[n] = min_depth(M)
    elapsed = time.time() - t0
    ok = all(depths[n] == 2 * n - 1 for n in (2, 3, 4, 5)) and elapsed < 60
    _verdict(1, f"S_n < S_n+1 depths {depths} = 2n-1, "
             f"{elapsed:.1f}s < 60s", ok)


def test_criterion_02_q8_counterexample():
    t0 = time.time()
    Q = quaternion_group()
    Hi = Q.subgroup([next(p for p in Q.elements if element_order(p) == 4)])
    prop_s = property_S(Q, Hi)
    uniq = separability_elements(TensorSquare(Q, Hi))[0] == "unique"
    dim_cent = len(centralizer_basis(Q, Hi))
    dim_center = len(conjugacy_classes(Q))
    elapsed = time.time() - t0
    ok = (prop_s is False and uniq is False
          and dim_cent == 6 and dim_center == 5 and elapsed < 1)
    _verdict(2, f"Q8/<i>: property_S={prop_s}, unique={uniq}, "
             f"dim A^B={dim_cent} != {dim_center}=dim Z(A), "
             f"{elapsed:.2f}s < 1s", ok)


def test_criterion_03_property_s_equals_unique_separable(corpus_reports):
    reports, elapsed = corpus_reports
    bad = [name for name, _, _, r in reports
           if r.agreements["property_s_vs_unique_separable"] == DISAGREE]
    skipped = [name for name, _, _, r in reports
               if r.agreements["property_s_vs_unique_separable"] == SKIPPED
               and not r.caps_hit]
    ok = not bad and not skipped and elapsed < 600
    _verdict(3, f"property_S == unique_separable on {len(reports)} pairs, "
             f"disagreements={bad}, corpus {elapsed:.1f}s < 600s", ok)


CORPUS_REPORTS = os.path.join(os.path.dirname(__file__), "data",
                              "corpus_reports.json")


def test_corpus_reports_unchanged(corpus_reports):
    """Every corpus report (at the default caps, seed 0) equals the one
    recorded in tests/data, field for field, the caps_hit strings
    included: the four S5 pairs over the tensor-square cap name it once."""
    with open(CORPUS_REPORTS) as fh:
        expected = json.load(fh)
    reports, _ = corpus_reports
    got = {name: r.to_json_dict() for name, _, _, r in reports}
    assert len(got) == len(reports) == len(expected) == 142
    changed = sorted(name for name in expected if got.get(name)
                     != expected[name])
    assert not changed, f"reports differ on {changed}"
    assert sum(len(r["caps_hit"]) for r in got.values()) == 4


def test_criterion_04_property_s_equals_centralizer_lemma(corpus_reports):
    reports, _ = corpus_reports
    bad = [name for name, _, _, r in reports
           if r.agreements["property_s_vs_centralizer_criterion"] != AGREE]
    _verdict(4, f"property_S == centralizer criterion on {len(reports)} "
             f"pairs, disagreements={bad}", not bad)


def test_criterion_05_depth1_four_way_agreement(corpus_reports):
    reports, _ = corpus_reports
    bad = []
    for name, _, _, r in reports:
        verdicts = {r.depth1_group, r.burciu_depth1, r.s_diagonal,
                    r.min_depth == 1}
        if r.full_in_u is not None:
            verdicts.add(r.full_in_u)
        if len(verdicts) > 1 or r.agreements["depth1_agreement"] != AGREE:
            bad.append(name)
    _verdict(5, f"depth-1 group/Burciu/S-diagonal/full-E agreement, "
             f"disagreements={bad}", not bad)


def test_criterion_06_h_depth1_three_way_agreement(corpus_reports):
    reports, _ = corpus_reports
    bad = []
    for name, _, _, r in reports:
        verdicts = {r.t_diagonal, r.min_h_depth == 1}
        if r.full_in_t is not None:
            verdicts.add(r.full_in_t)
        if len(verdicts) > 1:
            bad.append(name)
    _verdict(6, f"H-depth-1 T-diagonal/full-e/min_h_depth agreement, "
             f"disagreements={bad}", not bad)


def test_criterion_07_implication_chain(corpus_reports):
    reports, _ = corpus_reports
    bad = []
    for name, _, _, r in reports:
        if r.unique_separable and not r.depth1_group:
            bad.append(name)
        if r.hz and not (r.property_s and r.depth1_group
                         and r.unique_separable is not False):
            bad.append(name)
        for key in ("unique_implies_depth1", "hz_implies_unique_and_depth1"):
            if r.agreements[key] == DISAGREE:
                bad.append(name)
    _verdict(7, "unique => depth-1 and HZ => unique & depth-1, "
             f"violations={bad}", not bad)


def test_criterion_08_depth2_iff_normal(corpus_reports):
    reports, _ = corpus_reports
    bad = [name for name, _, _, r in reports
           if (r.min_depth <= 2) != r.normal]
    a3 = [r for name, _, _, r in reports
          if r.group == "S3" and r.subgroup_order == 3]
    ok = not bad and len(a3) == 1 and a3[0].min_depth == 2
    _verdict(8, f"min_depth <= 2 iff normal, violations={bad}; "
             f"A3 < S3 depth = {a3[0].min_depth if a3 else '?'}", ok)


def test_criterion_09_depth_gap(corpus_reports):
    reports, _ = corpus_reports
    bad = [name for name, _, _, r in reports
           if abs(r.min_depth - r.min_h_depth) > 2]
    _verdict(9, f"|min_depth - min_h_depth| <= 2, violations={bad}",
             not bad)


def test_criterion_10_canonical_idempotent_everywhere(corpus_reports):
    reports, _ = corpus_reports
    bad = []
    for name, G, H, _ in reports:
        ts = TensorSquare(G, H, cap=10 ** 9)
        e = ts.canonical_separability_element()
        ident = {0: 1}
        if not (mu(ts, e) == ident and ts.is_central(e)
                and idempotent_in_t(ts, e)):
            bad.append(name)
    _verdict(10, f"mu(e)=1, A-central, e.e=e on {len(reports)} pairs, "
             f"failures={bad}", not bad)


def test_criterion_11_character_table_validity(corpus_reports):
    reports, _ = corpus_reports
    groups = {}
    for _, G, _, _ in reports:
        groups.setdefault(G.name, G)
    for G in groups.values():
        tab = character_table_mod_p(G)
        tab.check_invariants(G.order)   # degree sums + row orthogonality
    checked = 0
    for _, G, H, r in reports:
        if G.order > 24:
            continue
        im = inclusion_matrix(G, H)
        for j, d in enumerate(im.col_degrees):
            assert sum(im.entries[i][j] * im.row_degrees[i]
                       for i in range(len(im.entries))) == d
        checked += 1
    s2s3 = [r for _, G, H, r in reports
            if r.group == "S3" and r.subgroup_order == 2]
    ok = (len(groups) >= 20 and checked > 80
          and len(s2s3) == 1
          and s2s3[0].inclusion_matrix == [[1, 0, 1], [0, 1, 1]])
    _verdict(11, f"tables valid for {len(groups)} groups, column sums on "
             f"{checked} pairs, S2<S3 matrix canonical", ok)


def test_criterion_12_findim_fixtures():
    t0 = time.time()
    ok = True
    # separable: T_n over k1 + strict upper triangulars
    for n in (2, 3):
        A = upper_triangular_algebra(n)
        ok &= is_separable_extension(A, strict_upper_subalgebra(A, n))[0]
    # inseparable: the structural-matrix pair
    A, incl = structural_matrix_example()
    ok &= not is_separable_extension(A, incl)[0]
    # explicit matrix-algebra witnesses all verify
    for n in (2, 3):
        A, ws = matrix_algebra_separability_witnesses(n)
        rts = RelativeTensorSquare(A, AlgebraInclusion(A, [list(A.unit)]))
        for w in ws:
            verify_separability_witness(A, rts, w)
    # monoid family: (n, n) decomposition and separable extension
    for n in (1, 2, 3):
        M, e = monoid_algebra(n)
        ok &= monoid_decomposition_dims(M, e) == (n, n)
        ok &= is_separable_extension(
            M, monoid_nilpotent_part_subalgebra(M, e))[0]
    elapsed = time.time() - t0
    ok &= elapsed < 10
    _verdict(12, f"finite-dimensional fixtures verified, "
             f"{elapsed:.1f}s < 10s", ok)


# sha256 of analyze's JSON report on C1000 over its trivial subgroup at the
# default caps, as printed before the depth scans moved onto M, the
# abelian tables got their certificate and the centralizer criteria
# passed over central elements
C1000_REPORT_SHA256 = (
    "ed7886fbd5e8017dc2d8a7245925e2618b64566adaa578dde8046a02a4a08eba")


def test_cyclic_1000_over_trivial_in_bounded_time(monkeypatch):
    """analyze_pair(C1000, 1) at the default caps prints the same report
    in bounded time: its abelian tables never reach check_invariants (c^3
    steps), no centralizer is built in the abelian G, and S and T are
    never formed.  The group build is not timed."""
    G = cyclic_group(1000)
    H = G.trivial_subgroup()
    counts = {"centralizers": 0, "bimodule": 0}

    def no_check(self, order):
        raise AssertionError("check_invariants on an abelian table")

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(chartable.CharacterTableModP, "check_invariants",
                        no_check)
    monkeypatch.setattr(permgroup, "_centralizer_indices",
                        counted("centralizers",
                                permgroup._centralizer_indices))
    monkeypatch.setattr(depth, "bimodule_matrices",
                        counted("bimodule", depth.bimodule_matrices))
    t0 = time.time()
    rep = analyze_pair(G, H)
    elapsed = time.time() - t0
    text = json.dumps(rep.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == C1000_REPORT_SHA256
    assert (rep.property_s, rep.lemma_s, rep.depth1_group, rep.s_diagonal,
            rep.t_diagonal, rep.min_depth, rep.min_h_depth) == (
                True, True, True, True, False, 1, 3)
    assert counts == {"centralizers": 0, "bimodule": 0}
    assert elapsed < 5, f"C1000/1 took {elapsed:.1f}s"
