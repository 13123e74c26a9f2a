"""Property tests on random small permutation groups (needs hypothesis)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from groupalg_oracles import (is_full_in_T_by_elimination,  # noqa: E402
                              is_full_in_U_by_elimination, mu_system)
from permgroup_oracles import (depth1_all_elements,  # noqa: E402
                               depth1_by_products, lemma_S_all_elements,
                               lemma_S_by_products)
from sepdepth.chartable import inclusion_matrix  # noqa: E402
from sepdepth.depth import (bimodule_matrices, is_diagonal,  # noqa: E402
                            min_depth, min_h_depth)
from sepdepth.groupalg import (TensorSquare, is_full_in_T,  # noqa: E402
                               is_full_in_U, separability_elements)
from sepdepth.permgroup import (FiniteGroup, Permutation,  # noqa: E402
                                depth1_group, lemma_S_via_centralizers)


@st.composite
def group_pairs(draw):
    """G generated by 1-2 random permutations of at most 4 points, and H
    generated by 1-2 random elements of G."""
    perms = st.permutations(range(4)).map(Permutation)
    G = FiniteGroup(draw(st.lists(perms, min_size=1, max_size=2)))
    sub = draw(st.lists(st.sampled_from(G.elements), min_size=1,
                        max_size=2))
    return G, G.subgroup(sub)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(group_pairs())
def test_full_in_t_iff_h_depth_one(pair):
    """e full in T, T diagonal and H-depth 1 are one condition."""
    G, H = pair
    M = inclusion_matrix(G, H).as_lists()
    _, T = bimodule_matrices(M)
    assert is_full_in_T(G, H) == is_diagonal(T) == (min_h_depth(M) == 1)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(group_pairs())
def test_full_in_u_iff_depth_one(pair):
    """E full in U, H C_G(h) = G for all h in H, S diagonal and depth 1 are
    one condition."""
    G, H = pair
    M = inclusion_matrix(G, H).as_lists()
    S, _ = bimodule_matrices(M)
    assert is_full_in_U(G, H) == depth1_group(G, H) == is_diagonal(S) \
        == (min_depth(M) == 1)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(group_pairs())
def test_fullness_read_off_matches_elimination(pair):
    """Fullness in T and in U read off the identity-class row equals the
    echelon over every class count."""
    G, H = pair
    assert is_full_in_T(G, H) == is_full_in_T_by_elimination(G, H)
    assert is_full_in_U(G, H) == is_full_in_U_by_elimination(G, H)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(group_pairs())
def test_centralizer_criteria_match_products(pair):
    """The coset-label criteria, at one element per H-orbit or class of H,
    equal the coset test at every element and the product-set oracles."""
    G, H = pair
    assert lemma_S_via_centralizers(G, H) == lemma_S_all_elements(G, H) \
        == lemma_S_by_products(G, H)
    assert depth1_group(G, H) == depth1_all_elements(G, H) \
        == depth1_by_products(G, H)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(group_pairs())
def test_separability_closed_form_matches_mu_system(pair):
    """The kind, kernel dimension and Casimir count that
    separability_elements reads off the orbit sizes equal those of the
    |G|-row mu system over the searched Casimir orbits."""
    G, H = pair
    ts = TensorSquare(G, H, cap=G.order ** 2)
    kind, _, kdim = separability_elements(ts)
    assert (kind, kdim, len(ts.casimir)) == mu_system(ts)
