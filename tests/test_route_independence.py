"""Route independence, traced: a fast route enters no function of the
routes it is checked against, and every sepdepth function it does share
is shared group data on a named allow-list, each entry held to
Permutation products (or, for the echelon, to sympy) by a test of its
own."""

import sys

import test_groupalg
import test_linalg
import test_permgroup
from permgroup_oracles import element_order
from sepdepth.groupalg import is_full_in_T, is_full_in_U
from sepdepth.permgroup import (Permutation, alternating_group,
                                quaternion_group, symmetric_group)

# shared function -> (test module, test) that holds it to an oracle
SHARED = {
    "permgroup.conjugacy_classes":
        (test_permgroup, "test_classes_and_orbits_match_products"),
    "permgroup.h_classes":
        (test_permgroup, "test_classes_and_orbits_match_products"),
    "permgroup.h_orbits":
        (test_permgroup, "test_classes_and_orbits_match_products"),
    "permgroup._conjugation_orbits":
        (test_permgroup, "test_classes_and_orbits_match_products"),
    "permgroup.index_orbits":
        (test_permgroup, "test_classes_and_orbits_match_products"),
    "permgroup._search":
        (test_permgroup, "test_classes_and_orbits_match_products"),
    "permgroup.part_labels":
        (test_permgroup, "test_classes_and_orbits_match_products"),
    "permgroup._conjugation_maps":
        (test_permgroup, "test_conjugation_maps_are_the_products"),
    "permgroup.FiniteGroup.right_map":
        (test_permgroup, "test_index_maps_are_the_products"),
    "permgroup.FiniteGroup.left_map":
        (test_permgroup, "test_index_maps_are_the_products"),
    "permgroup.FiniteGroup.parent":
        (test_permgroup, "test_subgroups_are_read_in_their_parents_numbering"),
    "permgroup._check_subgroup":
        (test_permgroup, "test_subgroups_are_read_in_their_parents_numbering"),
    "groupalg._one_in_span":
        (test_groupalg, "test_one_in_span_is_rank_membership"),
    "linalg.SparseEchelon.__init__":
        (test_linalg, "test_dense_routines_match_sympy"),
    "linalg.SparseEchelon.add":
        (test_linalg, "test_dense_routines_match_sympy"),
    "linalg.SparseEchelon.contains":
        (test_linalg, "test_sparse_echelon_membership"),
    "linalg.SparseEchelon.reduce":
        (test_linalg, "test_integer_normal_form_matches_fraction_span"),
}

# the U and T routes themselves
U_ROUTE = {"groupalg.is_full_in_U", "groupalg._u_images"}
T_ROUTE = {"groupalg.is_full_in_T", "groupalg._teT_images"}

# the routes is_full_in_U is checked against in analyze_pair
U_FORBIDDEN = {"permgroup.depth1_group", "depth.burciu_depth1",
               "permgroup.lemma_S_via_centralizers",
               "permgroup._centralizer_indices", "permgroup._covers_cosets"}


def entered(call):
    """The sepdepth functions entered by call(), as 'module.qualname' with
    the package and any nested '<locals>' part dropped."""
    names = set()

    def profile(frame, event, arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if module.startswith("sepdepth."):
                qualname = frame.f_code.co_qualname.split(".<locals>")[0]
                names.add(f"{module[len('sepdepth.'):]}.{qualname}")

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return names


def test_shared_functions_have_oracles():
    for name, (module, test) in SHARED.items():
        assert callable(getattr(module, test, None)), name


def fresh_pairs():
    """S4 > A4, S4 > D4 and Q8 > <i>, each in a group with no class data
    cached yet."""
    D4_gens = [Permutation.from_cycles(4, [[0, 1, 2, 3]]),
               Permutation.from_cycles(4, [[0, 2]])]
    pairs = []
    for gens in (alternating_group(4).generators, D4_gens):
        G = symmetric_group(4)
        pairs.append((G, G.subgroup(gens)))
    Q = quaternion_group()
    pairs.append((Q, Q.subgroup(
        [next(p for p in Q.elements if element_order(p) == 4)])))
    return pairs


def assert_shares_only_group_data(test, route, forbidden=frozenset()):
    """test(G, H) on each fresh pair enters all of route, nothing in
    chartable or depth, none of forbidden, and otherwise only the
    allow-list; returns the verdicts."""
    verdicts = []
    for G, H in fresh_pairs():
        names = entered(lambda: verdicts.append(test(G, H)))
        assert route <= names
        assert not names & forbidden, names & forbidden
        assert not {n for n in names
                    if n.startswith(("chartable.", "depth."))}
        assert names - route <= set(SHARED), names - route - set(SHARED)
    return verdicts


def test_full_in_u_shares_only_group_data():
    """is_full_in_U enters none of the depth-1 routes it is checked
    against, nothing in chartable or depth (so not the class constants
    class_mult_coeffs, though the b^C are H's class constants), and
    otherwise only the allow-list."""
    assert assert_shares_only_group_data(
        is_full_in_U, U_ROUTE, U_FORBIDDEN) == [False, False, False]


def test_full_in_t_shares_only_group_data():
    """is_full_in_T enters nothing in chartable or depth, where the
    t_diagonal and min_h_depth routes it is checked against run, and
    otherwise only the allow-list."""
    assert assert_shares_only_group_data(
        is_full_in_T, T_ROUTE) == [False, False, False]
