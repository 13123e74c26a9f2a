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
from sepdepth.groupalg import is_full_in_U
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

# the U route itself
U_ROUTE = {"groupalg.is_full_in_U", "groupalg._u_images"}

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


def test_full_in_u_shares_only_group_data():
    """is_full_in_U on fresh S4 > A4, S4 > D4 and Q8 > <i> enters none of
    the depth-1 routes it is checked against, nothing in chartable or
    depth (so not the class constants class_mult_coeffs, though the b^C
    are H's class constants), and otherwise only the allow-list."""
    D4_gens = [Permutation.from_cycles(4, [[0, 1, 2, 3]]),
               Permutation.from_cycles(4, [[0, 2]])]
    pairs = []
    for gens in (alternating_group(4).generators, D4_gens):
        G = symmetric_group(4)      # fresh: no class data cached yet
        pairs.append((G, G.subgroup(gens)))
    Q = quaternion_group()
    pairs.append((Q, Q.subgroup(
        [next(p for p in Q.elements if element_order(p) == 4)])))
    verdicts = []
    for G, H in pairs:
        names = entered(lambda: verdicts.append(is_full_in_U(G, H)))
        assert U_ROUTE <= names
        assert not names & U_FORBIDDEN, names & U_FORBIDDEN
        assert not {n for n in names
                    if n.startswith(("chartable.", "depth."))}
        assert names - U_ROUTE <= set(SHARED), names - U_ROUTE - set(SHARED)
    assert verdicts == [False, False, False]
