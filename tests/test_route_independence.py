"""Route independence, traced: a fast route enters no function of the
routes it is checked against, and every sepdepth function it does share
is shared data or a shared check on a named allow-list, each entry held
by a test of its own to Permutation products (for the prime, to a
trial-division scan).  No traced route runs an echelon, so none is on
the list."""

import os
import sys
from inspect import CO_NEWLOCALS
from types import CodeType

import test_chartable
import test_permgroup
from permgroup_oracles import element_order
from sepdepth.chartable import character_table_mod_p, inclusion_matrix
from sepdepth.depth import burciu_depth1, depth_report
from sepdepth.groupalg import (TensorSquare, is_full_in_T, is_full_in_U,
                               separability_elements)
from sepdepth.permgroup import (Permutation, alternating_group,
                                conjugacy_classes, cyclic_group,
                                depth1_group, direct_product,
                                lemma_S_via_centralizers, property_S,
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
    "permgroup.FiniteGroup.mul":
        (test_permgroup, "test_index_maps_are_the_products"),
    "permgroup.right_cosets":
        (test_permgroup, "test_right_cosets_match_products"),
    "permgroup.right_transversal": (test_permgroup, "test_right_transversal"),
    "permgroup.FiniteGroup.parent":
        (test_permgroup, "test_subgroups_are_read_in_their_parents_numbering"),
    "permgroup._check_subgroup":
        (test_permgroup, "test_subgroups_are_read_in_their_parents_numbering"),
    "permgroup._Enumerated.exponent": (test_permgroup, "test_exponents"),
    "permgroup._cycle_lengths": (test_permgroup, "test_exponents"),
    "permgroup.class_data":
        (test_chartable, "test_class_data_matches_products"),
    "permgroup.ClassData.num_classes":
        (test_chartable, "test_class_data_matches_products"),
    "chartable.dixon_prime":
        (test_chartable, "test_dixon_prime_matches_a_scan"),
    "chartable._is_prime":
        (test_chartable, "test_dixon_prime_matches_a_scan"),
}

# the U and T routes themselves
U_ROUTE = {"groupalg.is_full_in_U", "groupalg._u_images",
           "groupalg._read_off"}
T_ROUTE = {"groupalg.is_full_in_T", "groupalg._teT_images",
           "groupalg._read_off"}

# the separability solve on a tensor square built inside the trace, and
# property S, checked against each other in analyze_pair
SEP_ROUTE = {"groupalg.separability_elements", "groupalg.TensorSquare.__init__",
             "groupalg.TensorSquare.casimir",
             "groupalg.TensorSquare.casimir_basis",
             "groupalg.TensorSquare.canonical_separability_element",
             "groupalg.TensorSquare.is_central",
             "groupalg.TensorSquare._conj_index"}
PROPERTY_S_ROUTE = {"permgroup.property_S"}

# the abelian table route with its certificate, and the Dixon route and
# its check, which the abelian tables are checked against
TABLE_ROUTE = {"chartable.character_table_mod_p", "chartable._abelian_rows",
               "chartable._certify_abelian"}
DIXON_ROUTE = {"chartable._dixon_rows", "chartable.class_mult_coeffs",
               "chartable._split_piece", "chartable._character_row",
               "chartable._lift_sqrt",
               "chartable.CharacterTableModP.check_invariants"}

# the centralizer route to property S, and the orbit route it is checked
# against in analyze_pair
LEMMA_S_ROUTE = {"permgroup.lemma_S_via_centralizers",
                 "permgroup._centralizer_indices", "permgroup._covers_cosets",
                 "permgroup._central_indices"}
LEMMA_S_FORBIDDEN = {"permgroup.property_S", "permgroup.h_orbits",
                     "permgroup._conjugation_orbits"}

# Burciu's test and the centralizer route to depth 1, checked against
# each other in depth1_agreement
BURCIU_ROUTE = {"depth.burciu_depth1"}
DEPTH1_ROUTE = {"permgroup.depth1_group", "permgroup._centralizer_indices",
                "permgroup._covers_cosets", "permgroup._central_indices"}

# the routes is_full_in_U is checked against in analyze_pair
U_FORBIDDEN = {"permgroup.depth1_group", "depth.burciu_depth1",
               "permgroup.lemma_S_via_centralizers",
               "permgroup._centralizer_indices", "permgroup._covers_cosets",
               "permgroup._central_indices"}


def _source_qualnames(path):
    """(first line, name) -> qualname, cut at any '.<locals>', of each
    code object compiled from the source file at path: a function or
    class is named after the classes around it, and everything inside a
    function takes that function's name.  These are the names that
    co_qualname (Python 3.11 and later) gives, read without it."""
    names = {}

    def walk(code, prefix, in_function):
        for c in code.co_consts:
            if isinstance(c, CodeType):
                name = prefix if in_function else prefix + c.co_name
                names[c.co_firstlineno, c.co_name] = name
                function = in_function or bool(c.co_flags & CO_NEWLOCALS)
                walk(c, name if function else name + ".", function)

    with open(path) as f:
        walk(compile(f.read(), path, "exec"), "", False)
    return names


_QUALNAMES = {}     # source path -> _source_qualnames(path)


def entered(call):
    """The sepdepth functions entered by call(), as 'module.qualname' with
    the package and any nested '<locals>' part dropped.  Only code
    compiled from sepdepth's source files counts, not code a library
    generates at run time (a dataclass's __init__)."""
    names = set()

    def profile(frame, event, arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if module.startswith("sepdepth."):
                code = frame.f_code
                path = code.co_filename
                if path not in _QUALNAMES:
                    _QUALNAMES[path] = (_source_qualnames(path)
                                        if os.path.isfile(path) else {})
                qualname = _QUALNAMES[path].get(
                    (code.co_firstlineno, code.co_name))
                if qualname is not None:
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


def assert_shares_only_group_data(test, route, forbidden=frozenset(),
                                  pairs=None,
                                  modules=("chartable.", "depth.")):
    """test(G, H) on each fresh pair (by default fresh_pairs()) enters all
    of route, nothing in modules, none of forbidden, and otherwise only
    the allow-list; returns the verdicts."""
    verdicts = []
    for G, H in pairs or fresh_pairs():
        names = entered(lambda: verdicts.append(test(G, H)))
        assert route <= names
        assert not names & forbidden, names & forbidden
        assert not {n for n in names if n.startswith(modules)}
        assert names - route <= set(SHARED), names - route - set(SHARED)
    return verdicts


def test_full_in_u_shares_only_group_data():
    """is_full_in_U enters none of the depth-1 routes it is checked
    against, nothing in chartable or depth (so not the class constants
    class_mult_coeffs, though the b^C are H's class constants), and
    otherwise only the allow-list."""
    assert assert_shares_only_group_data(
        is_full_in_U, U_ROUTE, U_FORBIDDEN) == [False, False, False]


def holding_pairs():
    """The fresh pairs, where the depth-1 criteria fail, then S3 x C2 > S3
    and S4 > S4, where they hold, each in a fresh group."""
    GX = direct_product(symmetric_group(3), cyclic_group(2))
    S4 = symmetric_group(4)
    return fresh_pairs() + [(GX, GX.subgroup(GX.generators[:2])),
                            (S4, S4.full_subgroup())]


def test_lemma_s_shares_only_group_data():
    """lemma_S_via_centralizers searches its own H-orbit representatives:
    it enters none of property_S, h_orbits or _conjugation_orbits, the
    route it is checked against, nothing in chartable, depth or groupalg,
    and otherwise only the allow-list.  Besides the fresh pairs, where it
    fails, it runs on S3 x C2 > S3 and S4 > S4, where it holds at every
    representative."""
    assert assert_shares_only_group_data(
        lemma_S_via_centralizers, LEMMA_S_ROUTE, LEMMA_S_FORBIDDEN,
        holding_pairs(), ("chartable.", "depth.", "groupalg.")
    ) == [False] * 3 + [True] * 2


def test_depth1_routes_share_only_group_data():
    """depth1_agreement compares burciu_depth1 with depth1_group: Burciu's
    test compares the class partitions and enters none of the centralizer
    route, nothing in chartable or groupalg, nothing in depth but itself
    (the allow-list holds no depth function), and otherwise only the
    allow-list; depth1_group enters nothing of Burciu's test."""
    verdicts = [False] * 3 + [True] * 2
    assert assert_shares_only_group_data(
        burciu_depth1, BURCIU_ROUTE, DEPTH1_ROUTE, holding_pairs(),
        ("chartable.", "groupalg.")) == verdicts
    assert assert_shares_only_group_data(
        depth1_group, DEPTH1_ROUTE, BURCIU_ROUTE, holding_pairs(),
        ("chartable.", "depth.", "groupalg.")) == verdicts


def test_full_in_t_shares_only_group_data():
    """is_full_in_T enters nothing in chartable or depth, where the
    t_diagonal and min_h_depth routes it is checked against run, and
    otherwise only the allow-list."""
    assert assert_shares_only_group_data(
        is_full_in_T, T_ROUTE) == [False, False, False]


def test_abelian_table_shares_only_group_data():
    """character_table_mod_p on fresh abelian groups (C12, the elementary
    abelian group of order 27, and C2 x C4 inside S6) takes the abelian
    route and its certificate, enters nothing of the Dixon route or its
    check_invariants, which it is checked against, and otherwise only
    the allow-list."""
    C3 = cyclic_group(3)
    S6 = symmetric_group(6)
    for G in (cyclic_group(12), direct_product(direct_product(C3, C3), C3),
              S6.subgroup([Permutation.from_cycles(6, [[0, 1]]),
                           Permutation.from_cycles(6, [[2, 3, 4, 5]])])):
        names = entered(lambda: character_table_mod_p(G))
        assert TABLE_ROUTE <= names
        assert not names & DIXON_ROUTE, names & DIXON_ROUTE
        assert names - TABLE_ROUTE <= set(SHARED), \
            names - TABLE_ROUTE - set(SHARED)


def test_separability_and_property_s_share_only_group_data():
    """property_s_vs_unique_separable compares property_S with the kind
    separability_elements returns.  The solve, with its tensor square
    built inside the trace, searches its own H-orbits: it enters none of
    property_S, h_orbits or _conjugation_orbits, nothing in chartable or
    depth, and otherwise only the allow-list.  property_S enters nothing
    in groupalg, so nothing of TensorSquare or the solve.  G's classes are
    group data that both read; they are computed before the solve is
    traced, as analyze_pair computes them before it builds the tensor
    square."""
    pairs = holding_pairs()
    for G, _ in pairs:
        conjugacy_classes(G)
    kinds = assert_shares_only_group_data(
        lambda G, H: separability_elements(TensorSquare(G, H))[0], SEP_ROUTE,
        LEMMA_S_FORBIDDEN | PROPERTY_S_ROUTE, pairs)
    assert kinds == ["infinite"] * 3 + ["unique"] * 2
    assert assert_shares_only_group_data(
        property_S, PROPERTY_S_ROUTE, SEP_ROUTE, holding_pairs(),
        ("chartable.", "depth.", "groupalg.")) == [False] * 3 + [True] * 2


# the matrix side of depth1_agreement: both tables, the inclusion matrix
# and the scans on M that give s_diagonal and min_depth
MATRIX_ROUTE = (TABLE_ROUTE | DIXON_ROUTE
                | {"chartable.common_prime", "chartable.inclusion_matrix",
                   "chartable.InclusionMatrix.as_lists",
                   "chartable.CharacterTableModP.num_chars",
                   "depth.depth_report", "depth._check", "depth._support",
                   "depth._or_over", "depth._scan"})


def test_matrix_depth1_shares_nothing_with_the_group_routes():
    """s_diagonal and min_depth == 1, read off the inclusion matrix, enter
    nothing of depth1_group or burciu_depth1, which depth1_agreement
    checks them against, and outside the table, inclusion-matrix and scan
    routes only the allow-list; both table routes run on these pairs.
    The verdicts are the group routes' ones."""
    verdicts, seen = [], set()
    for G, H in holding_pairs():
        def matrix_side():
            dep = depth_report(inclusion_matrix(G, H).as_lists())
            verdicts.append((dep.s_diagonal, dep.min_depth == 1))

        names = entered(matrix_side)
        seen |= names
        assert {"depth.depth_report", "depth._scan",
                "chartable.inclusion_matrix"} <= names
        assert not names & (DEPTH1_ROUTE | BURCIU_ROUTE)
        assert names - MATRIX_ROUTE <= set(SHARED), \
            names - MATRIX_ROUTE - set(SHARED)
    assert {"chartable._certify_abelian", "chartable._dixon_rows"} <= seen
    assert verdicts == [(False, False)] * 3 + [(True, True)] * 2
