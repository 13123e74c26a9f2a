"""Property tests on random subalgebras of T_3 and T_4 (needs
hypothesis): the separability solver agrees with the radical criterion
J(A) = J(B) wherever the criterion applies, the criterion's verdict does
not depend on the order of its tests, and the sparse closure, ideal and
matrix-span kernels agree with their dense references."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from findim_oracles import (dense_is_closed, dense_is_ideal,  # noqa: E402
                            dense_matrix_span, ideal_first_verdict)
from sepdepth.findim import (_is_ideal, _matrix_span_algebra,  # noqa: E402
                             _sub_radical, is_separable_extension,
                             prop_rad_check, radical, subalgebra_closure,
                             upper_triangular_algebra)
from sepdepth.linalg import to_sparse  # noqa: E402

ALGEBRAS = {n: upper_triangular_algebra(n) for n in (3, 4)}


@st.composite
def triangular_subalgebras(draw):
    """The closure of 1 and 1-2 random 0/1 upper-triangular matrices in
    T_n, n = 3 or 4, in T_n's matrix-unit coordinates."""
    A = ALGEBRAS[draw(st.sampled_from((3, 4)))]
    gens = st.lists(st.integers(0, 1), min_size=A.dimension,
                    max_size=A.dimension)
    vectors = draw(st.lists(gens, min_size=1, max_size=2))
    return A, subalgebra_closure(A, [list(A.unit)] + vectors)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(triangular_subalgebras())
def test_solver_agrees_with_radical_criterion(pair):
    A, incl = pair
    separable, witness = is_separable_extension(A, incl)
    assert (witness is not None) == separable
    verdict = prop_rad_check(A, incl)
    # one verdict with or without J(A) handed in, and in either test order
    assert verdict == prop_rad_check(A, incl, radical(A))
    assert verdict == ideal_first_verdict(A, incl)
    if verdict != "not-applicable":
        assert separable == (verdict == "separable")


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(triangular_subalgebras())
def test_sparse_kernels_match_dense(pair):
    A, incl = pair
    assert dense_is_closed(A, incl.sub_basis)
    JB = _sub_radical(A, incl)
    assert _is_ideal(A, JB) == dense_is_ideal(A, JB)
    # B as the matrix span of its basis inside M_n
    n = A.embedding_size
    units = [(i, j) for i in range(n) for j in range(i, n)]
    mats = [{units[k]: c for k, c in enumerate(v) if c}
            for v in incl.sub_basis]
    B = _matrix_span_algebra(n, mats)
    mult, unit, coords = dense_matrix_span(n, mats)
    assert B.table == [[to_sparse(v) for v in row] for row in mult]
    assert B.unit == unit
    for mat in mats:
        v = [mat.get((i, j), 0) for i in range(n) for j in range(n)]
        assert B.flat_coords(v) == coords(v)
