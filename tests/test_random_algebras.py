"""Property tests on random subalgebras of T_3 and T_4 (needs
hypothesis): the separability solver agrees with the radical criterion
J(A) = J(B) wherever the criterion applies."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sepdepth.findim import (is_separable_extension,  # noqa: E402
                             prop_rad_check, subalgebra_closure,
                             upper_triangular_algebra)

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
    if verdict != "not-applicable":
        assert separable == (verdict == "separable")
