from fractions import Fraction

import pytest

from findim_oracles import (matrix_algebra_separability_witnesses,
                            monoid_decomposition_dims)
from sepdepth import findim
from sepdepth.errors import (CheckFailed, InvalidAlgebra, InvalidArgument,
                             UnitMissing)
from sepdepth.findim import (AlgebraInclusion, RelativeTensorSquare,
                             StructureConstantAlgebra,
                             _check_nilpotent_ideal, _matrix_span_algebra,
                             is_separable_extension, jordan_subalgebra,
                             matrix_algebra, monoid_algebra,
                             monoid_nilpotent_part_subalgebra, prop_rad_check,
                             radical, strict_upper_subalgebra,
                             structural_matrix_example, subalgebra_closure,
                             upper_triangular_algebra,
                             verify_separability_witness)
from sepdepth.linalg import to_dense


def ground_field_inclusion(A):
    return AlgebraInclusion(A, [list(A.unit)])


def test_algebra_fixtures_are_unital_associative():
    for A in (matrix_algebra(2), matrix_algebra(3),
              upper_triangular_algebra(3), monoid_algebra(2)[0],
              structural_matrix_example()[0]):
        A.check_associative_and_unital()


def test_radical_dimensions():
    assert radical(matrix_algebra(2)) == []
    assert radical(matrix_algebra(3)) == []
    # T_n: radical is the strictly upper triangular part
    assert len(radical(upper_triangular_algebra(2))) == 1
    assert len(radical(upper_triangular_algebra(3))) == 3
    assert len(radical(upper_triangular_algebra(4))) == 6
    A, _ = structural_matrix_example()
    assert len(radical(A)) == 5
    # monoid algebra: f^(2n) = f^n gives a repeated root 0, so the
    # radical is span{f^k - f^(n+k)} of dimension n - 1
    for n in (1, 2, 3):
        M, _ = monoid_algebra(n)
        assert len(radical(M)) == n - 1


def test_matrix_algebra_separable_over_ground_field():
    for n in (2, 3):
        A = matrix_algebra(n)
        sep, witness = is_separable_extension(A, ground_field_inclusion(A))
        assert sep and witness is not None


def test_triangular_separable_over_strict_upper():
    for n in (2, 3):
        A = upper_triangular_algebra(n)
        incl = strict_upper_subalgebra(A, n)
        assert incl.sub_dimension == 1 + n * (n - 1) // 2
        sep, witness = is_separable_extension(A, incl)
        assert sep
        rts = RelativeTensorSquare(A, incl)
        verify_separability_witness(A, rts, witness)


def test_jordan_subalgebra_tower():
    A = upper_triangular_algebra(3)
    incl = jordan_subalgebra(A, 3)
    assert incl.sub_dimension == 3
    sep, _ = is_separable_extension(A, incl)
    assert sep


def test_structural_example_inseparable():
    A, incl = structural_matrix_example()
    assert A.dimension == 9
    assert incl.sub_dimension == 4
    sep, witness = is_separable_extension(A, incl)
    assert not sep and witness is None
    # J(B) is not an ideal of A here, so the radical test says nothing
    assert prop_rad_check(A, incl) == "not-applicable"


def test_prop_rad_agrees_when_applicable():
    A = upper_triangular_algebra(3)
    incl = strict_upper_subalgebra(A, 3)
    assert prop_rad_check(A, incl) == "separable"
    # B = ground field: J(B) = 0 is an ideal, J(A) != 0
    assert prop_rad_check(A, ground_field_inclusion(A)) == "inseparable"
    M2 = matrix_algebra(2)
    assert prop_rad_check(M2, ground_field_inclusion(M2)) == "separable"


def test_monoid_fixture():
    for n in (1, 2, 3):
        M, e = monoid_algebra(n)
        assert M.dimension == 2 * n
        assert M.multiply(e, e) == e
        assert monoid_decomposition_dims(M, e) == (n, n)
        incl = monoid_nilpotent_part_subalgebra(M, e)
        sep, witness = is_separable_extension(M, incl)
        assert sep and witness is not None


def test_monoid_algebra_needs_n_at_least_1():
    with pytest.raises(InvalidArgument):
        monoid_algebra(0)


def test_triangular_subalgebras_for_two_digit_n():
    """Positions come from T_n's unit pattern, not from the labels, which
    are ambiguous once n >= 10 (e111 could be (1, 11) or (11, 1))."""
    A = upper_triangular_algebra(10)
    assert strict_upper_subalgebra(A, 10).sub_dimension == 1 + 45
    assert jordan_subalgebra(A, 10).sub_dimension == 10
    with pytest.raises(InvalidAlgebra):
        strict_upper_subalgebra(upper_triangular_algebra(3), 4)


def test_building_t20_makes_no_dense_structure_constants(monkeypatch):
    """T_20 and its subalgebra hand their tables over sparse: findim
    densifies only the unit and the subalgebra basis, not one list per
    product b_i b_j (44100 of them)."""
    calls = []

    def counted(vec, n):
        calls.append(n)
        return to_dense(vec, n)

    monkeypatch.setattr(findim, "to_dense", counted)
    A = upper_triangular_algebra(20)
    assert strict_upper_subalgebra(A, 20).sub_dimension == 1 + 190
    assert len(calls) < 2 * A.dimension


def test_matrix_witnesses_verify():
    for n in (2, 3):
        A, witnesses = matrix_algebra_separability_witnesses(n)
        rts = RelativeTensorSquare(A, ground_field_inclusion(A))
        assert len(witnesses) == n
        for w in witnesses:
            verify_separability_witness(A, rts, w)
        # distinct witnesses show non-uniqueness over the ground field
        assert witnesses[0] != witnesses[1]


def test_witness_check_rejects_a_non_central_tensor():
    """Adding e12 (x) e11 to an M_2 witness over the ground field keeps
    mu = 1 (e12 e11 = 0) but breaks centrality."""
    A, witnesses = matrix_algebra_separability_witnesses(2)
    rts = RelativeTensorSquare(A, ground_field_inclusion(A))
    n, lab = A.dimension, {l: i for i, l in enumerate(A.labels)}
    bad = list(witnesses[0])
    bad[lab["e12"] * n + lab["e11"]] += 1
    with pytest.raises(CheckFailed, match="centrality"):
        verify_separability_witness(A, rts, bad)


def test_witness_check_works_modulo_the_relations():
    """Over B = k1 + strict upper triangulars in T_3: e22 (x) e11 has
    e22 e11 = 0 but is not central, while e12 (x) e11 = e11 (x) e12 e11 = 0
    in A (x)_B A, since e12 lies in B; the check sees both."""
    A = upper_triangular_algebra(3)
    incl = strict_upper_subalgebra(A, 3)
    sep, witness = is_separable_extension(A, incl)
    assert sep
    rts = RelativeTensorSquare(A, incl)
    n, lab = A.dimension, {l: i for i, l in enumerate(A.labels)}
    zero_in_quotient = list(witness)
    zero_in_quotient[lab["e12"] * n + lab["e11"]] += 1
    verify_separability_witness(A, rts, zero_in_quotient)
    bad = list(witness)
    bad[lab["e22"] * n + lab["e11"]] += 1
    with pytest.raises(CheckFailed, match="centrality"):
        verify_separability_witness(A, rts, bad)


def test_checks_raise_package_errors():
    """Validation and result checks raise, so they hold under python -O."""
    A, witnesses = matrix_algebra_separability_witnesses(2)
    rts = RelativeTensorSquare(A, ground_field_inclusion(A))
    with pytest.raises(CheckFailed, match="mu"):
        verify_separability_witness(A, rts, [2 * x for x in witnesses[0]])
    with pytest.raises(CheckFailed, match="ideal"):
        _check_nilpotent_ideal(A, [list(A.unit)])
    one, x = {0: Fraction(1)}, {1: Fraction(1)}
    with pytest.raises(InvalidAlgebra, match="unit"):
        StructureConstantAlgebra(dimension=2, table=[[one, x], [x, one]],
                                 unit=[0, 1]).check_associative_and_unital()
    e11, e12, e21 = ({(0, 0): 1}, {(0, 1): 1}, {(1, 0): 1})
    with pytest.raises(InvalidAlgebra, match="independent"):
        _matrix_span_algebra(2, [e12, {(0, 1): 2}])
    with pytest.raises(InvalidAlgebra, match="span"):
        _matrix_span_algebra(2, [e11, e12, e21])


def test_subalgebra_closure():
    A = upper_triangular_algebra(3)
    lab = {l: i for i, l in enumerate(A.labels)}

    def unit_at(name):
        v = [Fraction(0)] * A.dimension
        v[lab[name]] = Fraction(1)
        return v

    incl = subalgebra_closure(A, [list(A.unit), unit_at("e12")])
    assert incl.sub_dimension == 2
    # e12 and e23 generate e13 as well
    incl2 = subalgebra_closure(
        A, [list(A.unit), unit_at("e12"), unit_at("e23")])
    assert incl2.sub_dimension == 4
    with pytest.raises(UnitMissing):
        subalgebra_closure(A, [unit_at("e12")])


def test_tower_of_separable_extensions():
    """B <= C <= A with A/C and C/B separable stays consistent: here the
    composite A/B is separable too."""
    A = upper_triangular_algebra(3)
    C_incl = strict_upper_subalgebra(A, 3)
    assert is_separable_extension(A, C_incl)[0]
    B_incl = subalgebra_closure(A, [list(A.unit)])
    assert B_incl.sub_dimension == 1
    # A over the ground field is NOT separable (radical nonzero) ...
    assert not is_separable_extension(A, B_incl)[0]
    # ... which is consistent: C over the ground field is not separable
    # either, so the tower never promised anything.
    assert prop_rad_check(A, B_incl) == "inseparable"
