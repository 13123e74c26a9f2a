"""The sparse findim kernels against the dense references in
findim_oracles.py: the trace form, the relations of the relative tensor
square, the separability rows and the associativity check."""

import random
from fractions import Fraction

import pytest

from findim_oracles import (dense_associativity_failure, dense_relations,
                            dense_separability_system, dense_trace_form)
from sepdepth.errors import InvalidAlgebra
from sepdepth.findim import (AlgebraInclusion, RelativeTensorSquare,
                             StructureConstantAlgebra, jordan_subalgebra,
                             matrix_algebra, monoid_algebra,
                             separability_system, strict_upper_subalgebra,
                             structural_matrix_example, trace_form,
                             upper_triangular_algebra)
from sepdepth.linalg import SparseEchelon


def _fixture_algebras():
    yield from (matrix_algebra(2), matrix_algebra(3))
    yield from (upper_triangular_algebra(n) for n in (2, 3, 4, 5))
    yield structural_matrix_example()[0]
    yield from (monoid_algebra(n)[0] for n in (1, 2, 3, 4))


def _inclusions():
    for n in (3, 4):
        A = upper_triangular_algebra(n)
        yield A, strict_upper_subalgebra(A, n)
        yield A, jordan_subalgebra(A, n)
        yield A, AlgebraInclusion(A, [list(A.unit)])
    yield structural_matrix_example()


def _reduced(ech):
    return sorted(sorted(row.items()) for row in ech.back_substitute())


@pytest.mark.parametrize("A", list(_fixture_algebras()),
                         ids=lambda A: A.name)
def test_trace_form_matches_dense_gram(A):
    assert trace_form(A) == dense_trace_form(A)


@pytest.mark.parametrize("pair", list(_inclusions()),
                         ids=lambda p: f"{p[0].name}-{p[1].sub_dimension}")
def test_tensor_square_relations_match_dense(pair):
    A, incl = pair
    rts = RelativeTensorSquare(A, incl)
    assert _reduced(rts.relations) == _reduced(dense_relations(A, incl))


@pytest.mark.parametrize("pair", list(_inclusions()),
                         ids=lambda p: f"{p[0].name}-{p[1].sub_dimension}")
def test_separability_rows_match_dense_actions(pair):
    A, incl = pair
    rts = RelativeTensorSquare(A, incl)
    sparse = separability_system(A, rts)
    dense = dense_separability_system(A, rts)
    assert sparse == dense
    assert _reduced(SparseEchelon(sparse)) == _reduced(SparseEchelon(dense))


def _perturbed(A, rng):
    mult = [[list(vec) for vec in row] for row in A.mult]
    n = A.dimension
    i, j, k = (rng.randrange(n) for _ in range(3))
    mult[i][j][k] += Fraction(rng.choice((-1, 1, 2)))
    return StructureConstantAlgebra(dimension=n, mult=mult, unit=A.unit)


def test_associativity_check_matches_dense_products():
    rng = random.Random(0)
    algebras = [upper_triangular_algebra(3), matrix_algebra(2),
                monoid_algebra(2)[0], structural_matrix_example()[0]]
    failures = 0
    for A in algebras:
        assert dense_associativity_failure(A) is None
        A.check_associative_and_unital()
        for _ in range(6):
            B = _perturbed(A, rng)
            expected = dense_associativity_failure(B)
            if expected is None:
                B.check_associative_and_unital()
                continue
            failures += 1
            with pytest.raises(InvalidAlgebra) as exc:
                B.check_associative_and_unital()
            assert str(exc.value) == expected
    assert failures >= 12
