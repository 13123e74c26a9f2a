"""The sparse findim kernels against the dense references in
findim_oracles.py: the trace form, the relations of the relative tensor
square, the separability rows, the associativity check, the closure,
ideal and nilpotency checks and the matrix-span construction."""

import random
from fractions import Fraction

import pytest

from findim_oracles import (dense_associativity_failure, dense_is_closed,
                            dense_is_ideal, dense_is_nilpotent,
                            dense_matrix_span, dense_relations,
                            dense_separability_system, dense_trace_form,
                            unit_vec)
from sepdepth.errors import CheckFailed, InvalidAlgebra
from sepdepth.findim import (AlgebraInclusion, RelativeTensorSquare,
                             StructureConstantAlgebra, _check_nilpotent_ideal,
                             _is_ideal, _matrix_span_algebra, _unit_vec,
                             jordan_subalgebra, matrix_algebra,
                             monoid_algebra,
                             monoid_nilpotent_part_subalgebra, radical,
                             separability_system,
                             strict_upper_subalgebra,
                             structural_matrix_example, subalgebra_closure,
                             trace_form, upper_triangular_algebra)
from sepdepth.linalg import SparseEchelon, to_sparse


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
    A = upper_triangular_algebra(5)
    yield A, strict_upper_subalgebra(A, 5)
    M, e = monoid_algebra(3)
    yield M, monoid_nilpotent_part_subalgebra(M, e)
    # every pair above has relations with coefficients +-1 only; this B
    # gives +-2 as well
    A = upper_triangular_algebra(3)
    yield A, AlgebraInclusion(A, [list(A.unit), [0, 1, 2, 0, 0, 0]])


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


def test_tensor_square_adds_only_distinct_nonzero_relations(monkeypatch):
    """On T_6 over k1 + strict upper triangulars, the n*m*n = 7056
    relation triples (441 of them, those with b = 1, left out as zero)
    hold 630 distinct nonzero relations for rank 390; fewer than 3 adds
    per rank step reach the echelon."""
    A = upper_triangular_algebra(6)
    incl = strict_upper_subalgebra(A, 6)
    adds = []
    original = SparseEchelon.add

    def counting(self, vec):
        adds.append(vec)
        return original(self, vec)

    monkeypatch.setattr(SparseEchelon, "add", counting)
    rts = RelativeTensorSquare(A, incl)
    assert rts.relations.rank == 390
    assert len(adds) < 3 * rts.relations.rank
    assert all(adds)
    assert len({frozenset(rel.items()) for rel in adds}) == len(adds)


@pytest.mark.parametrize("pair", list(_inclusions()),
                         ids=lambda p: f"{p[0].name}-{p[1].sub_dimension}")
def test_separability_rows_match_dense_actions(pair):
    A, incl = pair
    rts = RelativeTensorSquare(A, incl)
    sparse = separability_system(A, rts)
    dense = dense_separability_system(A, rts)
    assert sparse == dense
    assert _reduced(SparseEchelon(sparse)) == _reduced(SparseEchelon(dense))


@pytest.mark.parametrize("A", list(_fixture_algebras()),
                         ids=lambda A: A.name)
def test_multiply_on_int_unit_vectors_matches_fraction_ones(A):
    """The witness check multiplies int unit vectors: each product equals
    the one on the oracle's Fraction unit vectors and the table's entry,
    and is all int on an all-int table."""
    n = A.dimension
    int_table = all(type(c) is int
                    for row in A.table for vec in row for c in vec.values())
    for i in range(n):
        for j in range(n):
            product = A.multiply(_unit_vec(n, i), _unit_vec(n, j))
            assert product == A.multiply(unit_vec(n, i), unit_vec(n, j))
            assert to_sparse(product) == A.table[i][j]
            if int_table:
                assert all(type(x) is int for x in product)


def _perturbed(A, rng):
    table = [[dict(vec) for vec in row] for row in A.table]
    n = A.dimension
    i, j, k = (rng.randrange(n) for _ in range(3))
    vec = table[i][j]
    vec[k] = vec.get(k, 0) + Fraction(rng.choice((-1, 1, 2)))
    if not vec[k]:
        del vec[k]
    return StructureConstantAlgebra(dimension=n, table=table, unit=A.unit)


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


def _candidates(A, rng):
    """Subspaces to test the checks on: the radical, the whole algebra
    (an ideal that is not nilpotent), the unit, single basis vectors and
    random 0/1 combinations of them."""
    n = A.dimension
    units = [unit_vec(n, i) for i in range(n)]
    yield radical(A)
    yield units
    yield [list(A.unit)]
    yield from ([u] for u in units)
    for _ in range(8):
        yield [[Fraction(rng.randint(0, 1)) for _ in range(n)]
               for _ in range(rng.randint(1, 3))]


def _nilpotent_ideal_failure(A, basis):
    """The message _check_nilpotent_ideal should raise, or None."""
    if basis and not dense_is_ideal(A, basis):
        return "radical candidate is not an ideal"
    if not dense_is_nilpotent(A, basis):
        return "radical candidate is not nilpotent"
    return None


@pytest.mark.parametrize("A", list(_fixture_algebras()),
                         ids=lambda A: A.name)
def test_ideal_and_nilpotency_checks_match_dense(A):
    rng = random.Random(A.name)
    raised = set()
    for basis in _candidates(A, rng):
        assert _is_ideal(A, basis) == dense_is_ideal(A, basis)
        expected = _nilpotent_ideal_failure(A, basis)
        if expected is None:
            _check_nilpotent_ideal(A, basis)
            continue
        raised.add(expected.split()[-1])
        with pytest.raises(CheckFailed) as exc:
            _check_nilpotent_ideal(A, basis)
        assert str(exc.value) == expected
    # the unit span is not an ideal, the whole algebra is a non-nilpotent
    # ideal
    assert raised == {"ideal", "nilpotent"}


@pytest.mark.parametrize("A", list(_fixture_algebras()),
                         ids=lambda A: A.name)
def test_closure_check_matches_dense(A):
    rng = random.Random(A.name)
    outcomes = set()
    for basis in _candidates(A, rng):
        vectors = [list(A.unit)] + basis
        closed = dense_is_closed(A, vectors)
        outcomes.add(closed)
        if closed:
            AlgebraInclusion(A, vectors)
        else:
            with pytest.raises(ValueError, match="not closed"):
                AlgebraInclusion(A, vectors)
        closure = subalgebra_closure(A, vectors)
        assert dense_is_closed(A, closure.sub_basis)
        assert SparseEchelon(map(to_sparse, closure.sub_basis)).rank >= (
            SparseEchelon(map(to_sparse, vectors)).rank)
    # a subspace of dimension 2 or 3 with the unit is closed in T_2 and in
    # the dimension-2 monoid algebra, since x^2 lies in span(1, x)
    assert outcomes == {True, False} or A.dimension <= 3


def _matrix_bases():
    """(m, sparse matrices): the fixtures' matrix-unit bases and the
    rational bases of closures of random 0/1 matrices in T_3 and T_4."""
    yield 2, [{(i, j): 1} for i in range(2) for j in range(2)]
    yield 3, [{(i, j): 1} for i in range(3) for j in range(3)]
    for n in (2, 3, 4, 5):
        yield n, [{(i, j): 1} for i in range(n) for j in range(i, n)]
    yield 4, [{p: 1} for p in [(0, 0), (1, 1), (2, 2), (3, 3), (1, 0),
                                (2, 0), (3, 0), (3, 1), (3, 2)]]
    rng = random.Random(7)
    for n in (3, 4, 3, 4, 4):
        A = upper_triangular_algebra(n)
        units = [(i, j) for i in range(n) for j in range(i, n)]
        gens = [[rng.randint(0, 1) for _ in units] for _ in range(2)]
        incl = subalgebra_closure(A, [list(A.unit)] + gens)
        yield n, [{units[k]: c for k, c in enumerate(v) if c}
                  for v in incl.sub_basis]


@pytest.mark.parametrize("m, mats", list(_matrix_bases()),
                         ids=lambda x: str(x) if isinstance(x, int) else
                         str(len(x)))
def test_matrix_span_algebra_matches_dense(m, mats):
    A = _matrix_span_algebra(m, mats)
    mult, unit, coords = dense_matrix_span(m, mats)
    assert A.table == [[to_sparse(v) for v in row] for row in mult]
    assert A.unit == unit
    flat = [[Fraction(mat.get((i, j), 0)) for i in range(m)
             for j in range(m)] for mat in mats]
    rng = random.Random(m * 100 + len(mats))
    for _ in range(5):
        c = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in flat]
        v = [sum(x * f[k] for x, f in zip(c, flat)) for k in range(m * m)]
        assert A.flat_coords(v) == coords(v) == c
    for v in flat:
        assert A.flat_coords(v) == coords(v)


@pytest.mark.parametrize("m, mats, message", [
    (2, [{(0, 1): 1}, {(0, 1): 2}], "matrix basis not independent"),
    (2, [{(0, 0): 1}, {(0, 1): 1}, {(1, 0): 1}],
     "matrix outside the span of the basis"),
    (3, [{(0, 0): 1, (1, 1): 1, (2, 2): 1}, {(0, 1): 1}, {(1, 2): 1}],
     "matrix outside the span of the basis"),
])
def test_matrix_span_errors_match_dense(m, mats, message):
    for build in (_matrix_span_algebra, dense_matrix_span):
        with pytest.raises(InvalidAlgebra) as exc:
            build(m, mats)
        assert str(exc.value) == message


def test_flat_coords_rejects_matrix_outside_span():
    A = upper_triangular_algebra(3)
    lower = [Fraction(int(i == 2 and j == 0)) for i in range(3)
             for j in range(3)]
    with pytest.raises(InvalidAlgebra, match="outside the span"):
        A.flat_coords(lower)
