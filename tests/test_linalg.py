import random
from fractions import Fraction

import pytest

from sepdepth.linalg import (SparseEchelon, identity_matrix, mat_mul,
                             nullspace, rank, rref, solve_affine, transpose)


def random_matrix(rows, cols, seed):
    rng = random.Random(seed)
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             for _ in range(cols)] for _ in range(rows)]


def oracle_cases():
    """(matrix, rhs) pairs: full rank, rank-deficient, zero, with
    consistent and inconsistent right-hand sides."""
    rng = random.Random(11)
    cases = []
    for rows, cols, inner in ((5, 5, 5), (4, 7, 4), (8, 3, 3), (6, 6, 3),
                              (7, 5, 2), (5, 8, 1), (3, 4, 0)):
        left = random_matrix(rows, inner, seed=rng.random())
        right = random_matrix(inner, cols, seed=rng.random())
        mat = ([[sum((a * b for a, b in zip(row, col)), Fraction(0))
                 for col in zip(*right)] for row in left]
               if inner else [[Fraction(0)] * cols for _ in range(rows)])
        x = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
        consistent = [sum(a * b for a, b in zip(row, x)) for row in mat]
        arbitrary = [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                     for _ in range(rows)]
        cases += [(mat, consistent), (mat, arbitrary)]
    return cases


def test_dense_routines_match_sympy():
    sympy = pytest.importorskip("sympy")

    def frac(x):
        return Fraction(int(x.p), int(x.q))

    inconsistent = 0
    for mat, rhs in oracle_cases():
        M = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                           for x in row] for row in mat])
        b = sympy.Matrix([sympy.Rational(x.numerator, x.denominator)
                          for x in rhs])
        R, pivots = M.rref()
        rows, got_pivots = rref(mat)
        assert got_pivots == list(pivots)
        assert rows == [[frac(x) for x in R.row(i)]
                        for i in range(len(pivots))]
        assert rank(mat) == M.rank()
        null = [[frac(x) for x in v] for v in M.nullspace()]
        assert nullspace(mat) == null
        sol, got_null = solve_affine(mat, rhs)
        assert got_null == null
        try:
            expect, params = M.gauss_jordan_solve(b)
        except ValueError:
            assert sol is None
            inconsistent += 1
            continue
        expect = expect.subs({t: 0 for t in params})
        assert sol == [frac(x) for x in expect]
    assert inconsistent >= 3


def test_sparse_echelon_normal_form():
    mat = random_matrix(4, 9, seed=5)
    ech = SparseEchelon({j: x for j, x in enumerate(row) if x}
                        for row in mat)
    vec = {0: 1, 3: Fraction(2, 3), 8: -1}
    nf = ech.reduce(vec, full=True)
    assert not set(nf) & set(ech.rows)
    diff = dict(vec)
    for k, x in nf.items():
        diff[k] = diff.get(k, 0) - x
    assert ech.contains(diff)
    # the normal form does not depend on how the span was echelonized
    other = SparseEchelon({j: x for j, x in enumerate(row) if x}
                          for row in reversed(mat))
    assert other.reduce(vec, full=True) == nf
    assert other.back_substitute() == ech.back_substitute()


def test_sparse_echelon_membership():
    ech = SparseEchelon()
    ech.add({0: 1, 2: 3})
    ech.add({1: 2, 2: Fraction(1, 2)})
    assert ech.rank == 2
    # combination of the two rows
    combo = {0: 2, 1: 2, 2: Fraction(13, 2)}
    assert ech.contains(combo)
    assert not ech.contains({3: 1})
    # adding a dependent vector does not grow the rank
    assert not ech.add(combo)
    assert ech.rank == 2


def test_sparse_echelon_pivots_sorted():
    ech = SparseEchelon()
    for v in ({5: 1}, {2: 1, 5: 4}, {0: 7, 2: 1}):
        ech.add(v)
    pivots = [min(row) for row in ech.basis()]
    assert pivots == sorted(pivots) == [0, 2, 5]


def test_rref_shape_and_pivots():
    mat = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    rows, pivots = rref(mat)
    assert pivots == [0, 1]
    assert rows[0][0] == 1 and rows[1][1] == 1
    # pivot columns are unit vectors
    assert rows[0][1] == 0


def test_nullspace_annihilates():
    mat = random_matrix(6, 10, seed=3)
    for v in nullspace(mat):
        assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in mat)
    assert len(nullspace(mat)) == 10 - rank(mat)


def test_solve_affine_consistent():
    mat = [[1, 1], [0, 1]]
    sol, null = solve_affine(mat, [3, 1])
    assert sol == [2, 1]
    assert null == []


def test_solve_affine_unsolvable():
    sol, null = solve_affine([[1, 1], [2, 2]], [1, 3])
    assert sol is None
    assert len(null) == 1


def test_integer_matrix_helpers():
    a = [[1, 2], [3, 4]]
    assert mat_mul(a, identity_matrix(2)) == a
    assert transpose(a) == [[1, 3], [2, 4]]
    assert mat_mul(a, transpose(a)) == [[5, 11], [11, 25]]
