import random
from fractions import Fraction
from math import gcd

import pytest

from depth_oracles import identity_matrix, mat_mul, transpose
from sepdepth.linalg import (SparseEchelon, nullspace, rank, rref,
                             solve_affine, to_sparse)


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


def _int_if_integral(x):
    return x.numerator if x.denominator == 1 else x


def integer_cases():
    """The oracle cases typed as the echelon meets them from integer
    input: plain ints from integer factors, and the rational cases with
    every integral entry an int (mixed int / Fraction)."""
    rng = random.Random(12)
    cases = []
    for rows, cols, inner in ((5, 5, 5), (6, 8, 3), (7, 4, 2), (4, 6, 0)):
        left = [[rng.randint(-4, 4) for _ in range(inner)]
                for _ in range(rows)]
        right = [[rng.randint(-4, 4) for _ in range(cols)]
                 for _ in range(inner)]
        mat = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
               for row in left]
        x = [rng.randint(-3, 3) for _ in range(cols)]
        consistent = [sum(a * b for a, b in zip(row, x)) for row in mat]
        arbitrary = [rng.randint(-3, 3) for _ in range(rows)]
        cases += [(mat, consistent), (mat, arbitrary)]
    for mat, rhs in oracle_cases():
        cases.append(([list(map(_int_if_integral, row)) for row in mat],
                      list(map(_int_if_integral, rhs))))
    # some matrices hold ints and Fractions side by side
    assert any(len({type(x) for row in mat for x in row}) == 2
               for mat, _ in cases)
    return cases


def test_dense_routines_match_sympy():
    sympy = pytest.importorskip("sympy")

    def frac(x):
        return Fraction(int(x.p), int(x.q))

    inconsistent = 0
    for mat, rhs in oracle_cases() + integer_cases():
        M = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                           for x in row] for row in mat])
        b = sympy.Matrix([sympy.Rational(x.numerator, x.denominator)
                          for x in rhs])
        R, pivots = M.rref()
        rows, got_pivots = rref(mat)
        assert got_pivots == list(pivots)
        # the dense routines hand back Fractions whatever the input types
        assert all(type(x) is Fraction for row in rows for x in row)
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
    assert inconsistent >= 6


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


def test_integer_echelon_is_fraction_free():
    """A dense integer matrix stays in primitive integer rows with
    positive pivots, no larger than the Hadamard bound of the minors they
    are proportional to, and back-substitutes to the RREF of the same
    matrix typed as Fraction."""
    rng = random.Random(60)
    mat = [[rng.randint(-9, 9) for _ in range(60)] for _ in range(60)]
    ech = SparseEchelon(map(to_sparse, mat))
    assert sorted(ech.rows) == list(range(60))
    for p, row in ech.rows.items():
        assert all(type(v) is int for v in row.values())
        assert row[p] > 0 and gcd(*row.values()) == 1
        # row p is proportional to the (p+1)-minors of the first p+1 rows
        assert all(v * v <= (81 * (p + 1)) ** (p + 1) for v in row.values())
    typed = SparseEchelon({k: Fraction(x) for k, x in enumerate(row) if x}
                          for row in mat)
    assert ech.back_substitute() == typed.back_substitute()


def test_integer_normal_form_matches_fraction_span():
    """reduce(full=True) gives the same values over the int-typed and the
    Fraction-typed span, for integer and rational vectors."""
    rng = random.Random(17)
    left = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(9)]
    right = [[rng.randint(-3, 3) for _ in range(14)] for _ in range(4)]
    mat = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
           for row in left]
    ints = SparseEchelon(map(to_sparse, mat))
    fracs = SparseEchelon({k: Fraction(x) for k, x in enumerate(row) if x}
                          for row in mat)
    assert ints.rank == fracs.rank == 4
    for _ in range(20):
        vec = {k: rng.randint(-5, 5) for k in rng.sample(range(14), 6)}
        nf = ints.reduce(vec, full=True)
        assert nf == fracs.reduce(vec, full=True)
        assert not set(nf) & set(ints.rows)
        vec[rng.randrange(14)] = Fraction(1, 3)
        assert ints.reduce(vec, full=True) == fracs.reduce(vec, full=True)


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


def test_empty_vector_leaves_the_rows():
    """The empty vector adds nothing and lies in every span, the empty
    one too; the rows and their entries stay as they were."""
    ech = SparseEchelon()
    assert not ech.add({})
    assert ech.contains({})
    assert ech.rows == {}
    ech.add({0: 2, 2: 4})
    ech.add({1: 3, 2: Fraction(1, 2)})
    rows = {p: dict(row) for p, row in ech.rows.items()}
    assert not ech.add({})
    assert ech.contains({})
    assert ech.rows == rows and ech.rank == 2
    assert ech.reduce({}, full=True) == {}


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


def test_solve_affine_back_substitutes_once(monkeypatch):
    """The solution and the nullspace share one back-substitution: one
    full reduction per row of the augmented echelon."""
    mat = random_matrix(5, 7, seed=9)
    rhs = [Fraction(1)] * 5
    rows = SparseEchelon(to_sparse(list(row) + [b])
                         for row, b in zip(mat, rhs)).rank
    modes = []
    reduce = SparseEchelon.reduce

    def counted(self, vec, full=False):
        modes.append(full)
        return reduce(self, vec, full)

    monkeypatch.setattr(SparseEchelon, "reduce", counted)
    sol, null = solve_affine(mat, rhs)
    assert sol is not None and len(null) == 7 - rows
    assert modes.count(True) == rows


def test_solve_affine_unsolvable():
    sol, null = solve_affine([[1, 1], [2, 2]], [1, 3])
    assert sol is None
    assert len(null) == 1


def test_integer_matrix_helpers():
    a = [[1, 2], [3, 4]]
    assert mat_mul(a, identity_matrix(2)) == a
    assert transpose(a) == [[1, 3], [2, 4]]
    assert mat_mul(a, transpose(a)) == [[5, 11], [11, 25]]
