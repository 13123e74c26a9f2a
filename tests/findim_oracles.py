"""Dense reference routines for the findim kernels, for tests only.

Each one computes through ``StructureConstantAlgebra.multiply`` on unit
vectors, the way the package did before it read its structure-constant
table directly, so the tests can hold the sparse kernels against them.
"""

from fractions import Fraction

from sepdepth.linalg import SparseEchelon, to_sparse


def unit_vec(n, i):
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


def left_regular_matrix(A, u):
    """Matrix of x -> u * x in A's basis (columns = images)."""
    n = A.dimension
    cols = [A.multiply(u, unit_vec(n, j)) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def trace_prod(a, b):
    n = len(a)
    return sum(a[i][k] * b[k][i] for i in range(n) for k in range(n))


def dense_trace_form(A):
    """Tr(L_{b_i} L_{b_j}) from n x n regular matrices."""
    n = A.dimension
    regs = [left_regular_matrix(A, unit_vec(n, i)) for i in range(n)]
    return [[trace_prod(regs[i], regs[j]) for j in range(n)]
            for i in range(n)]


def dense_relations(A, inclusion):
    """Echelon of the relations (a_p b) (x) a_r - a_p (x) (b a_r)."""
    n = A.dimension
    ech = SparseEchelon()
    for p in range(n):
        for b in inclusion.sub_basis:
            left = A.multiply(unit_vec(n, p), b)
            for r in range(n):
                right = A.multiply(b, unit_vec(n, r))
                rel = [Fraction(0)] * (n * n)
                for i, c in enumerate(left):
                    rel[i * n + r] += c
                for j, c in enumerate(right):
                    rel[p * n + j] -= c
                ech.add(to_sparse(rel))
    return ech


def dense_separability_system(A, rts):
    """separability_system's rows from the dense ambient actions of the
    quotient basis lifts."""
    n, q = A.dimension, rts.dim()
    rows = [{} for _ in range(n * q + n)]
    for c in range(q):
        lv = rts.lift(unit_vec(q, c))
        for a_idx in range(n):
            a = unit_vec(n, a_idx)
            diff = [x - y for x, y in zip(rts.left_mult_ambient(a, lv),
                                          rts.right_mult_ambient(lv, a))]
            for i, x in enumerate(rts.project(diff)):
                if x:
                    rows[a_idx * q + i][c] = x
        for k, x in enumerate(rts.mu_ambient(lv)):
            if x:
                rows[n * q + k][c] = x
    for k, x in enumerate(A.unit):
        if x:
            rows[n * q + k][q] = x
    return rows


def dense_associativity_failure(A):
    """The first message check_associative_and_unital should raise, or
    None, from dense products of unit vectors in the same order."""
    n = A.dimension
    for i in range(n):
        bi = unit_vec(n, i)
        if not A.multiply(A.unit, bi) == bi == A.multiply(bi, A.unit):
            return f"unit is not a two-sided unit on basis element {i}"
    for i in range(n):
        for j in range(n):
            ij = A.multiply(unit_vec(n, i), unit_vec(n, j))
            for k in range(n):
                bk = unit_vec(n, k)
                jk = A.multiply(unit_vec(n, j), bk)
                if A.multiply(ij, bk) != A.multiply(unit_vec(n, i), jk):
                    return (f"structure constants not associative at basis "
                            f"triple {(i, j, k)}")
    return None
