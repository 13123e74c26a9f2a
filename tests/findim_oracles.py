"""Dense reference routines for the findim kernels, for tests only.

Each one computes through ``StructureConstantAlgebra.multiply`` on unit
vectors (or on dense flat matrices), the way the package did before it
read its structure-constant table directly, so the tests can hold the
sparse kernels against them.  The explicit witnesses of M_n and the
monoid decomposition live here too, and the built-in fixtures written
out as JSON matrix specs: only tests use them.
"""

from fractions import Fraction

from sepdepth.errors import CheckFailed, InvalidAlgebra
from sepdepth.findim import _sub_radical, matrix_algebra, radical
from sepdepth.linalg import SparseEchelon, rank, rref, to_sparse


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
    """separability_system's rows from dense products of unit vectors
    through A.multiply: for the quotient basis tensor b_p (x) b_r at
    free[c], each commutator with b_a is made dense, then reduced to its
    normal form modulo the relations, and mu(b_p (x) b_r) = b_p b_r."""
    n, q = A.dimension, rts.dim()
    units = [unit_vec(n, i) for i in range(n)]
    column = {pos: c for c, pos in enumerate(rts.free)}
    rows = [{} for _ in range(n * q + n)]
    for c, pos in enumerate(rts.free):
        p, r = divmod(pos, n)
        for a_idx in range(n):
            diff = [Fraction(0)] * (n * n)
            for k, x in enumerate(A.multiply(units[a_idx], units[p])):
                diff[k * n + r] += x
            for k, x in enumerate(A.multiply(units[r], units[a_idx])):
                diff[p * n + k] -= x
            normal = rts.relations.reduce(to_sparse(diff), full=True)
            for at, x in normal.items():
                rows[a_idx * q + column[at]][c] = x
        for k, x in enumerate(A.multiply(units[p], units[r])):
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


def dense_spans(basis, vectors):
    span = SparseEchelon(map(to_sparse, basis))
    return all(span.contains(to_sparse(v)) for v in vectors)


def dense_is_closed(A, basis):
    """span(basis) is closed under A.multiply."""
    return dense_spans(basis, (A.multiply(u, v) for u in basis for v in basis))


def dense_is_ideal(A, basis):
    """b v and v b lie in span(basis) for every unit vector b."""
    units = [unit_vec(A.dimension, i) for i in range(A.dimension)]
    return dense_spans(basis, (w for v in basis for b in units
                               for w in (A.multiply(b, v), A.multiply(v, b))))


def ideal_first_verdict(A, inclusion):
    """The radical criterion in its earlier order: J(B) tested for an
    ideal of A first (densely), then compared with J(A)."""
    JB = _sub_radical(A, inclusion)
    if not dense_is_ideal(A, JB):
        return "not-applicable"
    return "separable" if radical(A) == JB else "inseparable"


def dense_is_nilpotent(A, basis):
    """Some power of span(basis) is zero, from rref of dense products."""
    current = basis
    for _ in range(A.dimension + 1):
        if not current:
            return True
        current, _ = rref([A.multiply(u, v) for u in current for v in basis])
    return False


def dense_matrix_span(m, basis_mats):
    """(mult, unit, coords) of the algebra the sparse matrices {(i, j): c}
    span in M_m(Q), from dense m*m flat lists and one dense solve per
    product; coords maps a dense flat matrix to its coordinate list."""
    mm = m * m
    flat = []
    for mat in basis_mats:
        v = [Fraction(0)] * mm
        for (i, j), c in mat.items():
            v[i * m + j] = Fraction(c)
        flat.append(v)
    if rank(flat) != len(flat):
        raise InvalidAlgebra("matrix basis not independent")
    # rref of the transposed system [flat^T | v] per matrix v
    cols = [list(col) for col in zip(*flat)]

    def coords(v):
        rows, pivots = rref([c + [x] for c, x in zip(cols, v)])
        if len(flat) in pivots:
            raise InvalidAlgebra("matrix outside the span of the basis")
        return [rows[pivots.index(b)][-1] for b in range(len(flat))]

    def mat_mul(u, v):
        return [sum(u[i * m + k] * v[k * m + j] for k in range(m))
                for i in range(m) for j in range(m)]

    mult = [[coords(mat_mul(u, v)) for v in flat] for u in flat]
    ident = [Fraction(int(i == j)) for i in range(m) for j in range(m)]
    return mult, coords(ident), coords


def monoid_decomposition_dims(M, e):
    """(dim e*M, dim (1-e)*M); their direct sum is all of M."""
    n = M.dimension
    one_minus_e = [a - b for a, b in zip(M.unit, e)]
    eM = [M.multiply(e, unit_vec(n, i)) for i in range(n)]
    fM = [M.multiply(one_minus_e, unit_vec(n, i)) for i in range(n)]
    de = rank(eM)
    df = rank(fM)
    if not rank(eM + fM) == de + df == n:
        raise CheckFailed("e*M + (1-e)*M is not a direct sum equal to M")
    return de, df


def matrix_algebra_separability_witnesses(n):
    """The n witnesses e_j = sum_i e_ij (x) e_ji for M_n over its ground
    field, as ambient tensor vectors over the matrix-unit basis."""
    A = matrix_algebra(n)
    dim = A.dimension

    def unit_index(i, j):
        return i * n + j

    out = []
    for j in range(n):
        vec = [Fraction(0)] * (dim * dim)
        for i in range(n):
            vec[unit_index(i, j) * dim + unit_index(j, i)] = Fraction(1)
        out.append(vec)
    return A, out


def _matrix_spec(m, positions, name):
    """Algebra spec spanned by the matrix units at the 0-based positions."""
    def unit(i, j):
        return [["1" if (r, c) == (i, j) else "0" for c in range(m)]
                for r in range(m)]
    return {"name": name, "matrix_size": m,
            "basis": [unit(i, j) for i, j in positions],
            "labels": [f"e{i + 1}{j + 1}" for i, j in positions]}


def _matrix_sum(m, positions):
    return [["1" if (r, c) in positions else "0" for c in range(m)]
            for r in range(m)]


def fixture_specs(name):
    """The --fixture pair as JSON matrix specs, written out by hand;
    name is structural, triangular<n> or jordan<n> with n < 10."""
    if name == "structural":
        pattern = [(0, 0), (1, 1), (2, 2), (3, 3),
                   (1, 0), (2, 0), (3, 0), (3, 1), (3, 2)]
        return _matrix_spec(4, pattern, "structural"), {"matrices": [
            _matrix_sum(4, {(0, 0), (3, 3)}), _matrix_sum(4, {(1, 1), (2, 2)}),
            _matrix_sum(4, {(1, 0)}), _matrix_sum(4, {(3, 2)})]}
    n = int(name[-1])
    units = [(i, j) for i in range(n) for j in range(i, n)]
    ident = _matrix_sum(n, {(i, i) for i in range(n)})
    if name.startswith("triangular"):
        sub = [_matrix_sum(n, {(i, j)}) for i, j in units if j > i]
    else:
        sub = [_matrix_sum(n, {(i, i + s) for i in range(n - s)})
               for s in range(1, n)]
    return _matrix_spec(n, units, f"T{n}"), {"matrices": [ident] + sub}
