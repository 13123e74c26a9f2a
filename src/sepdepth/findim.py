"""Finite-dimensional algebras over the rationals by structure constants.

An algebra keeps its product as one sparse table, ``table[i][j] = {k: c}``
for ``b_i * b_j`` (nonzero constants only), which every builder hands over
as it is.  Provides the radical via the regular-representation trace form
(valid in characteristic zero), a direct separability-element solver for
algebra extensions, and the fixture algebras used by the verification
suite: upper-triangular matrices, a structural matrix algebra pair, full
matrix algebras, and the cyclic-monoid algebra with one idempotent power
relation.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (CapExceeded, CheckFailed, InvalidAlgebra,
                     InvalidArgument, UnitMissing)
from .groupalg import DEFAULT_LINEAR_CAP
from .linalg import SparseEchelon, nullspace, rref, to_dense, to_sparse


@dataclass
class StructureConstantAlgebra:
    dimension: int
    # table[i][j] = {k: c} for b_i * b_j, the nonzero constants only
    table: list
    unit: list
    labels: list = field(default_factory=list)
    name: str = ""

    def __post_init__(self):
        if not self.labels:
            self.labels = [f"b{i}" for i in range(self.dimension)]
        # integral entries stay int (see to_sparse), the rest Fraction
        unit = to_sparse(map(Fraction, self.unit))
        self.unit = [unit.get(k, 0) for k in range(len(self.unit))]

    def multiply(self, u, v):
        """Dense u * v, summed term by term over the table: the reference
        product that the witness check and the test oracles act through.
        The sum starts from int 0, so int inputs and an int table give
        int entries; v's nonzeros are listed once."""
        out = [0] * self.dimension
        v_nonzero = [(j, b) for j, b in enumerate(v) if b]
        for i, a in enumerate(u):
            if not a:
                continue
            row = self.table[i]
            for j, b in v_nonzero:
                ab = a * b
                for k, c in row[j].items():
                    out[k] += ab * c
        return out

    def check_associative_and_unital(self):
        n, S = self.dimension, self.table
        cols = self.table_columns()
        unit = to_sparse(self.unit)
        for i in range(n):
            left = _combine(unit, cols[i])
            right = _combine(unit, S[i])
            if not left == {i: 1} == right:
                raise InvalidAlgebra(f"unit is not a two-sided unit on "
                                     f"basis element {i}")
        for i in range(n):
            for j in range(n):
                ij = S[i][j]
                for k in range(n):
                    # (b_i b_j) b_k against b_i (b_j b_k)
                    lhs = _combine(ij, cols[k])
                    rhs = _combine(S[j][k], S[i])
                    if lhs != rhs:
                        raise InvalidAlgebra(
                            f"structure constants not associative at basis "
                            f"triple {(i, j, k)}")
        return True

    def table_columns(self):
        """cols[j][i] = table[i][j]: the products b_i * b_j for fixed j."""
        return [list(col) for col in zip(*self.table)]


def _combine(coeffs, products):
    """Sparse sum of c * products[m] over the sparse coefficients {m: c}."""
    out = {}
    for m, c in coeffs.items():
        for k, x in products[m].items():
            out[k] = out.get(k, 0) + c * x
    return {k: x for k, x in out.items() if x}


def _product(A, u, v):
    """Sparse u * v read off A.table: sum over i of u_i (b_i v)."""
    S = A.table
    return _combine(u, {i: _combine(v, S[i]) for i in u})


def _unit_vec(n, i):
    v = [0] * n
    v[i] = 1
    return v


@dataclass
class AlgebraInclusion:
    ambient: StructureConstantAlgebra
    sub_basis: list  # vectors in ambient coordinates, closed under product

    def __post_init__(self):
        A = self.ambient
        span = SparseEchelon(map(to_sparse, self.sub_basis))
        rows = span.back_substitute()
        self.pivots = [min(r) for r in rows]
        self.sub_basis = [to_dense(r, A.dimension) for r in rows]
        if not span.contains(to_sparse(A.unit)):
            raise UnitMissing("subalgebra does not contain the unit")
        # products[i][j] = u_i u_j for the basis rows, kept for B's table
        rows = list(map(to_sparse, self.sub_basis))
        self.products = [[_product(A, u, v) for v in rows] for u in rows]
        if not all(span.contains(uv) for row in self.products for uv in row):
            raise ValueError("subalgebra basis not closed")

    @property
    def sub_dimension(self):
        return len(self.sub_basis)


def _is_ideal(A, basis):
    """True iff b_k v and v b_k lie in span(basis) for every basis vector
    v and every b_k; they are read off table[k] and table_columns()[k]."""
    vecs = list(map(to_sparse, basis))
    span = SparseEchelon(vecs)
    return all(span.contains(_combine(v, products))
               for products in A.table + A.table_columns() for v in vecs)


def trace_form(A):
    """Gram matrix of the regular trace form, Tr(L_{b_i} L_{b_j}).

    A must be associative: then L_{b_i} L_{b_j} = L_{b_i b_j}, so the
    entry is sum_k c_ij^k Tr(L_{b_k}), read off the structure constants.
    """
    n, S = A.dimension, A.table
    # Tr(L_{b_k}) = sum_l c_kl^l
    tau = [sum(S[k][l].get(l, 0) for l in range(n)) for k in range(n)]
    return [[sum(c * tau[k] for k, c in S[i][j].items()) for j in range(n)]
            for i in range(n)]


def radical(A):
    """Basis of J(A) = kernel of the regular trace form (char 0; A
    associative).  The returned basis is verified to span a nilpotent
    ideal.
    """
    basis, _ = rref(nullspace(trace_form(A), ncols=A.dimension))
    _check_nilpotent_ideal(A, basis)
    return basis


def _check_nilpotent_ideal(A, basis):
    if not basis:
        return
    if not _is_ideal(A, basis):
        raise CheckFailed("radical candidate is not an ideal")
    # nilpotency: power up the span, less its zero products, until it dies
    current = vecs = list(map(to_sparse, basis))
    for _ in range(A.dimension + 1):
        if not current:
            return
        products = (_product(A, u, v) for u in current for v in vecs)
        current = SparseEchelon(filter(None, products)).basis()
    raise CheckFailed("radical candidate is not nilpotent")


def subalgebra_closure(A, vectors):
    """Smallest product-closed subspace containing the vectors.

    The vectors must include the unit (raises UnitMissing otherwise).
    """
    span = SparseEchelon(map(to_sparse, vectors))
    if not span.contains(to_sparse(A.unit)):
        raise UnitMissing("closure seed must contain the unit")
    while True:
        rows = span.basis()
        grew = [span.add(_product(A, u, v)) for u in rows for v in rows]
        if not any(grew):
            return AlgebraInclusion(A, [to_dense(r, A.dimension)
                                        for r in rows])


# ---------------------------------------------------------------------------
# the relative tensor square and separability


class RelativeTensorSquare:
    """A (x)_B A as a quotient of the n^2-dimensional plain tensor square
    by span{(a_p b) (x) a_r - a_p (x) (b a_r)} over basis triples.

    Only the distinct nonzero relations reach the echelon: a triple with
    a_p b = 0 = b a_r gives the zero relation, and so does every triple
    whose b is the unit itself, which is left out of the sub-basis; a
    relation equal to an earlier one already lies in the span.  None of
    these would change the rows.  Position i*n + j of a tensor vector is
    b_i (x) b_j."""

    def __init__(self, A, inclusion, cap=DEFAULT_LINEAR_CAP):
        n = A.dimension
        if n * n > cap:
            raise CapExceeded("dim(A tensor A)", n * n, cap)
        S, cols = A.table, A.table_columns()
        unit = to_sparse(A.unit)
        subs = [b for b in map(to_sparse, inclusion.sub_basis) if b != unit]
        # a_p b and b a_r for every sub-basis vector b
        left = [[_combine(b, S[p]) for b in subs] for p in range(n)]
        right = [[_combine(b, cols[r]) for r in range(n)] for b in subs]
        # the r with b a_r != 0, the only ones with a relation if a_p b = 0
        right_support = [[r for r, v in enumerate(row) if v] for row in right]
        self.relations = SparseEchelon()
        seen = set()
        for p in range(n):
            for ap_b, b_right, support in zip(left[p], right, right_support):
                for r in (range(n) if ap_b else support):
                    rel = {i * n + r: c for i, c in ap_b.items()}
                    for j, c in b_right[r].items():
                        rel[p * n + j] = rel.get(p * n + j, 0) - c
                    rel = {k: c for k, c in rel.items() if c}
                    key = frozenset(rel.items())
                    if rel and key not in seen:
                        seen.add(key)
                        self.relations.add(rel)
        self.free = [c for c in range(n * n)
                     if c not in self.relations.rows]

    def dim(self):
        return len(self.free)


def is_separable_extension(A, inclusion, cap=DEFAULT_LINEAR_CAP):
    """Solve {t A-central in A (x)_B A, mu(t) = 1}.

    Returns (separable: bool, witness ambient tensor vector or None).
    The witness is verified against the defining relations exactly.
    """
    rts = RelativeTensorSquare(A, inclusion, cap=cap)
    rows = filter(None, separability_system(A, rts))   # less any 0 = 0
    sol = SparseEchelon(rows).solution(rts.dim())
    if sol is None:
        return False, None
    # quotient coordinate c is the basis tensor at position free[c]
    witness = to_dense({rts.free[c]: x for c, x in sol.items()},
                       A.dimension ** 2)
    verify_separability_witness(A, rts, witness)
    return True, witness


def separability_system(A, rts):
    """Rows of the system {b_a t - t b_a = 0 in A (x)_B A, mu(t) = 1}.

    Unknowns 0..q-1 are the quotient coordinates of t, column q the rhs:
    row a*q + i is coordinate i of the commutator with b_a, row n*q + k is
    coordinate k of mu(t) - 1.
    """
    n, S = A.dimension, A.table
    q = rts.dim()
    column = {pos: c for c, pos in enumerate(rts.free)}
    # the quotient basis element c is the basis tensor b_p (x) b_r at free[c]
    rows = [{} for _ in range(n * q + n)]
    for c, pos in enumerate(rts.free):
        p, r = divmod(pos, n)
        for a_idx in range(n):
            # b_a (b_p (x) b_r) - (b_p (x) b_r) b_a
            diff = {k * n + r: x for k, x in S[a_idx][p].items()}
            for k, x in S[r][a_idx].items():
                diff[p * n + k] = diff.get(p * n + k, 0) - x
            for at, x in rts.relations.reduce(diff, full=True).items():
                rows[a_idx * q + column[at]][c] = x
        for k, x in S[p][r].items():
            rows[n * q + k][c] = x
    for k, x in enumerate(A.unit):
        if x:
            rows[n * q + k][q] = x
    return rows


def verify_separability_witness(A, rts, witness):
    """Exact check: the witness t is A-central modulo the relations, and
    mu(t) = 1.

    The dense witness is made sparse once.  Each basis product b_i b_j the
    check needs is taken through A.multiply on int unit vectors, at most
    once per pair, and kept in a local table; the check reads no structure
    constant itself, so it shares no product code with separability_system
    and a slip in either one cannot verify itself.  The quotient map onto
    A (x)_B A is linear with kernel the span of the relations, so
    b_a t = t b_a there iff the residual b_a t - t b_a lies in that span:
    one forward reduction per b_a."""
    n = A.dimension
    t = [divmod(idx, n) + (c,) for idx, c in to_sparse(witness).items()]
    table = {}

    def product(i, j):
        if (i, j) not in table:
            table[i, j] = to_sparse(A.multiply(_unit_vec(n, i),
                                               _unit_vec(n, j)))
        return table[i, j].items()

    for a in range(n):
        # the sum of c [(b_a b_i) (x) b_j - b_i (x) (b_j b_a)]
        residual = {}
        for i, j, c in t:
            for k, x in product(a, i):
                residual[k * n + j] = residual.get(k * n + j, 0) + c * x
            for k, x in product(j, a):
                residual[i * n + k] = residual.get(i * n + k, 0) - c * x
        if not rts.relations.contains(residual):
            raise CheckFailed("witness: centrality residual nonzero")
    mu = {}
    for i, j, c in t:
        for k, x in product(i, j):
            mu[k] = mu.get(k, 0) + c * x
    if {k: x for k, x in mu.items() if x} != to_sparse(A.unit):
        raise CheckFailed("witness: mu(e) != 1")


def prop_rad_check(A, inclusion, JA=None):
    """Radical criterion: separable iff J(A) = J(B), when J(B) is an
    ideal of A.  Returns 'separable', 'inseparable' or 'not-applicable'.
    JA is radical(A) when the caller has it already.

    J(B) = J(A) is tested first: radical(A) has checked that J(A) is an
    ideal, so the ideal test runs only on a J(B) that differs from it."""
    JB_sub = _sub_radical(A, inclusion)
    if JA is None:
        JA = radical(A)
    # both bases are reduced row echelon forms, unique for their span
    if JA == JB_sub:
        return "separable"
    return "inseparable" if _is_ideal(A, JB_sub) else "not-applicable"


def _sub_radical(A, inclusion):
    """J(B) expressed in ambient coordinates."""
    rows = list(map(to_sparse, inclusion.sub_basis))

    # B as its own structure-constant algebra, its table read off the
    # closure check's products; its basis is in reduced row echelon form,
    # so a coordinate is the entry at that row's pivot
    def coords(v):
        return {i: v[p] for i, p in enumerate(inclusion.pivots) if p in v}

    table = [[coords(uv) for uv in row] for row in inclusion.products]
    B = StructureConstantAlgebra(
        dimension=len(rows), table=table,
        unit=[A.unit[p] for p in inclusion.pivots], name="sub")
    return rref([to_dense(_combine(to_sparse(v), rows), A.dimension)
                 for v in radical(B)])[0]


# ---------------------------------------------------------------------------
# fixtures


def matrix_algebra(n):
    """M_n(Q) on the basis of matrix units e_ij (row-major)."""
    units = [(i, j) for i in range(n) for j in range(n)]
    return _matrix_span_algebra(n, [
        {(i, j): 1} for (i, j) in units],
        name=f"M{n}",
        labels=[f"e{i+1}{j+1}" for (i, j) in units])


def _matrix_span_algebra(m, basis_mats, name="", labels=None):
    """Algebra spanned inside M_m(Q) by the given sparse matrices
    {(i, j): c}; each is kept as a flat sparse dict {i*m + j: c}."""
    dim, mm = len(basis_mats), m * m
    flat = [{i * m + j: c for (i, j), c in mat.items() if c}
            for mat in basis_mats]
    # by_row[b][k] = {j: c}, row k of basis matrix b
    by_row = []
    for v in flat:
        rows = {}
        for pos, c in v.items():
            k, j = divmod(pos, m)
            rows.setdefault(k, {})[j] = c
        by_row.append(rows)
    # rows (flat_b | e_b): the normal form of (v | 0) is (0 | -coords of v)
    span = SparseEchelon({**v, mm + b: 1} for b, v in enumerate(flat))
    if any(p >= mm for p in span.rows):
        raise InvalidAlgebra("matrix basis not independent")

    def coords(v):
        """Sparse coordinates {b: c} of a flat sparse matrix in the basis."""
        v = span.reduce(v, full=True)
        if any(k < mm for k in v):
            raise InvalidAlgebra("matrix outside the span of the basis")
        return {k - mm: -x for k, x in v.items()}

    def mat_mul(u, v_rows):
        out = {}
        for pos, a in u.items():
            i, k = divmod(pos, m)
            for j, b in v_rows.get(k, {}).items():
                out[i * m + j] = out.get(i * m + j, 0) + a * b
        return out

    table = [[coords(mat_mul(u, v_rows)) for v_rows in by_row] for u in flat]
    unit = to_dense(coords({i * m + i: 1 for i in range(m)}), dim)
    A = StructureConstantAlgebra(dimension=dim, table=table, unit=unit,
                                 labels=labels or [], name=name)
    A.embedding_size = m
    A.flat_coords = lambda vflat: to_dense(coords(to_sparse(vflat)), dim)
    return A


def _upper_units(n):
    """Positions (i, j), 0-based, of T_n's matrix-unit basis, in order."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def upper_triangular_algebra(n):
    """T_n(Q), upper-triangular matrices."""
    units = _upper_units(n)
    return _matrix_span_algebra(
        n, [{(i, j): 1} for (i, j) in units],
        name=f"T{n}", labels=[f"e{i+1}{j+1}" for (i, j) in units])


def _t_n_units(A, n):
    """T_n's unit positions, indexed like A's basis; A must be T_n."""
    units = _upper_units(n)
    if A.dimension != len(units):
        raise InvalidAlgebra(f"{A.name or 'algebra'} is not T{n}")
    return units


def strict_upper_subalgebra(A, n):
    """k1 + strictly upper triangulars inside T_n, in A's coordinates."""
    vectors = [list(A.unit)]
    for idx, (i, j) in enumerate(_t_n_units(A, n)):
        if j > i:
            vectors.append(_unit_vec(A.dimension, idx))
    return AlgebraInclusion(A, vectors)


def jordan_subalgebra(A, n):
    """k1 + k(e12 + ... + e_{n-1,n}) + ... + k e_1n inside T_n."""
    units = _t_n_units(A, n)
    vectors = [list(A.unit)]
    for shift in range(1, n):
        vectors.append([int(j - i == shift) for (i, j) in units])
    return AlgebraInclusion(A, vectors)


def structural_matrix_example():
    """The inseparable fixture: a Sweedler-Nakayama subalgebra inside a
    structural matrix algebra in M_4.

    Returns (A, inclusion).  The ambient pattern is the reflexive-transitive
    closure of {(2,1), (3,1), (4,1), (4,2), (4,3)}; it must contain e21 for
    the stated subalgebra to embed.
    """
    pattern = [(0, 0), (1, 1), (2, 2), (3, 3),
               (1, 0), (2, 0), (3, 0), (3, 1), (3, 2)]
    A = _matrix_span_algebra(
        4, [{(i, j): 1} for (i, j) in pattern],
        name="structural",
        labels=[f"e{i+1}{j+1}" for (i, j) in pattern])
    lab = {l: idx for idx, l in enumerate(A.labels)}

    def unit_at(label):
        return _unit_vec(A.dimension, lab[label])

    b1 = [a + b for a, b in zip(unit_at("e11"), unit_at("e44"))]
    b2 = [a + b for a, b in zip(unit_at("e22"), unit_at("e33"))]
    inclusion = AlgebraInclusion(A, [b1, b2, unit_at("e21"), unit_at("e43")])
    return A, inclusion


def monoid_algebra(n):
    """Commutative monoid algebra on 1, f, ..., f^(2n-1) with f^(2n) = f^n.

    Returns (M, e) with e = f^n (an idempotent).  The decomposition
    e*M + (1-e)*M is a direct sum of two n-dimensional pieces.
    """
    if n < 1:
        raise InvalidArgument(f"monoid_algebra needs n >= 1, got {n}")
    dim = 2 * n

    def reduce_power(k):
        # f^k in the basis {1, f, ..., f^(2n-1)}
        while k >= 2 * n:
            k -= n
        return k

    table = [[{reduce_power(i + j): 1} for j in range(dim)]
             for i in range(dim)]
    M = StructureConstantAlgebra(dimension=dim, table=table,
                                 unit=_unit_vec(dim, 0),
                                 labels=[f"f^{i}" for i in range(dim)],
                                 name=f"M({2*n},{n})")
    e = _unit_vec(dim, n)
    if _product(M, {n: 1}, {n: 1}) != {n: 1}:
        raise CheckFailed("f^n is not idempotent")
    return M, e


def monoid_nilpotent_part_subalgebra(M, e):
    """Closure of {1, (1-e) f} -- isomorphic to Q[X]/(X^m)."""
    one_minus_e = to_sparse([a - b for a, b in zip(M.unit, e)])
    gen = to_dense(_product(M, one_minus_e, {1: 1}), M.dimension)
    return subalgebra_closure(M, [list(M.unit), gen])
