"""Reference routines for the character-table side, for tests only.

The induction matrix (for the Frobenius-reciprocity cross-check) is summed
element by element over H with Permutation inverses.  The class
multiplication coefficients are counted from Permutation products.
``eigenspace_table`` is the eigenspace-basis route that
``character_table_mod_p`` took before it split along one cyclic vector:
each piece is an echelon basis of an eigenspace, split at the roots of
``det(xI - R)`` for the restriction R of each class matrix, with nullspaces
of ``R - lam*I`` as the new pieces.  It shares no split code with the
cyclic-vector route.  The determinant is plain Gaussian elimination mod p.
``table_value``, ``inclusion_shape`` and ``table_json_dict`` read a
character table and an inclusion matrix for the tests.
"""

from bisect import bisect_left
from functools import reduce

from sepdepth.chartable import class_data, class_mult_coeffs
from sepdepth.errors import ElementNotInGroup, SplittingFailure


def induction_matrix_mod_p(G, H, tableG, tableH):
    """Induction multiplicities <ind chi_i, psi_j> mod p (should equal the
    inclusion matrix)."""
    p = tableG.prime
    cdG, cdH = tableG.class_data, tableH.class_data
    inv_h = pow(H.order % p, -1, p)
    rows = []
    for i in range(tableH.num_chars):
        row = []
        for j in range(tableG.num_chars):
            # <psi_j|_H, chi_i>_H computed element-wise over H
            s = 0
            for h in H.elements:
                s += (tableH.table[i][cdH.class_of[H.parent.index_of(h)]]
                      * tableG.table[j][cdG.class_of[G.index_of(h.inverse())]])
            row.append((s * inv_h) % p)
        rows.append(tuple(row))
    return rows


def class_mult_by_products(G, cd, i):
    """a[j][k] = #{(x, y) in C_i x C_j : x * y = z_k}, by Permutation
    products over every pair."""
    classes = [[G.elements[x] for x in c] for c in cd.classes]
    r = len(classes)
    a = [[0] * r for _ in range(r)]
    for k in range(r):
        z = classes[k][0]
        for j in range(r):
            a[j][k] = sum(x * y == z for x in classes[i] for y in classes[j])
    return a


def det_mod_p(mat, p):
    """Determinant mod p by Gaussian elimination."""
    m = [[x % p for x in row] for row in mat]
    n = len(m)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], -1, p)
        for r in range(c + 1, n):
            f = m[r][c] * inv % p
            if f:
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[c])]
    return det % p


class _Subspace:
    """Echelonized column subspace of GF(p)^r (vectors stored as rows)."""

    def __init__(self, vectors, p):
        self.p = p
        self.rows = []      # echelon rows
        self.pivots = []
        for v in vectors:
            self._add(v)

    def _add(self, v):
        p = self.p
        v = [x % p for x in v]
        for row, piv in zip(self.rows, self.pivots):
            if v[piv]:
                f = v[piv]
                v = [(a - f * b) % p for a, b in zip(v, row)]
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return
        inv = pow(v[piv], -1, p)
        v = [(x * inv) % p for x in v]
        self.rows.append(v)
        self.pivots.append(piv)

    @property
    def dim(self):
        return len(self.rows)

    def coords(self, v):
        """Coordinates of v in the echelon basis (v must lie in the space)."""
        p = self.p
        v = [x % p for x in v]
        cs = []
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            cs.append(c)
            if c:
                v = [(a - c * b) % p for a, b in zip(v, row)]
        if any(v):
            raise ArithmeticError("vector not in invariant subspace")
        return cs

    def split_by(self, mat):
        """Split along eigenspaces of mat (restricted to this subspace).

        The eigenvalues are the roots of det(xI - R) mod p for the
        restriction R; the pieces are the nullspaces of R - lam*I at those
        roots, in increasing lam.
        """
        p = self.p
        k = self.dim
        if k == 1:
            return [self]
        # restriction matrix R with mat . b_j = sum_i R[i][j] b_i; the
        # coordinates of mat . b_j are column j of R, i.e. row j of R^t
        Rt = [self.coords(_mat_vec(mat, row, p)) for row in self.rows]
        charpoly = _charpoly(Rt, p)[::-1]
        cols = list(zip(*self.rows))
        pieces = []
        total = 0
        for lam in range(p):
            # det(lam I - R) by Horner
            if reduce(lambda v, c: (v * lam + c) % p, charpoly, 0):
                continue
            # nullspace of R - lam*I: the I part of those echelon rows of
            # [(R - lam*I)^t | I] whose pivot falls in the I part
            aug = _Subspace([[x - (lam if i == j else 0)
                              for i, x in enumerate(Rt[j])]
                             + [1 if i == j else 0 for i in range(k)]
                             for j in range(k)], p)
            null = [row[k:] for row, piv in zip(aug.rows, aug.pivots)
                    if piv >= k]
            pieces.append(_Subspace([_mat_vec(cols, nv, p) for nv in null],
                                    p))
            total += len(null)
            if total == k:
                break
        if total != k:
            raise SplittingFailure("class matrix not diagonalizable mod p")
        return pieces


def _charpoly(mat, p):
    """Coefficients, constant term first, of det(xI - mat) mod p.

    The matrix is brought to upper Hessenberg form by similarity
    transformations, and the characteristic polynomials of its leading
    blocks follow by the recurrence of Cohen, A Course in Computational
    Algebraic Number Theory, Algorithm 2.2.9.
    """
    n = len(mat)
    h = [[x % p for x in row] for row in mat]
    for m in range(1, n - 1):
        i = next((i for i in range(m, n) if h[i][m - 1]), None)
        if i is None:
            continue
        h[i], h[m] = h[m], h[i]
        for row in h:
            row[i], row[m] = row[m], row[i]
        tinv = pow(h[m][m - 1], -1, p)
        for i in range(m + 1, n):
            u = h[i][m - 1] * tinv % p
            if u:
                # row_i -= u row_m, then column_m += u column_i
                h[i] = [(a - u * b) % p for a, b in zip(h[i], h[m])]
                for row in h:
                    row[m] = (row[m] + u * row[i]) % p
    # polys[m] = det(xI - h[:m][:m])
    polys = [[1]]
    for m in range(n):
        prev = polys[m]
        # (x - h[m][m]) * prev
        cur = [0] + prev
        for d, c in enumerate(prev):
            cur[d] = (cur[d] - h[m][m] * c) % p
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i] % p
            f = t * h[i][m] % p
            for d, c in enumerate(polys[i]):
                cur[d] = (cur[d] - f * c) % p
        polys.append(cur)
    return polys[n]


def _mat_vec(mat, v, p):
    return [sum(row[j] * v[j] for j in range(len(v)) if v[j]) % p
            for row in mat]


def eigenspace_table(G, p):
    """(degrees, rows) of G's character table mod p by the eigenspace
    route: refine the whole of GF(p)^r by every class matrix in turn until
    each piece is a line, normalise each line so its identity-class entry
    is 1, and lift the degree from d^2 = |G| / s."""
    cd = class_data(G)
    r = cd.num_classes
    spaces = [_Subspace([[int(i == j) for j in range(r)] for i in range(r)],
                        p)]
    for i in range(1, r):
        if all(sp.dim == 1 for sp in spaces):
            break
        mat = class_mult_coeffs(G, cd, i)
        spaces = [q for sp in spaces for q in sp.split_by(mat)]
    if any(sp.dim > 1 for sp in spaces):
        raise SplittingFailure("eigenspace refinement stalled")
    rows = []
    for sp in spaces:
        v = sp.rows[0]
        v = [x * pow(v[0], -1, p) % p for x in v]
        s = sum(v[j] * v[cd.inverse_map[j]] * pow(cd.sizes[j], -1, p)
                for j in range(r)) % p
        d2 = G.order * pow(s, -1, p) % p
        d = next(d for d in range(1, p // 2 + 1) if d * d % p == d2)
        rows.append((d, tuple(d * v[j] * pow(cd.sizes[j], -1, p) % p
                              for j in range(r))))
    rows.sort()
    return tuple(d for d, _ in rows), tuple(chi for _, chi in rows)


def table_value(tab, i, g):
    """The value of character i of the table tab at the element g of the
    table's group."""
    cd = tab.class_data
    x = bisect_left(cd.elements, g)
    if (x == len(cd.elements) or cd.elements[x] != g
            or cd.class_of[x] is None):
        raise ElementNotInGroup(repr(g))
    return tab.table[i][cd.class_of[x]]


def inclusion_shape(M):
    """(rows, columns) of an inclusion matrix."""
    return (len(M.entries), len(M.entries[0]))


def table_json_dict(tab):
    """A character table mod p as a JSON-ready dict."""
    return {"prime": tab.prime, "seed": tab.seed,
            "degrees": list(tab.degrees),
            "table": [list(r) for r in tab.table],
            "class_sizes": list(tab.class_data.sizes)}
