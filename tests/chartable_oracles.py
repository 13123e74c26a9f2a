"""Reference routines for the character-table side, for tests only.

The induction matrix (for the Frobenius-reciprocity cross-check) is summed
element by element over H with Permutation inverses.  The class
multiplication coefficients are counted from Permutation products.  The
eigenspace split tries every lam in GF(p), as ``_Subspace.split_by`` did
before it read the eigenvalues off the characteristic polynomial, and the
determinant is plain Gaussian elimination mod p.  ``inclusion_shape`` and
``table_json_dict`` read an inclusion matrix and a character table for the
tests.
"""

from sepdepth.chartable import _mat_vec, _Subspace
from sepdepth.errors import SplittingFailure


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


def split_by_scan(space, mat):
    """The eigenspace split of space along mat, trying every lam in
    range(p) for a nullspace of R - lam*I."""
    p, k = space.p, space.dim
    if k == 1:
        return [space]
    Rt = [space.coords(_mat_vec(mat, row, p)) for row in space.rows]
    pieces = []
    total = 0
    for lam in range(p):
        aug = _Subspace([[x - (lam if i == j else 0)
                          for i, x in enumerate(Rt[j])]
                         + [1 if i == j else 0 for i in range(k)]
                         for j in range(k)], p)
        null = [row[k:] for row, piv in zip(aug.rows, aug.pivots)
                if piv >= k]
        if not null:
            continue
        vecs = []
        for nv in null:
            amb = [0] * len(space.rows[0])
            for c, row in zip(nv, space.rows):
                if c:
                    amb = [(a + c * b) % p for a, b in zip(amb, row)]
            vecs.append(amb)
        pieces.append(_Subspace(vecs, p))
        total += len(null)
        if total == k:
            break
    if total != k:
        raise SplittingFailure("class matrix not diagonalizable mod p")
    return pieces


def inclusion_shape(M):
    """(rows, columns) of an inclusion matrix."""
    return (len(M.entries), len(M.entries[0]))


def table_json_dict(tab):
    """A character table mod p as a JSON-ready dict."""
    return {"prime": tab.prime, "seed": tab.seed,
            "degrees": list(tab.degrees),
            "table": [list(r) for r in tab.table],
            "class_sizes": list(tab.class_data.sizes)}
