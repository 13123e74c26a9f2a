"""Character tables modulo a Dixon prime and inclusion matrices.

The table of a group G is computed entirely in GF(p) for a prime p with
p = 1 (mod exponent(G)) and p > 2*sqrt(|G|): class-sum multiplication
matrices commute and are simultaneously diagonalizable over GF(p), their
common eigenvectors are the central characters, and degrees lift uniquely
to integers because p bounds 2*sqrt(|G|).  Character values themselves stay
mod p; only integer-valued bilinear combinations (degrees, restriction
multiplicities) are ever lifted.
"""

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from math import isqrt, lcm

from .errors import (CheckFailed, ElementNotInGroup, InvalidArgument,
                     LiftInconsistency, SplittingFailure)
from .permgroup import conjugacy_classes, part_labels


@dataclass(frozen=True)
class ClassData:
    classes: tuple          # tuple of tuples of element indices
    sizes: tuple
    inverse_map: tuple      # class index -> index of the inverse class
    class_of: tuple         # element index -> class index (None off G)
    elements: tuple         # the elements of G.parent, in index order

    @property
    def num_classes(self):
        return len(self.classes)


def class_data(G):
    """The class data of a group or subgroup G, in G.parent's indices."""
    classes = conjugacy_classes(G, indices=True)
    class_of = part_labels(classes, G.parent.order)
    inv = G.parent.inverse
    inverse_map = tuple(class_of[inv[cls[0]]] for cls in classes)
    if any(inverse_map[inverse_map[i]] != i for i in range(len(classes))):
        raise CheckFailed("class inversion is not an involution")
    return ClassData(classes=classes,
                     sizes=tuple(len(c) for c in classes),
                     inverse_map=inverse_map,
                     class_of=tuple(class_of), elements=G.parent.elements)


def dixon_prime(exponent, order):
    """Smallest prime p with p = 1 mod exponent and p > 2*sqrt(order).

    The bound is taken with the square root rounded up, which is slightly
    stronger than needed for unique degree lifting but keeps the chosen
    prime independent of floating-point rounding.
    """
    root = isqrt(order)
    if root * root != order:
        root += 1
    bound = 2 * root
    p = exponent + 1
    while True:
        if p > bound and _is_prime(p):
            return p
        p += exponent


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def class_mult_coeffs(G, cd, i):
    """Matrix a[j][k] = #{(x, y) in C_i x C_j : xy = z} for a fixed z in C_k:
    y = x^-1 z is read off the right map of z in G.parent."""
    r = cd.num_classes
    P, class_of = G.parent, cd.class_of
    xinv = [P.inverse[x] for x in cd.classes[i]]
    a = [[0] * r for _ in range(r)]
    for k, cls in enumerate(cd.classes):
        rz = P.right_map(cls[0])
        for y in xinv:
            a[class_of[rz[y]]][k] += 1
    return a


# --- GF(p) helpers ---------------------------------------------------------


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


# --- the table -------------------------------------------------------------


@dataclass(frozen=True)
class CharacterTableModP:
    prime: int
    degrees: tuple           # integer degrees, lifted
    table: tuple             # rows = characters, columns = classes, mod p
    class_data: ClassData
    seed: int

    @property
    def num_chars(self):
        return len(self.table)

    def value(self, i, g):
        """The value of character i at the element g of the table's group."""
        cd = self.class_data
        x = bisect_left(cd.elements, g)
        if (x == len(cd.elements) or cd.elements[x] != g
                or cd.class_of[x] is None):
            raise ElementNotInGroup(repr(g))
        return self.table[i][cd.class_of[x]]

    def check_invariants(self, order):
        p = self.prime
        cd = self.class_data
        if sum(d * d for d in self.degrees) != order:
            raise CheckFailed("squared degrees do not sum to the order")
        if any(self.table[i][0] != self.degrees[i] % p
               for i in range(len(self.table))):
            raise CheckFailed("identity column differs from the degrees")
        inv_order = pow(order % p, -1, p)
        for i in range(len(self.table)):
            for j in range(len(self.table)):
                s = sum(cd.sizes[k] * self.table[i][k]
                        * self.table[j][cd.inverse_map[k]]
                        for k in range(cd.num_classes))
                if (s * inv_order) % p != (1 if i == j else 0):
                    raise CheckFailed("rows are not orthonormal")


def character_table_mod_p(G, prime=None, seed=0):
    """Character table of a group or subgroup G with values in GF(prime).

    Rows are sorted by (degree, value sequence) so the table is canonical
    for a given prime.  The seed is only recorded in the table: the table
    does not depend on it.
    """
    cd = class_data(G)
    r = cd.num_classes
    p = prime if prime is not None else dixon_prime(G.exponent(), G.order)
    if not (_is_prime(p) and (p - 1) % G.exponent() == 0
            and p > 2 * isqrt(G.order)):
        raise InvalidArgument(
            f"{p} is not a prime = 1 mod {G.exponent()} above "
            f"2*sqrt({G.order})")
    mats = [class_mult_coeffs(G, cd, i) for i in range(r)]
    spaces = [_Subspace([[1 if i == j else 0 for j in range(r)]
                         for i in range(r)], p)]

    def refine(space_list, mat):
        out = []
        for sp in space_list:
            out.extend(sp.split_by(mat) if sp.dim > 1 else [sp])
        return out

    for i in range(1, r):
        spaces = refine(spaces, mats[i])
        if all(sp.dim == 1 for sp in spaces):
            break
    # the class sums span Z(F_p G), which is F_p^r here, so two distinct
    # central characters differ on some class sum: every space is a line
    if any(sp.dim > 1 for sp in spaces):
        raise SplittingFailure("eigenspace refinement stalled")

    inv_order = pow(G.order % p, -1, p)
    rows = []
    for sp in spaces:
        v = sp.rows[0]
        # normalize so the identity-class entry is 1: v[j] = omega_j
        v = [(x * pow(v[0], -1, p)) % p for x in v]
        s = sum(v[j] * v[cd.inverse_map[j]] * pow(cd.sizes[j], -1, p)
                for j in range(r)) % p
        d2 = (G.order * pow(s, -1, p)) % p
        d = _lift_sqrt(d2, p)
        chi = tuple((d * v[j] * pow(cd.sizes[j], -1, p)) % p
                    for j in range(r))
        rows.append((d, chi))
    rows.sort()
    table = CharacterTableModP(prime=p,
                               degrees=tuple(d for d, _ in rows),
                               table=tuple(chi for _, chi in rows),
                               class_data=cd,
                               seed=seed)
    table.check_invariants(G.order)
    return table


def _lift_sqrt(d2, p):
    """The unique integer 0 < d < p/2 with d^2 = d2 mod p."""
    for d in range(1, p // 2 + 1):
        if (d * d) % p == d2:
            return d
    raise SplittingFailure(f"no square root of {d2} mod {p}")


# --- inclusion matrix ------------------------------------------------------


@dataclass(frozen=True)
class InclusionMatrix:
    entries: tuple           # rows = irreducibles of H, cols = irreducibles of G
    row_degrees: tuple
    col_degrees: tuple

    def as_lists(self):
        return [list(r) for r in self.entries]


def common_prime(G, H):
    """Smallest Dixon prime serving both G and the subgroup H."""
    exps = lcm(G.exponent(), H.exponent())
    return dixon_prime(exps, G.order)


def inclusion_matrix(G, H, tableG=None, tableH=None):
    """Restriction-multiplicity matrix of kH inside kG.

    H is a subgroup of G; the two character tables must share a prime.
    Entries are lifted to least nonnegative residues and verified against
    the exact column dimension identity.
    """
    if tableG is None or tableH is None:
        p = common_prime(G, H)
        tableG = character_table_mod_p(G, prime=p)
        tableH = character_table_mod_p(H, prime=p)
    p = tableG.prime
    if tableH.prime != p:
        raise LiftInconsistency("tables computed with different primes")
    cdG, cdH = tableG.class_data, tableH.class_data
    inv_h = pow(H.order % p, -1, p)
    # the G class of the inverse of each H class's representative, found
    # through the element, since H's table may number H.parent's elements
    g_class = [cdG.inverse_map[cdG.class_of[G.index_of(cdH.elements[c[0]])]]
               for c in cdH.classes]
    rows = []
    for chi in tableH.table:
        weighted = [size * x for size, x in zip(cdH.sizes, chi)]
        rows.append(tuple(sum(w * psi[c] for w, c in zip(weighted, g_class))
                          * inv_h % p for psi in tableG.table))
    M = InclusionMatrix(entries=tuple(rows),
                        row_degrees=tableH.degrees,
                        col_degrees=tableG.degrees)
    for j in range(tableG.num_chars):
        total = sum(M.entries[i][j] * tableH.degrees[i]
                    for i in range(tableH.num_chars))
        if total != tableG.degrees[j]:
            raise LiftInconsistency(
                f"column {j}: dimension sum {total} != {tableG.degrees[j]}")
    return M
