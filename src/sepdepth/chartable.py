"""Character tables modulo a Dixon prime and inclusion matrices.

The table of a group G is computed entirely in GF(p) for a prime p with
p = 1 (mod exponent(G)) and p > 2*sqrt(|G|): class-sum multiplication
matrices commute and are simultaneously diagonalizable over GF(p), their
common eigenvectors are the central characters, and degrees lift uniquely
to integers because p bounds 2*sqrt(|G|).  Character values themselves stay
mod p; only integer-valued bilinear combinations (degrees, restriction
multiplicities) are ever lifted.
"""

import random
from dataclasses import dataclass
from math import isqrt, lcm

from .errors import (CheckFailed, InvalidArgument, LiftInconsistency,
                     SplittingFailure)
from .permgroup import conjugacy_classes

MAX_SPLIT_RETRIES = 8


@dataclass(frozen=True)
class ClassData:
    classes: tuple          # tuple of tuples of Permutation
    sizes: tuple
    inverse_map: tuple      # class index -> index of the inverse class
    exponent: int
    reps: tuple             # one representative per class (minimal element)
    index_of: dict          # element -> class index

    @property
    def num_classes(self):
        return len(self.classes)


def class_data(G):
    classes = conjugacy_classes(G)
    index_of = {}
    for i, cls in enumerate(classes):
        for g in cls:
            index_of[g] = i
    inverse_map = tuple(index_of[cls[0].inverse()] for cls in classes)
    if any(inverse_map[inverse_map[i]] != i for i in range(len(classes))):
        raise CheckFailed("class inversion is not an involution")
    return ClassData(classes=classes,
                     sizes=tuple(len(c) for c in classes),
                     inverse_map=inverse_map,
                     exponent=G.exponent(),
                     reps=tuple(min(c) for c in classes),
                     index_of=index_of)


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
    if n < 2:
        return False
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def class_mult_coeffs(G, cd, i):
    """Matrix a[j][k] = #{(x, y) in C_i x C_j : xy = z} for a fixed z in C_k."""
    r = cd.num_classes
    a = [[0] * r for _ in range(r)]
    for k in range(r):
        z = cd.reps[k]
        for x in cd.classes[i]:
            j = cd.index_of[x.inverse() * z]
            a[j][k] += 1
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
        """Split along eigenspaces of mat (restricted to this subspace)."""
        p = self.p
        k = self.dim
        if k == 1:
            return [self]
        # restriction matrix R with mat . b_j = sum_i R[i][j] b_i; the
        # coordinates of mat . b_j are column j of R, i.e. row j of R^t
        Rt = [self.coords(_mat_vec(mat, row, p)) for row in self.rows]
        pieces = []
        total = 0
        for lam in range(p):
            # nullspace of R - lam*I: the I part of those echelon rows of
            # [(R - lam*I)^t | I] whose pivot falls in the I part
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
                amb = [0] * len(self.rows[0])
                for c, row in zip(nv, self.rows):
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
        return self.table[i][self.class_data.index_of[g]]

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

    def to_json_dict(self):
        return {"prime": self.prime, "seed": self.seed,
                "degrees": list(self.degrees),
                "table": [list(r) for r in self.table],
                "class_sizes": list(self.class_data.sizes)}


def character_table_mod_p(G, prime=None, seed=0):
    """Character table of G with values in GF(prime).

    Rows are sorted by (degree, value sequence) so the table is canonical
    for a given prime.
    """
    cd = class_data(G)
    r = cd.num_classes
    p = prime if prime is not None else dixon_prime(cd.exponent, G.order)
    if not (_is_prime(p) and (p - 1) % cd.exponent == 0
            and p > 2 * isqrt(G.order)):
        raise InvalidArgument(
            f"{p} is not a prime = 1 mod {cd.exponent} above "
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
    retries = 0
    rng = random.Random(seed)
    while any(sp.dim > 1 for sp in spaces):
        if retries >= MAX_SPLIT_RETRIES:
            raise SplittingFailure("eigenspace refinement stalled")
        # random combination of class matrices; commuting family, so any
        # refinement is valid
        coeffs = [rng.randrange(p) for _ in range(r)]
        comb = [[sum(coeffs[i] * mats[i][j][k] for i in range(r)) % p
                 for k in range(r)] for j in range(r)]
        spaces = refine(spaces, comb)
        retries += 1

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

    @property
    def shape(self):
        return (len(self.entries), len(self.entries[0]))

    def as_lists(self):
        return [list(r) for r in self.entries]


def common_prime(G, H_group):
    """Smallest Dixon prime serving both G and the subgroup H."""
    exps = lcm(G.exponent(), H_group.exponent())
    return dixon_prime(exps, G.order)


def inclusion_matrix(G, H, tableG=None, tableH=None):
    """Restriction-multiplicity matrix of kH inside kG.

    H is a Subgroup of G; the two character tables must share a prime.
    Entries are lifted to least nonnegative residues and verified against
    the exact column dimension identity.
    """
    HG = H.as_group() if hasattr(H, "as_group") else H
    if tableG is None or tableH is None:
        p = common_prime(G, HG)
        tableG = character_table_mod_p(G, prime=p)
        tableH = character_table_mod_p(HG, prime=p)
    p = tableG.prime
    if tableH.prime != p:
        raise LiftInconsistency("tables computed with different primes")
    cdH = tableH.class_data
    inv_h = pow(HG.order % p, -1, p)
    rows = []
    for i in range(tableH.num_chars):
        row = []
        for j in range(tableG.num_chars):
            s = 0
            for a in range(cdH.num_classes):
                rep_inv = cdH.reps[a].inverse()
                s += (cdH.sizes[a] * tableH.table[i][a]
                      * tableG.value(j, rep_inv))
            row.append((s * inv_h) % p)
        rows.append(tuple(row))
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


def induction_matrix_mod_p(G, H, tableG, tableH):
    """Induction multiplicities <ind chi_i, psi_j> mod p (for the
    Frobenius-reciprocity cross-check; should equal the inclusion matrix)."""
    p = tableG.prime
    cdG = tableG.class_data
    HG_elements = H.elements
    inv_h = pow(len(HG_elements) % p, -1, p)
    cdH = tableH.class_data
    rows = []
    for i in range(tableH.num_chars):
        row = []
        for j in range(tableG.num_chars):
            # <psi_j|_H, chi_i>_H computed element-wise over H
            s = 0
            for h in HG_elements:
                s += tableH.table[i][cdH.index_of[h]] * \
                    tableG.table[j][cdG.index_of[h.inverse()]]
            row.append((s * inv_h) % p)
        rows.append(tuple(row))
    return rows
