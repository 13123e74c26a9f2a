"""Character tables modulo a Dixon prime and inclusion matrices.

The table of a group G is computed entirely in GF(p) for a prime p with
p = 1 (mod exponent(G)) and p > 2*sqrt(|G|): class-sum multiplication
matrices commute and are simultaneously diagonalizable over GF(p), their
common eigenvectors are the central characters, and degrees lift uniquely
to integers because p bounds 2*sqrt(|G|).  Character values themselves stay
mod p; only integer-valued bilinear combinations (degrees, restriction
multiplicities) are ever lifted.

There are two routes to the rows, each with its own check on the table
it builds.  An abelian group, one whose classes are all singletons,
takes ``_abelian_rows``: its characters are the homomorphisms into the
exp(G)-th roots of unity mod p, built one generator at a time by
extending each character of the span of the earlier generators (the
docstring gives the proof); it builds no class matrix, and
``_certify_abelian`` checks its table in O(c^2 k) steps, k the number of
generators, where the orthonormality of ``check_invariants`` takes c^3.
Every other group takes ``_dixon_rows``, which separates the
central characters by splitting one cyclic vector, the identity-class
unit vector e_0, along the class matrices in turn: each piece of the
characters is carried as its component of e_0, and a piece splits at the
roots of its minimal polynomial under the class matrix (``_split_piece``
gives the proof).  A class matrix is built only while fewer pieces than
classes exist.  Each final piece is (chi(1)^2 / |G|) * omega_chi, so the
degree is read twice, from that coefficient and from the orthogonality
sum, and the two must agree; ``check_invariants`` then checks the table.
"""

from dataclasses import dataclass
from math import isqrt, lcm
from operator import mul

from .errors import (CheckFailed, InvalidArgument, LiftInconsistency,
                     NotASubgroup, SplittingFailure)
from .permgroup import ClassData, class_data


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


# --- the split along one cyclic vector -----------------------------------


def _split_piece(v, mat, p):
    """Split the piece v along the class matrix A = mat of a class K_i.

    A piece P of the central characters is carried as one vector
    v_P = sum over chi in P of c_chi * omega_chi, each c_chi a unit mod p
    and omega_chi (the central character, omega_chi[0] = 1) an eigenvector
    of every class matrix.  The refinement starts from the identity-class
    unit vector e_0, which is such a vector for the piece of all
    characters: column orthogonality gives

        sum_chi chi(1) * chi(g_j) = |G| if j = 0, else 0,

    and omega_chi[j] = |C_j| * chi(g_j) / chi(1), so

        e_0 = sum_chi (chi(1)^2 / |G|) * omega_chi.

    Every coefficient chi(1)^2 / |G| is a unit: p = 1 mod exp(G), so p
    does not divide |G|, and 0 < chi(1) < p/2.

    The minimal polynomial m of v under mat is read off the Krylov
    sequence v, Av, A^2 v, ...: as the omega_chi are independent and the
    c_chi nonzero, m is the product of (x - lam) over the distinct
    eigenvalues lam = omega_chi(K_i) on P.  For each root lam the piece
    q(A) v / q(lam), q = m / (x - lam), keeps the terms c_chi * omega_chi
    with eigenvalue lam and drops the others, since q vanishes at every
    other root and not at lam.  The pieces come in increasing lam.
    """
    # Krylov vectors, and echelon rows (pivot, row, combination) with
    # row = sum_j comb[j] * krylov[j] and row[pivot] = 1
    krylov = []
    echelon = []
    w = v
    while True:
        n = len(krylov)
        u = w
        comb = [0] * n + [1]
        for piv, row, rc in echelon:
            f = u[piv]
            if f:
                u = [(a - f * b) % p for a, b in zip(u, row)]
                for j, b in enumerate(rc):
                    comb[j] = (comb[j] - f * b) % p
        piv = next((j for j, x in enumerate(u) if x), None)
        if piv is None:
            break
        krylov.append(w)
        inv = pow(u[piv], -1, p)
        echelon.append((piv, [x * inv % p for x in u],
                        [x * inv % p for x in comb]))
        w = [sum(map(mul, row, w)) % p for row in mat]
    # comb is the monic minimal polynomial, constant term first
    if n == 1:
        return [v]
    pieces = []
    for lam in range(p):
        # q = m / (x - lam) by synthetic division; the remainder is m(lam)
        q = [0] * n
        acc = comb[n]
        for d in range(n - 1, -1, -1):
            q[d] = acc
            acc = (comb[d] + lam * acc) % p
        if acc:
            continue
        q_lam = 0
        for c in reversed(q):
            q_lam = (q_lam * lam + c) % p
        if not q_lam:
            break                       # lam is a repeated root
        inv = pow(q_lam, -1, p)
        piece = [0] * len(v)
        for c, kv in zip(q, krylov):
            if c:
                c = c * inv % p
                piece = [(a + c * b) % p for a, b in zip(piece, kv)]
        pieces.append(piece)
        if len(pieces) == n:
            return pieces
    raise SplittingFailure("class matrix not diagonalizable mod p")


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

    def check_invariants(self, order):
        p = self.prime
        cd = self.class_data
        if sum(d * d for d in self.degrees) != order:
            raise CheckFailed("squared degrees do not sum to the order")
        if any(self.table[i][0] != self.degrees[i] % p
               for i in range(len(self.table))):
            raise CheckFailed("identity column differs from the degrees")
        inv_order = pow(order % p, -1, p)
        # row j weighted by class size, read at the inverse classes
        duals = [[size * psi[k] for size, k in zip(cd.sizes, cd.inverse_map)]
                 for psi in self.table]
        for i, chi in enumerate(self.table):
            for j, dual in enumerate(duals):
                s = sum(map(mul, chi, dual))
                if (s * inv_order) % p != (1 if i == j else 0):
                    raise CheckFailed("rows are not orthonormal")


def character_table_mod_p(G, prime=None, seed=0):
    """Character table of a group or subgroup G with values in GF(prime).

    An abelian G, one whose classes are all singletons, takes
    ``_abelian_rows`` and ``_certify_abelian``; any other takes
    ``_dixon_rows`` and ``check_invariants``.  Rows are sorted by
    (degree, value sequence) so the table is canonical for a given prime,
    whichever route built it.  The seed is only recorded in the table:
    the table does not depend on it.
    """
    cd = class_data(G)
    p = prime if prime is not None else dixon_prime(G.exponent(), G.order)
    if not (_is_prime(p) and (p - 1) % G.exponent() == 0
            and p > 2 * isqrt(G.order)):
        raise InvalidArgument(
            f"{p} is not a prime = 1 mod {G.exponent()} above "
            f"2*sqrt({G.order})")
    abelian = cd.num_classes == G.order
    rows = sorted((_abelian_rows if abelian else _dixon_rows)(G, cd, p))
    table = CharacterTableModP(prime=p,
                               degrees=tuple(d for d, _ in rows),
                               table=tuple(chi for _, chi in rows),
                               class_data=cd,
                               seed=seed)
    if abelian:
        _certify_abelian(table, G)
    else:
        table.check_invariants(G.order)
    return table


def _certify_abelian(table, G):
    """Check that the rows of the table of an abelian G are its
    characters, in O(c^2 k) steps for c = |G| and k generators; raises
    CheckFailed.

    It checks that every degree is 1, that chi(1) = 1, that
    chi(x s) = chi(x) * chi(s) for every x in G and every generator s of
    G (x s read off the parent's right map of s), that the rows are
    pairwise distinct, and that there are |G| of them.  That is all that
    check_invariants asks:
    - each row is a homomorphism G -> GF(p)*: G is finite, so every y in
      G is a product of generators, and induction on its length gives
      chi(x y) = chi(x) * chi(y); then chi(g) * chi(g^-1) = chi(1) = 1,
      so every value is a unit;
    - distinct rows are orthonormal: for rows chi != psi,
      lambda = chi * psi^-1 is a nontrivial homomorphism, so
      lambda(s) != 1 for some generator s, and
      sum_x lambda(x) = sum_x lambda(x s) = lambda(s) * sum_x lambda(x)
      forces sum lambda = 0; as psi(g^-1) = psi(g)^-1, that sum is
      |G| * <chi, psi>, and chi against itself sums to |G|;
    - G has |G| homomorphisms into GF(p)*, since exp(G) divides p - 1,
      so |G| distinct ones are every one of them, and the squared
      degrees sum to |G|.
    """
    p, rows = table.prime, table.table
    class_of = table.class_data.class_of
    if len(rows) != G.order:
        raise CheckFailed(f"abelian table: {len(rows)} rows for a group "
                          f"of order {G.order}")
    if len(set(rows)) != len(rows):
        raise CheckFailed("abelian table: two rows are equal")
    one = class_of[0]
    if any(d != 1 for d in table.degrees) or any(chi[one] != 1
                                                 for chi in rows):
        raise CheckFailed("abelian table: a degree or chi(1) is not 1")
    # column k holds the element at[k]; moved[k] is the column of at[k] s
    at = [cls[0] for cls in table.class_data.classes]
    for s in G.gen_indices:
        rmap = G.parent.right_map(s)
        moved = [class_of[rmap[x]] for x in at]
        for chi in rows:
            # chi(x s) against chi(x) * chi(s) mod p, at every x
            if (list(map(chi.__getitem__, moved))
                    != list(map(p.__rmod__, map(chi[class_of[s]].__mul__,
                                                chi)))):
                raise CheckFailed(
                    "abelian table: a row is not multiplicative")


def _abelian_rows(G, cd, p):
    """(1, values mod p) of each character of the abelian group G: the
    homomorphisms G -> GF(p)*, built one generator at a time.

    G has |G| classes, so |G| irreducible characters, all linear: they
    are the |G| homomorphisms chi: G -> GF(p)*.  Their values lie in the
    e-th roots of unity, e = exp(G), a cyclic group since p = 1 mod e;
    with zeta a generator of it, chi is carried as its logs,
    chi(g) = zeta^log(g).  Let H' be the span of the generators taken so
    far (at first {1}, with one character), s the next generator and d
    least with s^d in H'.  Then H'<s> is the disjoint union of the cosets
    H' s^i, 0 <= i < d, and chi(h s^i) = psi(h) * zeta^(i t) extends a
    character psi of H' to a homomorphism exactly when
    zeta^(d t) = psi(s^d): for i + j >= d the product h s^i * h' s^j is
    (h h' s^d) s^(i + j - d).  With a = log psi(s^d), d t = a (mod e)
    has exactly d solutions, t = a/d + k e/d: d divides the order o of s,
    which divides e, and psi(s^d)^(o/d) = 1 makes a a multiple of e d/o,
    so of d.  Each character of H'<s> restricts to one of H', so these
    d |H'| = |H'<s>| extensions are all of them.  A generator already in
    H' (the identity, a repeat) is skipped.
    """
    e = G.exponent()
    qs = [q for q in range(2, e + 1) if e % q == 0 and _is_prime(q)]
    zeta = next(z for z in (pow(a, (p - 1) // e, p) for a in range(1, p))
                if all(pow(z, e // q, p) != 1 for q in qs))
    # H' as parent indices, each character as its logs along them
    elems, pos, logs = [0], {0: 0}, [[0]]
    for s in G.gen_indices:
        if s in pos:
            continue
        rmap = G.parent.right_map(s)
        grown, x = list(elems), s
        while x not in pos:
            grown += map(rmap.__getitem__, grown[-len(elems):])
            x = rmap[x]
        d, j = len(grown) // len(elems), pos[x]
        logs = [[(log + i * t) % e for i in range(d) for log in psi]
                for psi in logs for t in range(psi[j] // d, e, e // d)]
        elems, pos = grown, {y: k for k, y in enumerate(grown)}
    powers = [pow(zeta, k, p) for k in range(e)]
    at = [pos[cls[0]] for cls in cd.classes]
    return [(1, tuple(powers[psi[k]] for k in at)) for psi in logs]


def _dixon_rows(G, cd, p):
    """(degree, values mod p) of each character of G, read off the pieces
    of e_0 split along the class matrices.

    The class sums span Z(F_p G), which is F_p^r here, so two distinct
    central characters differ on some class sum and r pieces are reached
    before the class matrices run out.
    """
    r = cd.num_classes
    pieces = [[1] + [0] * (r - 1)]
    i = 0
    while len(pieces) < r:
        i += 1
        if i == r:
            raise SplittingFailure("refinement of e_0 stalled")
        mat = class_mult_coeffs(G, cd, i)
        pieces = [u for v in pieces for u in _split_piece(v, mat, p)]
    inv_sizes = [pow(s, -1, p) for s in cd.sizes]
    return [_character_row(v, cd, inv_sizes, G.order, p) for v in pieces]


def _character_row(v, cd, inv_sizes, order, p):
    """(degree, values mod p) of the character chi whose piece is
    v = (chi(1)^2 / |G|) * omega_chi.

    The degree is read twice: d^2 = |G| * v[0] from the coefficient, and
    d^2 = |G| / s from the orthogonality sum
    s = sum_j omega_j * omega_{j*} / |C_j| = |G| / chi(1)^2.
    """
    r = len(v)
    d2 = order * v[0] % p
    if not d2:
        raise LiftInconsistency("piece has no identity-class component")
    inv = pow(v[0], -1, p)
    omega = [x * inv % p for x in v]
    s = sum(omega[j] * omega[cd.inverse_map[j]] * inv_sizes[j]
            for j in range(r)) % p
    if d2 * s % p != order % p:
        raise LiftInconsistency(
            f"degree^2 {d2} from the identity class, but |G|/s differs")
    d = _lift_sqrt(d2, p)
    return d, tuple(d * omega[j] * inv_sizes[j] % p for j in range(r))


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

    H is a subgroup of G; the two character tables must share a prime
    and number the same elements, those of G, so that each H class is read
    in G's class labels by its first index.  Entries are lifted to least
    nonnegative residues and verified against the exact column dimension
    identity.
    """
    if tableG is None or tableH is None:
        p = common_prime(G, H)
        tableG = character_table_mod_p(G, prime=p)
        tableH = character_table_mod_p(H, prime=p)
    p = tableG.prime
    if tableH.prime != p:
        raise LiftInconsistency("tables computed with different primes")
    cdG, cdH = tableG.class_data, tableH.class_data
    if cdH.elements != cdG.elements:
        raise NotASubgroup("tables number different element sets")
    inv_h = pow(H.order % p, -1, p)
    # the G class of the inverse of each H class's representative
    g_class = [cdG.inverse_map[cdG.class_of[c[0]]] for c in cdH.classes]
    # each character of G read once at those classes
    restricted = [[psi[c] for c in g_class] for psi in tableG.table]
    rows = []
    for chi in tableH.table:
        weighted = [size * x for size, x in zip(cdH.sizes, chi)]
        rows.append(tuple(sum(map(mul, weighted, res)) * inv_h % p
                          for res in restricted))
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
