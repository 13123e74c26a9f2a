"""Items of the three benchmark workloads.

Group workloads are described by permutation generators (image lists on
0..degree-1), exactly as a user writes the JSON specs for
``sepdepth analyze``.  The findim workload is described by matrix bases
(the ``matrix_size`` + ``basis`` shorthand) and, for the monoid algebra, by
structure constants; the seed permutes the order of the algebra basis.

This module does not import sepdepth.
"""

import random
from fractions import Fraction

WORKLOADS = ("corpus", "matrix-large", "findim")

# The fixed largest item of each workload (``frontier_item_s``).
FRONTIER = {
    "corpus": "S5/o4.0",
    "matrix-large": "S6<S7",
    "findim": "triangular6",
}

# The tiny slice the smoke mode runs.
SMOKE = {
    "corpus": "S3/*",
    "matrix-large": ("S2<S3",),
    "findim": ("triangular3",),
}


# ---------------------------------------------------------------------------
# permutation groups


def _cycle(degree, points):
    im = list(range(degree))
    for a, b in zip(points, points[1:] + points[:1]):
        im[a] = b
    return im


def symmetric_gens(n, degree):
    """S_n on the points 0..n-1 of a degree-``degree`` set."""
    gens = [_cycle(degree, [0, 1])]
    if n > 2:
        gens.append(_cycle(degree, list(range(n))))
    return gens


def alternating_gens(n, degree):
    """A_n on 0..n-1, generated by the 3-cycles (0 1 k)."""
    return [_cycle(degree, [0, 1, k]) for k in range(2, n)]


def matrix_large_items():
    """(item id, group spec, subgroup spec) for the large-group pairs."""
    items = []
    for n in range(2, 7):
        items.append((f"S{n}<S{n + 1}",
                      {"name": f"S{n + 1}", "degree": n + 1,
                       "generators": symmetric_gens(n + 1, n + 1)},
                      {"name": f"S{n}",
                       "generators": symmetric_gens(n, n + 1)}))
    for n in range(4, 7):
        items.append((f"A{n}<S{n}",
                      {"name": f"S{n}", "degree": n,
                       "generators": symmetric_gens(n, n)},
                      {"name": f"A{n}",
                       "generators": alternating_gens(n, n)}))
    s7 = {"name": "S7", "degree": 7, "generators": symmetric_gens(7, 7)}
    items.append(("S5xS2<S7", s7,
                  {"name": "S5xS2",
                   "generators": symmetric_gens(5, 7) + [_cycle(7, [5, 6])]}))
    items.append(("C7<S7", s7,
                  {"name": "C7", "generators": [_cycle(7, list(range(7)))]}))
    return items


# ---------------------------------------------------------------------------
# finite-dimensional algebras


def _unit_matrix(m, i, j):
    return [["1" if (r, c) == (i, j) else "0" for c in range(m)]
            for r in range(m)]


def _matrix_sum(m, cells):
    return [["1" if (r, c) in cells else "0" for c in range(m)]
            for r in range(m)]


def _identity(m):
    return _matrix_sum(m, {(i, i) for i in range(m)})


def triangular_spec(n, sub):
    """T_n with k1 + strict upper ('strict') or the Jordan subalgebra."""
    units = [(i, j) for i in range(n) for j in range(i, n)]
    algebra = {"name": f"T{n}", "matrix_size": n,
               "basis": [_unit_matrix(n, i, j) for i, j in units],
               "labels": [f"e{i + 1}{j + 1}" for i, j in units]}
    mats = [_identity(n)]
    if sub == "strict":
        mats += [_unit_matrix(n, i, j) for i, j in units if j > i]
    else:
        mats += [_matrix_sum(n, {(i, i + s) for i in range(n - s)})
                 for s in range(1, n)]
    return algebra, {"matrices": mats}


def structural_spec():
    """The inseparable Sweedler-Nakayama pair inside a structural matrix
    algebra in M_4 (the ``structural`` fixture)."""
    pattern = [(0, 0), (1, 1), (2, 2), (3, 3),
               (1, 0), (2, 0), (3, 0), (3, 1), (3, 2)]
    algebra = {"name": "structural", "matrix_size": 4,
               "basis": [_unit_matrix(4, i, j) for i, j in pattern],
               "labels": [f"e{i + 1}{j + 1}" for i, j in pattern]}
    sub = {"matrices": [_matrix_sum(4, {(0, 0), (3, 3)}),
                        _matrix_sum(4, {(1, 1), (2, 2)}),
                        _unit_matrix(4, 1, 0), _unit_matrix(4, 3, 2)]}
    return algebra, sub


def monoid_spec(n):
    """The cyclic-monoid algebra M(2n, n) on 1, f, ..., f^(2n-1) with
    f^(2n) = f^n (the ``monoid<n>`` fixture), by structure constants, and
    its nilpotent-part subalgebra: the span of the powers of (1 - f^n) f,
    which are f^k - f^(k+n) for 0 < k < n."""
    dim = 2 * n

    def power(k):
        while k >= dim:
            k -= n
        return ["1" if i == k else "0" for i in range(dim)]

    def f_minus(k):
        return ["1" if i == k else "-1" if i == k + n else "0"
                for i in range(dim)]

    algebra = {"name": f"M({dim},{n})",
               "structure": [[power(i + j) for j in range(dim)]
                             for i in range(dim)],
               "unit": power(0),
               "labels": [f"f^{i}" for i in range(dim)]}
    return algebra, {"vectors": [power(0)] + [f_minus(k)
                                              for k in range(1, n)]}


def findim_items():
    """(item id, algebra spec, subalgebra spec) in the unpermuted basis."""
    items = [(f"triangular{n}",) + triangular_spec(n, "strict")
             for n in range(3, 7)]
    items += [(f"jordan{n}",) + triangular_spec(n, "jordan")
              for n in range(3, 6)]
    items.append(("structural",) + structural_spec())
    items.append(("monoid4",) + monoid_spec(4))
    return items


def basis_permutation(dim, seed, item_id, order=0):
    """The seed's permutation number ``order`` of an algebra basis: new
    basis element k is old basis element perm[k]."""
    perm = list(range(dim))
    key = f"{seed}:{item_id}" + (f":{order}" if order else "")
    random.Random(key).shuffle(perm)
    return perm


def permute_basis(algebra, sub, perm):
    """The same algebra pair on the reordered basis."""
    algebra = dict(algebra)
    if "basis" in algebra:
        algebra["basis"] = [algebra["basis"][p] for p in perm]
        algebra["labels"] = [algebra["labels"][p] for p in perm]
        return algebra, sub
    def vec(v):
        return [v[p] for p in perm]
    algebra["structure"] = [[vec(algebra["structure"][p][q]) for q in perm]
                            for p in perm]
    algebra["unit"] = vec(algebra["unit"])
    algebra["labels"] = [algebra["labels"][p] for p in perm]
    return algebra, {"vectors": [vec(v) for v in sub["vectors"]]}


def algebra_dimension(algebra):
    return len(algebra["basis"] if "basis" in algebra
               else algebra["structure"])


# ---------------------------------------------------------------------------
# independent witness check


def witness_mu_is_one(algebra, witness):
    """mu(t) = 1 for a findim witness, from the spec data alone.

    The witness lists coefficients of b_p (x) b_r at index p*dim + r.  For a
    matrix basis mu is the sum of matrix products, for structure constants
    the sum of the product vectors; neither uses sepdepth.
    """
    dim = algebra_dimension(algebra)
    coeffs = [Fraction(c) for c in witness]
    if len(coeffs) != dim * dim:
        return False
    if "basis" in algebra:
        m = algebra["matrix_size"]
        mats = [[[Fraction(x) for x in row] for row in b]
                for b in algebra["basis"]]
        total = [[Fraction(0)] * m for _ in range(m)]
        for idx, c in enumerate(coeffs):
            if not c:
                continue
            a, b = mats[idx // dim], mats[idx % dim]
            for i in range(m):
                for k in range(m):
                    if a[i][k]:
                        for j in range(m):
                            if b[k][j]:
                                total[i][j] += c * a[i][k] * b[k][j]
        return total == [[Fraction(int(i == j)) for j in range(m)]
                         for i in range(m)]
    total = [Fraction(0)] * dim
    for idx, c in enumerate(coeffs):
        if c:
            for k, x in enumerate(algebra["structure"][idx // dim][idx % dim]):
                total[k] += c * Fraction(x)
    return total == [Fraction(x) for x in algebra["unit"]]
