"""Minimum depth and H-depth from zero patterns of inclusion-matrix powers.

All matrix powers are taken over exact big integers; "equal number of zero
entries" is implemented as equal zero positions, which is equivalent for
powers of nonnegative symmetric matrices because the zero set only shrinks.
The even-depth rule (compare S^(n-1)M with S^n M) is a derived criterion,
flagged as such in reports.
"""

from dataclasses import dataclass

from .errors import CheckFailed
from .linalg import identity_matrix, mat_mul, transpose
from .permgroup import _conjugation_maps, h_classes


def zero_pattern(m):
    """Boolean matrix, True where the entry is zero."""
    return tuple(tuple(x == 0 for x in row) for row in m)


def is_diagonal(m):
    return all(x == 0 for i, row in enumerate(m)
               for j, x in enumerate(row) if i != j)


def bimodule_matrices(M):
    """S = M M^t and T = M^t M for an inclusion matrix given as lists."""
    Mt = transpose(M)
    return mat_mul(M, Mt), mat_mul(Mt, M)


def _stable_exponent(step, start, M):
    """Least n >= 0 with step^n start and step^(n+1) start sharing a zero
    pattern; step is S or T, which commute with their own powers."""
    power = start
    for n in range(len(M) * len(M[0]) + 2):
        nxt = mat_mul(step, power)
        if zero_pattern(power) == zero_pattern(nxt):
            return n
        power = nxt
    raise CheckFailed("depth scan failed to stabilize")


def _odd(S, M):
    return 2 * _stable_exponent(S, identity_matrix(len(S)), M) + 1


def _even(S, M):
    return 2 * _stable_exponent(S, M, M) + 2


def min_odd_depth(M):
    """Least 2n+1 with S^n and S^(n+1) sharing a zero pattern (S^0 = I)."""
    return _odd(bimodule_matrices(M)[0], M)


def min_h_depth(M):
    """Least 2n-1 (n >= 1) with T^(n-1) and T^n sharing a zero pattern.

    T^0 is the identity of order s, so the H-depth is 1 exactly when T is
    diagonal; each later power corresponds to one more tensor factor of A
    in the A-A-bimodule comparison.
    """
    return _odd(bimodule_matrices(M)[1], M)


def min_even_depth(M):
    """Least 2n (n >= 1) with S^(n-1) M and S^n M sharing a zero pattern.

    Derived matrix criterion (the source rules cover only the odd and
    H-depth cases); validated against depth-2 <=> normality on the corpus.
    """
    return _even(bimodule_matrices(M)[0], M)


def min_depth(M):
    """Minimum of the odd and even depth scans; 1 iff S is diagonal."""
    S, _ = bimodule_matrices(M)
    return min(_odd(S, M), _even(S, M))


@dataclass
class DepthReport:
    matrix: list
    S: list
    T: list
    min_odd_depth: int
    min_even_depth: int
    min_h_depth: int
    min_depth: int
    even_rule_derived: bool = True


def depth_report(M):
    """All depth invariants of one inclusion matrix."""
    S, T = bimodule_matrices(M)
    odd = _odd(S, M)
    even = _even(S, M)
    rep = DepthReport(matrix=M, S=S, T=T,
                      min_odd_depth=odd,
                      min_even_depth=even,
                      min_h_depth=_odd(T, M),
                      min_depth=min(odd, even))
    if abs(rep.min_depth - rep.min_h_depth) > 2:
        raise CheckFailed("depth and H-depth differ by more than 2")
    if rep.min_h_depth % 2 == 0 or rep.min_odd_depth % 2 == 0:
        raise CheckFailed("odd depth or H-depth came out even")
    return rep


def burciu_depth1(G, H):
    """Depth-1 test via centers: Z(kH) inside Z(kG).

    Each H-class sum commutes with every generator of kG iff the H-class
    is closed under conjugation by the generators; this is an exact
    integer-coefficient comparison of the conjugated class sums, on H's
    classes read in G's element indices.
    """
    conj = list(_conjugation_maps(G, G.gen_indices))
    classes = [set(cls) for cls in h_classes(G, H)]
    return all({c[x] for x in cls} == cls for c in conj for cls in classes)
