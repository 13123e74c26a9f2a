"""Minimum depth and H-depth from zero patterns of inclusion-matrix powers.

The scans read only where the powers of S = M M^t and T = M^t M vanish,
and those zero patterns are walks on M's bipartite graph: the rows of M
on one side, its columns on the other, an edge where the entry is
nonzero.  S[i][k] is nonzero exactly when rows i and k of M share a
nonzero column, and T[j][l] when columns j and l share a nonzero row,
because the entries are nonnegative: no sum of products cancels.  So
neither is formed.  A power is carried as boolean row masks (row i is an
int with bit j set where entry (i, j) is nonzero), and one step of S ORs
the row masks into a mask per column, over each column's support, then
ORs those back into a mask per row, over each row's support; a step of T
does the same in the other order.  Each step costs about 2 * nnz(M) ORs.
The diagonal of S and T is positive on the nonzero lines of M (their
squared lengths), so the zero set only shrinks and "equal number of zero
entries" is equal masks.  S is diagonal iff no column of M has two
nonzero rows, and T iff no row has two nonzero columns.  The even-depth
rule (compare S^(n-1)M with S^n M) is a derived criterion, flagged as
such in reports.
"""

from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .errors import CheckFailed, InvalidArgument
from .permgroup import conjugacy_classes, h_classes


def _check(M):
    """Refuse anything but a nonempty rectangular matrix of ints >= 0."""
    if any(not isinstance(row, (list, tuple)) for row in M):
        raise InvalidArgument("depth: matrix rows must be lists")
    if not M or not M[0]:
        raise InvalidArgument("depth: empty matrix")
    if any(len(row) != len(M[0]) for row in M):
        raise InvalidArgument("depth: ragged matrix, rows of unequal length")
    if not all({int}.issuperset(map(type, row)) for row in M):
        raise InvalidArgument("depth: matrix entries must be integers")
    if min(map(min, M)) < 0:
        raise InvalidArgument("depth: matrix entries must be nonnegative")


def is_diagonal(m):
    return all(x == 0 for i, row in enumerate(m)
               for j, x in enumerate(row) if i != j)


def _gram(rows):
    """The symmetric matrix of inner products of the rows, each once."""
    g = [[0] * len(rows) for _ in rows]
    for i, a in enumerate(rows):
        for j in range(i, len(rows)):
            g[i][j] = g[j][i] = sum(map(mul, a, rows[j]))
    return g


def bimodule_matrices(M):
    """S = M M^t and T = M^t M for an inclusion matrix given as lists."""
    _check(M)
    return _gram(M), _gram(list(zip(*M)))


def _support(m):
    """Row i as the list of the j with m[i][j] nonzero: its set bits."""
    return [[j for j, x in enumerate(row) if x] for row in m]


def _or_over(supports, masks):
    """Mask k of the result is the OR of the masks at the indices in
    supports[k]."""
    out = []
    for js in supports:
        m = 0
        for j in js:
            m |= masks[j]
        out.append(m)
    return out


def _scan(there, back, power):
    """Least n >= 0 with step^n start and step^(n+1) start sharing their
    masks; power holds the start's masks, and a step ORs them over the
    supports there and then back (M's columns, then its rows, for S).
    Mask i of step^n start is the OR of start's masks within n steps of
    i, so the masks settle within len(power) steps."""
    for n in range(len(power) + 2):
        nxt = _or_over(back, _or_over(there, power))
        if nxt == power:
            return n
        power = nxt
    raise CheckFailed("depth scan failed to stabilize")


def min_odd_depth(M):
    """Least 2n+1 with S^n and S^(n+1) sharing a zero pattern (S^0 = I)."""
    return depth_report(M).min_odd_depth


def min_h_depth(M):
    """Least 2n-1 (n >= 1) with T^(n-1) and T^n sharing a zero pattern.

    T^0 is the identity of order s, so the H-depth is 1 exactly when T is
    diagonal; each later power corresponds to one more tensor factor of A
    in the A-A-bimodule comparison.
    """
    return depth_report(M).min_h_depth


def min_even_depth(M):
    """Least 2n (n >= 1) with S^(n-1) M and S^n M sharing a zero pattern.

    Derived matrix criterion (the source rules cover only the odd and
    H-depth cases); validated against depth-2 <=> normality on the corpus.
    """
    return depth_report(M).min_even_depth


def min_depth(M):
    """Minimum of the odd and even depth scans; 1 iff S is diagonal."""
    return depth_report(M).min_depth


@dataclass
class DepthReport:
    matrix: list
    min_odd_depth: int
    min_even_depth: int
    min_h_depth: int
    min_depth: int
    s_diagonal: bool
    t_diagonal: bool
    even_rule_derived: bool = True

    @cached_property
    def _bimodule(self):
        return bimodule_matrices(self.matrix)

    @property
    def S(self):
        """S = M M^t, built with T on the first read of either."""
        return self._bimodule[0]

    @property
    def T(self):
        """T = M^t M, built with S on the first read of either."""
        return self._bimodule[1]


def depth_report(M):
    """All depth invariants of one inclusion matrix, scanned on M."""
    _check(M)
    rows, cols = _support(M), _support(zip(*M))
    odd = 2 * _scan(cols, rows, [1 << i for i in range(len(rows))]) + 1
    even = 2 * _scan(cols, rows, [sum(1 << j for j in js) for js in rows]) + 2
    h = 2 * _scan(rows, cols, [1 << j for j in range(len(cols))]) + 1
    if abs(min(odd, even) - h) > 2:
        raise CheckFailed("depth and H-depth differ by more than 2")
    return DepthReport(matrix=M, min_odd_depth=odd, min_even_depth=even,
                       min_h_depth=h, min_depth=min(odd, even),
                       s_diagonal=all(len(js) < 2 for js in cols),
                       t_diagonal=all(len(js) < 2 for js in rows))


def burciu_depth1(G, H):
    """Depth-1 test via centers: Z(kH) inside Z(kG), that is, every class
    of H is a class of G.  An H-class sum is central in kG iff the H-class
    is a union of G-classes; it lies in one G-class, so iff it is that
    class.  Both partitions are cached as sorted index tuples of G.
    """
    g_classes = set(conjugacy_classes(G))
    return all(cls in g_classes for cls in h_classes(G, H))
