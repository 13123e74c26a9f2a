"""Minimum depth and H-depth from zero patterns of inclusion-matrix powers.

S = M M^t and T = M^t M stay integer matrices, but the scans read only
where their powers vanish, so they run on boolean row masks: row i of a
power is an int with bit j set where entry (i, j) is nonzero, and a step
ORs the previous power's masks over the set bits of a row of S or T.
That is exact because the entries are nonnegative: no sum of products
cancels.  The diagonal of S and T is positive on the nonzero lines of M
(their squared lengths), so the zero set only shrinks and "equal number
of zero entries" is equal masks.  The even-depth rule (compare S^(n-1)M
with S^n M) is a derived criterion, flagged as such in reports.
"""

from dataclasses import dataclass
from functools import reduce
from operator import mul, or_

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
    if any(type(x) is not int for row in M for x in row):
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


def _scan(step, power):
    """Least n >= 0 with step^n start and step^(n+1) start sharing their
    row masks; power holds the start's masks, step the supports of S or T.
    Row i of step^n start is the OR of start's rows within distance n of
    i in the graph of step, so the masks settle within len(step) steps."""
    for n in range(len(step) + 2):
        nxt = [reduce(or_, map(power.__getitem__, js), 0) for js in step]
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
    step = _support(S)  # shared by the odd and the even scan
    odd = 2 * _scan(step, [1 << i for i in range(len(S))]) + 1
    even = 2 * _scan(step, [sum(1 << j for j in js) for js in _support(M)]) + 2
    h = 2 * _scan(_support(T), [1 << i for i in range(len(T))]) + 1
    if abs(min(odd, even) - h) > 2:
        raise CheckFailed("depth and H-depth differ by more than 2")
    return DepthReport(matrix=M, S=S, T=T, min_odd_depth=odd,
                       min_even_depth=even, min_h_depth=h,
                       min_depth=min(odd, even))


def burciu_depth1(G, H):
    """Depth-1 test via centers: Z(kH) inside Z(kG), that is, every class
    of H is a class of G.  An H-class sum is central in kG iff the H-class
    is a union of G-classes; it lies in one G-class, so iff it is that
    class.  Both partitions are cached as sorted index tuples of G.
    """
    g_classes = set(conjugacy_classes(G))
    return all(cls in g_classes for cls in h_classes(G, H))
