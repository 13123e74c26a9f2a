"""Exact rational linear algebra.

One eliminator lives here: a sparse incremental echelon over the
rationals.  It is fraction-free on integer input: entries come in as they
are, forward reduction cross-multiplies instead of dividing by a pivot,
and an integer row is stored primitive, so span tests on integer vectors
never build a ``Fraction``.  The group-algebra span tests use its forward
reduction; normal forms and back-substitution divide by pivots (an exact
quotient stays an ``int``) and give the reduced rows, and with them
nullspaces and affine solutions.  The dense routines (RREF, nullspace,
affine solve, rank) are list-in/list-out adapters over it.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd


def to_sparse(vec):
    """Sparse dict of a coordinate list; an integral Fraction comes back
    as an int, so integer data reaches the echelon's integer path."""
    return {k: x.numerator if getattr(x, "denominator", 0) == 1 else x
            for k, x in enumerate(vec) if x}


def to_dense(vec, n):
    """Coordinate list of length n of a sparse dict."""
    out = [Fraction(0)] * n
    for k, x in vec.items():
        out[k] = x
    return out


def _div(x, d):
    """x / d exactly for an int pivot d: an int when d divides an int x."""
    if type(x) is int and not x % d:
        return x // d
    return Fraction(x, d)


class SparseEchelon:
    """Row-echelon basis of sparse vectors, built incrementally.

    Vectors are dicts mapping coordinate index to a nonzero int or
    Fraction.  A row of ints only is stored primitive (its entries have
    gcd 1) with a positive pivot coefficient; a row holding a Fraction is
    stored with pivot coefficient 1.  Rows stay forward-reduced only until
    ``back_substitute`` turns them into the reduced row echelon form of
    their span, every pivot coefficient 1.
    """

    def __init__(self, vectors=()):
        self.rows = {}  # pivot index -> row dict (see the class docstring)
        self._reduced = True  # rows are the reduced row echelon form
        for vec in vectors:
            self.add(vec)

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec, full=False):
        """Return vec reduced against the basis.

        By default only until its leading entry is off the pivots, with
        no division by a pivot: an integer vec is cross-multiplied, so the
        result is vec's reduction up to a nonzero factor.  With full=True
        on every pivot, dividing by the pivots, which gives the normal
        form of vec modulo the span (zero on every pivot, unique for the
        span).  An empty vec comes back as a new empty dict at once.
        """
        if not vec:
            return {}
        vec = {k: v for k, v in vec.items() if v}
        heap = list(vec)
        heapify(heap)
        while heap:
            p = heappop(heap)
            c = vec.get(p)
            if not c:
                vec.pop(p, None)
                continue
            row = self.rows.get(p)
            if row is None:
                if full:
                    continue
                # p is the true pivot of the reduced vector
                break
            d = row[p]
            if d != 1:
                if full or type(c) is not int:
                    c = _div(c, d)
                else:
                    # vec <- (d/g) vec - (c/g) row
                    g = gcd(c, d)
                    c //= g
                    if g != d:
                        s = d // g
                        for k in vec:
                            vec[k] *= s
            for k, v in row.items():
                w = vec.get(k, 0) - c * v
                if w:
                    if k not in vec:
                        heappush(heap, k)
                    vec[k] = w
                else:
                    vec.pop(k, None)
        return vec

    def add(self, vec):
        """Insert vec; return True if it increased the rank."""
        vec = self.reduce(vec)
        if not vec:
            return False
        p = min(vec)
        if all(type(v) is int for v in vec.values()):
            g = gcd(*vec.values())
            if vec[p] < 0:
                g = -g
            if g != 1:
                vec = {k: v // g for k, v in vec.items()}
        else:
            inv = Fraction(1) / vec[p]
            vec = {k: v * inv for k, v in vec.items()}
        self.rows[p] = vec
        self._reduced = False
        return True

    def contains(self, vec):
        return not self.reduce(vec)

    def basis(self):
        """Basis rows sorted by pivot, as stored: an integer row has its
        primitive pivot coefficient, not 1, until ``back_substitute``."""
        return [self.rows[p] for p in sorted(self.rows)]

    def back_substitute(self):
        """Clear every pivot column outside its own row and scale each
        pivot coefficient to 1; return the rows, now the reduced row
        echelon form, sorted by pivot."""
        if not self._reduced:
            for p in sorted(self.rows, reverse=True):
                tail = self.rows[p]
                d = tail.pop(p)
                # rows with a larger pivot are reduced already
                tail = self.reduce(tail, full=True)
                if d != 1:
                    tail = {k: _div(v, d) for k, v in tail.items()}
                self.rows[p] = {p: 1, **tail}
            self._reduced = True
        return self.basis()

    def kernel(self, ncols):
        """Nullspace of the rows read as equations in unknowns
        0..ncols-1: one vector per free unknown f, with 1 at f."""
        rows = self.back_substitute()
        free = {f: {f: 1} for f in range(ncols) if f not in self.rows}
        for row in rows:
            p = min(row)
            for k, v in row.items():
                if k in free:
                    free[k][p] = -v
        return list(free.values())

    def solution(self, ncols):
        """Particular solution, free unknowns zero, of the rows read as
        an augmented system [A | b] with b in column ncols; None if the
        system is inconsistent."""
        rows = self.back_substitute()
        if ncols in self.rows:
            return None
        return {min(row): row[ncols] for row in rows if ncols in row}


# ---------------------------------------------------------------------------
# dense adapters


def _echelon(mat):
    return SparseEchelon(filter(None, map(to_sparse, mat)))


def _fractions(vec, n):
    """Dense list of a sparse row, every entry a Fraction: the dense
    routines hand back Fractions whatever the entry types."""
    return to_dense({k: Fraction(x) for k, x in vec.items()}, n)


def rref(mat):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    if not mat:
        return [], []
    ncols = len(mat[0])
    rows = _echelon(mat).back_substitute()
    return [_fractions(r, ncols) for r in rows], [min(r) for r in rows]


def nullspace(mat, ncols=None):
    """Basis of the right nullspace of mat (list of coordinate lists)."""
    if not mat:
        return [[Fraction(1) if i == j else Fraction(0) for i in range(ncols)]
                for j in range(ncols or 0)]
    ncols = len(mat[0])
    return [_fractions(v, ncols) for v in _echelon(mat).kernel(ncols)]


def solve_affine(mat, rhs):
    """Solve mat @ x = rhs exactly.

    Returns (particular solution or None, nullspace basis of mat).
    """
    if not mat:
        return [], []
    ncols = len(mat[0])
    ech = _echelon(list(row) + [b] for row, b in zip(mat, rhs))
    sol = ech.solution(ncols)
    null = [_fractions(v, ncols) for v in ech.kernel(ncols)]
    return (None if sol is None else _fractions(sol, ncols)), null


def rank(mat):
    return _echelon(mat).rank

