"""Spanning routes for the group-algebra fullness tests, for tests only.

Each one spans an ideal explicitly -- TeT inside the tensor square, UEU
inside the |G| x |G| matrix coordinates of U -- so the tests can hold the
integer trace-form tests ``is_full_in_T`` and ``is_full_in_U`` against
them.  They share no code with those tests beyond the group data, the
idempotent check on e and the echelon kernel.
"""

from fractions import Fraction

from sepdepth.errors import NotInT
from sepdepth.groupalg import (DEFAULT_LINEAR_CAP, TensorSquare, USpace,
                               _indicator, _orbit_partition,
                               centralizer_basis, idempotent_in_t)
from sepdepth.linalg import SparseEchelon
from sepdepth.permgroup import conjugacy_classes, h_orbits


# ---------------------------------------------------------------------------
# T = (A (x)_B A)^B


def unit(ts):
    """1 (x) 1."""
    return {ts.basis_index(ts.G.identity, 0): Fraction(1)}


def t_basis(ts):
    """Orbit-indicator basis of T."""
    perms = ts.conj_perms(ts.H.generators or [ts.G.identity])
    return [_indicator(o) for o in _orbit_partition(ts.dim, perms)]


def t_product_index(ts, idx1, idx2):
    """Index of the T-product of two basis elements, by group products.

    (g (x) g_i) . (g' (x) g_j) = g' g h (x) g_k  where g_i g_j = h g_k.
    """
    g, i = ts.basis_pair(idx1)
    gp, j = ts.basis_pair(idx2)
    k, h = ts._coset[ts.transversal[i] * ts.transversal[j]]
    return ts.basis_index(gp * g * h, k)


def t_product(ts, t1, t2):
    out = {}
    for i1, c1 in t1.items():
        for i2, c2 in t2.items():
            k = t_product_index(ts, i1, i2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def teT_candidates(ts):
    """Spanning set of the ideal TeT, as explicit tensor-square vectors.

    T.e = Casimir and w.r = w with the second leg right-multiplied by
    r = t^1 t^2 in A^B, so TeT is spanned by {Casimir basis} x {A^B basis}.
    """
    G = ts.G
    cent = centralizer_basis(G, ts.H)
    for w in ts.casimir_basis():
        for r in cent:
            vec = {}
            for gi in r:       # orbit sums have coefficient 1
                moved = ts.right_action(w, G.elements[gi])
                for k, v in moved.items():
                    vec[k] = vec.get(k, 0) + v
            yield vec


def is_full_in_T_span(G, H, e=None, ts=None, cap=DEFAULT_LINEAR_CAP):
    """Fullness via the explicit span of TeT inside T (small pairs only)."""
    if ts is None:
        ts = TensorSquare(G, H, cap=cap)
    if e is None:
        e = ts.canonical_separability_element()
    if not idempotent_in_t(ts, e):
        raise NotInT("e is not an idempotent of T")
    tdim = len(t_basis(ts))
    ech = SparseEchelon()
    for vec in teT_candidates(ts):
        ech.add(vec)
        if ech.rank == tdim:
            return True
    return ech.rank == tdim


def t_span_brute(ts, e):
    """Span of {t_a . e . t_b} over the T-basis."""
    basis = t_basis(ts)
    ech = SparseEchelon()
    for ta in basis:
        left = t_product(ts, ta, e)
        for tb in basis:
            ech.add(t_product(ts, left, tb))
    return ech


class TProductTable:
    """T with structure constants over its orbit basis (small pairs)."""

    def __init__(self, ts):
        self.ts = ts
        self.basis = t_basis(ts)

    def product(self, i, j):
        return t_product(self.ts, self.basis[i], self.basis[j])

    def coords(self, vec):
        """Coordinates over the orbit basis (supports are disjoint)."""
        out = {}
        for b_idx, b in enumerate(self.basis):
            rep = min(b)
            if rep in vec:
                out[b_idx] = vec[rep]
        # verify the vector is truly in T
        recon = {}
        for b_idx, c in out.items():
            for k in self.basis[b_idx]:
                recon[k] = recon.get(k, 0) + c
        if {k: v for k, v in recon.items() if v} != \
                {k: v for k, v in vec.items() if v}:
            raise NotInT("product left the H-central subspace")
        return out


# ---------------------------------------------------------------------------
# U = End of A as an H-bimodule, in |G| x |G| matrix coordinates


def left_mul_matrix(U, vec):
    """lambda_c for a kG coefficient dict c."""
    G, N = U.G, U.G.order
    out = {}
    for zi, coeff in vec.items():
        z = G.elements[zi]
        for x in range(N):
            k = G.index_of(z * G.elements[x]) * N + x
            out[k] = out.get(k, 0) + coeff
    return {k: v for k, v in out.items() if v}


def is_full_in_U_span(G, H, U=None, cap=DEFAULT_LINEAR_CAP):
    """Fullness of the H-support projection E in U, by spanning UEU.

    UEU = span{lambda_c . f} with c over a basis of A^B and f over a basis
    of V = E . U (bimodule maps A -> B): alpha . E . beta factors through
    alpha(1) in A^B.
    """
    if U is None:
        U = USpace(G, H, cap=cap)
    E = U.by_column(U.projection_E())
    # V = span{E . beta}
    vech = SparseEchelon()
    for beta in U.basis():
        vech.add(U.compose_indexed(E, beta))
    ech = SparseEchelon()
    for c in centralizer_basis(G, H):
        lam = U.by_column(left_mul_matrix(U, c))
        for f in vech.basis():
            ech.add(U.compose_indexed(lam, f))
            if ech.rank == U.dim:
                return True
    return ech.rank == U.dim


def u_trace_images(G, H):
    """Trace-form images of 1 and of every lambda_c . f_O, from explicit
    matrices: Tr(z . F) for z = K (x) K' is the sum of F[k^-1 x k'^-1][x]
    over x in G, k in K and k' in K'.  lambda_c . f_O has the entries
    (w y, y o) for w in c, y in H and o in O; its image is divided by
    |H| |c|.  Returns the image of 1 and the nonzero candidate images."""
    classes = conjugacy_classes(H.as_group())
    r = len(classes)
    orbits = [list(orb) for orb in h_orbits(G, H)]

    def image(F):
        out = {}
        for ki, K in enumerate(classes):
            for kpi, Kp in enumerate(classes):
                total = sum(F.get((k.inverse() * x * kp.inverse(), x), 0)
                            for x in G.elements for k in K for kp in Kp)
                if total:
                    out[ki * r + kpi] = total
        return out

    one = image({(x, x): 1 for x in G.elements})
    images = []
    for c in orbits:
        for O in orbits:
            F = {}
            for w in c:
                for y in H.elements:
                    for o in O:
                        key = (w * y, y * o)
                        F[key] = F.get(key, 0) + 1
            scale = H.order * len(c)
            img = {k: Fraction(v, scale) for k, v in image(F).items()}
            if img:
                images.append(img)
    return one, images


def u_span_brute(U):
    """Span of {alpha . E . beta} over the U basis."""
    E = U.projection_E()
    ech = SparseEchelon()
    basis = U.basis()
    for a in basis:
        left = U.compose(a, E)
        for b in basis:
            ech.add(U.compose(left, b))
    return ech
