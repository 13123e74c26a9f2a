"""Spanning routes for the group-algebra fullness tests, and the explicit
kG, tensor-square and U computations they use, for tests only.

Each one spans an ideal explicitly -- TeT inside the tensor square, UEU
inside the |G| x |G| matrix coordinates of U -- so the tests can hold the
integer trace-form tests ``is_full_in_T`` and ``is_full_in_U`` against
them.  They share no code with those tests beyond the group data and the
echelon kernel, except the two elimination routes below, which take
groupalg's class counts and differ from the tests only in how they
decide.  The T-product, the per-basis-point trace forms and the
permutations of the tensor-square basis are computed from Permutation
products; ``casimir_orbits`` searches the Casimir basis on all dim basis
points, the reference for ``casimir_points``, the point form of the
H-orbits of ``TensorSquare.casimir_basis``.  ``mu_system`` solves
mu(t) = 1 on the searched Casimir orbits with one row per element of G,
the reference for the closed form that ``separability_elements`` reads
off the orbit sizes.
``idempotent_in_t`` checks e . e = e on the points of e, which
``is_full_in_T`` takes from mu(e) = 1 and the A-centrality of e.
``casimir_trace_images`` counts the trace-form image of each Casimir
orbit point by point, the reference for the class-pair counts of
``groupalg._teT_images``.  ``is_full_in_T_by_elimination`` and
``is_full_in_U_by_elimination`` put every class count of ``_teT_images``
and ``_u_images`` through ``_one_in_span``, an echelon, the references for
the coefficients that ``is_full_in_T`` and ``is_full_in_U`` read off the
identity-class row.  ``_u_trace_form_counts`` counts the images of
UEU's spanning set {lambda_c . f_O}, one per pair of H-orbits, the
reference for the H-class counts of ``groupalg._u_images``, and
``u_class_traces`` takes those counts as traces over kH from Permutation
products.
"""

from collections import Counter
from fractions import Fraction
from math import lcm
from operator import add

from permgroup_oracles import element_view, generators
from sepdepth.errors import CapExceeded, CheckFailed, NotInT
from sepdepth.groupalg import (DEFAULT_LINEAR_CAP, TensorSquare,
                               _teT_images, _u_images)
from sepdepth.linalg import SparseEchelon
from sepdepth.permgroup import (conjugacy_classes, h_classes, h_orbits,
                                index_orbits, part_labels, right_cosets,
                                right_transversal)


def _indicator(orbit):
    return {i: Fraction(1) for i in orbit}


# ---------------------------------------------------------------------------
# kG


def centralizer_basis(G, H):
    """H-orbit sums spanning A^B, as kG coefficient dicts."""
    return [dict.fromkeys(orb, Fraction(1)) for orb in h_orbits(G, H)]


def group_vec_mul(G, u, v):
    """Product of two kG coefficient dicts."""
    out = {}
    for i, a in u.items():
        gi = G.elements[i]
        for j, b in v.items():
            k = G.index_of(gi * G.elements[j])
            out[k] = out.get(k, 0) + a * b
    return {k: v for k, v in out.items() if v}


def e_index(G, H):
    """sum_i g_i^-1 g_i as a kG vector; checked central and
    transversal-independent."""
    trans = [G.elements[r] for r in right_transversal(G, H)]
    out = _transversal_index_sum(G, trans)
    # second transversal: maximal coset representatives
    alt = []
    seen = set()
    for g in G.elements:
        if g in seen:
            continue
        coset = {h * g for h in H.elements}
        alt.append(max(coset))
        seen |= coset
    if _transversal_index_sum(G, alt) != out:
        raise CheckFailed("e-index depends on the transversal")
    for g in G.generators:
        gi = {G.index_of(g): Fraction(1)}
        if group_vec_mul(G, gi, out) != group_vec_mul(G, out, gi):
            raise CheckFailed("e-index is not central")
    return out


def _transversal_index_sum(G, trans):
    out = {}
    for rep in trans:
        k = G.index_of(rep.inverse() * rep)
        out[k] = out.get(k, 0) + Fraction(1)
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# T = (A (x)_B A)^B


def basis_index(ts, g, i):
    """Index of the basis point g (x) g_i."""
    return ts.G.index_of(g) * ts.n + i


def transversal(ts):
    """The tensor square's transversal as elements."""
    return [ts.G.elements[r] for r in ts.reps]


def coset_factor(ts, x):
    """(k, h) with x = h * g_k, by group products."""
    for k, rep in enumerate(transversal(ts)):
        h = x * rep.inverse()
        if h in ts.H:
            return k, h
    raise ValueError(f"{x} lies in no coset")


def right_perm(ts, a):
    """Index permutation of t -> t * a, by group products:
    (g (x) g_i) a = g h (x) g_j  where g_i a = h g_j."""
    out = [0] * ts.dim
    for i, rep in enumerate(transversal(ts)):
        j, h = coset_factor(ts, rep * a)
        for gi, g in enumerate(ts.G.elements):
            out[gi * ts.n + i] = basis_index(ts, g * h, j)
    return out


def conj_perms(ts, elements):
    """Permutations t -> s^-1 * t * s of the basis for s in elements."""
    G, n = ts.G, ts.n
    perms = []
    for s in elements:
        left = [G.index_of(s.inverse() * g) for g in G.elements]
        perms.append([left[k // n] * n + k % n for k in right_perm(ts, s)])
    return perms


def casimir_orbits(ts):
    """The Casimir basis by an orbit search of conjugation by G's
    generators on all dim basis points, ordered by least point."""
    return index_orbits(ts.dim, conj_perms(ts, ts.G.generators))


def casimir_points(ts):
    """The point form of ts.casimir: the support {g_i^-1 d (x) g_i : d in
    O, all i} of w_O for each H-orbit O, by group products, as sorted
    index tuples ordered by least point, as casimir_orbits."""
    G = ts.G
    inverses = [rep.inverse() for rep in transversal(ts)]
    return sorted(tuple(sorted(basis_index(ts, inv * G.elements[d], i)
                               for d in orbit
                               for i, inv in enumerate(inverses)))
                  for orbit in ts.casimir)


def mu(ts, t):
    """Multiplication map g (x) g_i -> g * g_i, as a kG vector, by group
    products."""
    G, reps = ts.G, transversal(ts)
    out = {}
    for idx, c in t.items():
        g, i = divmod(idx, ts.n)
        k = G.index_of(G.elements[g] * reps[i])
        out[k] = out.get(k, 0) + c
    return {k: v for k, v in out.items() if v}


def mu_system(ts):
    """(kind, kernel_dim, Casimir count) of sum_w c_w mu(w) = 1 over the
    Casimir orbits w of the orbit search casimir_orbits, with one row per
    element of G: the row of g holds the mu(w)[g] and, in the last column,
    [g = 1]."""
    G = ts.G
    mus = [mu(ts, dict.fromkeys(w, 1)) for w in casimir_orbits(ts)]
    ncols = len(mus)
    rows = [{} for _ in range(G.order)]
    for a, m in enumerate(mus):
        for g, c in m.items():
            rows[g][a] = c
    rows[0][ncols] = 1  # the identity is index 0
    ech = SparseEchelon(rows)
    if ncols in ech.rows:
        return "none", ncols - ech.rank + 1, ncols
    kernel_dim = ncols - ech.rank
    return ("unique" if not kernel_dim else "infinite"), kernel_dim, ncols


def unit(ts):
    """1 (x) 1."""
    return {basis_index(ts, ts.G.elements[0], 0): Fraction(1)}


def casimir_space(G, H, cap=DEFAULT_LINEAR_CAP):
    """The tensor square and its Casimir basis as 0/1 indicator vectors."""
    ts = TensorSquare(G, H, cap=cap)
    return ts, [dict.fromkeys(orbit, 1) for orbit in casimir_points(ts)]


def t_basis(ts):
    """Orbit-indicator basis of T."""
    perms = conj_perms(ts, generators(ts.H))
    return [_indicator(o) for o in index_orbits(ts.dim, perms)]


def t_product_index(ts, idx1, idx2):
    """Index of the T-product of two basis elements, by group products.

    (g (x) g_i) . (g' (x) g_j) = g' g h (x) g_k  where g_i g_j = h g_k.
    """
    gi, i = divmod(idx1, ts.n)
    gpi, j = divmod(idx2, ts.n)
    g, gp = ts.G.elements[gi], ts.G.elements[gpi]
    reps = transversal(ts)
    k, h = coset_factor(ts, reps[i] * reps[j])
    return basis_index(ts, gp * g * h, k)


def t_product(ts, t1, t2):
    out = {}
    for i1, c1 in t1.items():
        for i2, c2 in t2.items():
            k = t_product_index(ts, i1, i2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def t_square(ts, t):
    """The T-product t . t, read off G's index maps and coset table.

    (g (x) g_i) . (g' (x) g_j) = g' g h (x) g_k  where g_i g_j = h g_k.
    """
    G, n, reps = ts.G, ts.n, ts.reps
    E = G.elements
    at = {p: i for i, p in enumerate(E)}
    coset = list(zip(*right_cosets(G, ts.H)))
    terms = [(divmod(idx, n), c) for idx, c in t.items()]
    out = {}
    for (gp, j), c2 in terms:
        rep_j = G.right_map(reps[j])
        left_gp = [at[E[gp] * g] for g in E]
        for (g, i), c1 in terms:
            k, h = coset[rep_j[reps[i]]]
            key = G.right_map(h)[left_gp[g]] * n + k
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def in_t(ts, t):
    """H-centrality: s^-1 * t * s = t for H's generators s, point by point
    from group products."""
    G, reps = ts.G, transversal(ts)
    coset = {h * rep: (k, h) for k, rep in enumerate(reps)
             for h in ts.H.elements}
    for s in generators(ts.H):
        for idx, c in t.items():
            g, i = divmod(idx, ts.n)
            # (g (x) g_i) s = g h (x) g_j  where g_i s = h g_j
            j, h = coset[reps[i] * s]
            if t.get(basis_index(ts, s.inverse() * G.elements[g] * h,
                                 j)) != c:
                return False
    return True


def idempotent_in_t(ts, e):
    """True iff e . e = e, tested on integers: with d the lcm of the
    denominators of e and s = d e, e is idempotent iff s . s = d s."""
    if not in_t(ts, e):
        raise NotInT("element is not H-central")
    d = lcm(*(v.denominator for v in e.values()))
    s = {k: int(v * d) for k, v in e.items()}
    return t_square(ts, s) == {k: d * v for k, v in s.items()}


def teT_candidates(ts):
    """Spanning set of the ideal TeT, as explicit tensor-square vectors.

    T.e = Casimir and w.r = w with the second leg right-multiplied by
    r = t^1 t^2 in A^B, so TeT is spanned by {Casimir basis} x {A^B basis}.
    The Casimir basis comes from the orbit search ``casimir_orbits``.
    """
    cent = centralizer_basis(ts.G, ts.H)
    perms = [right_perm(ts, g) for g in ts.G.elements]
    for orbit in casimir_orbits(ts):
        for r in cent:
            vec = {}
            for gi in r:       # orbit sums have coefficient 1
                for k in orbit:
                    key = perms[gi][k]
                    vec[key] = vec.get(key, 0) + 1
            yield vec


def trace_form_signatures(ts):
    """Per-basis-point values of the trace forms that separate T's blocks,
    from group products: on b (x) g_j the form of the class pair (K, K')
    counts the h in H with (b h)^-1 in K and g_j^-1 h in K'.  Returns the
    distinct signatures, each a list of (K-index * r + K'-index, count)
    pairs, and for each basis index the position of its signature."""
    G, H = ts.G, ts.H
    classes = element_view(G, conjugacy_classes(G))
    r = len(classes)
    class_of = {g: ci for ci, cls in enumerate(classes) for g in cls}
    left = [[r * class_of[(b * h).inverse()] for h in H.elements]
            for b in G.elements]
    right = [[class_of[rep.inverse() * h] for h in H.elements]
             for rep in transversal(ts)]
    position = {}
    sig_of = []
    for lrow in left:
        for rrow in right:
            sig = frozenset(Counter(map(add, lrow, rrow)).items())
            sig_of.append(position.setdefault(sig, len(position)))
    return [list(sig) for sig in position], sig_of


def project(sigs, counts):
    """The trace-form image of a vector given as counts per signature."""
    out = {}
    for s, mult in counts.items():
        for key, cnt in sigs[s]:
            out[key] = out.get(key, 0) + mult * cnt
    return out


def trace_image(ts, vec, signatures=None):
    """The trace-form image of a tensor-square vector, point by point."""
    sigs, sig_of = signatures or trace_form_signatures(ts)
    counts = Counter()
    for idx, v in vec.items():
        counts[sig_of[idx]] += v
    return project(sigs, counts)


def casimir_trace_images(ts):
    """Trace-form images of 1 and of each Casimir orbit w, by the direct
    count over the points of w and H:

        tau(w)[K, K'] = #{((b, i) in w, h in H) : (b h)^-1 in K,
                                                  g_i^-1 h in K'},

    keyed by K * c + K' for the c classes of G; dim * |H| = |G|^2 steps in
    all.  Returns the image of 1 and the images, one per Casimir orbit in
    the order of casimir_points.
    """
    G, inv = ts.G, ts.G.inverse
    classes = conjugacy_classes(G)
    c = len(classes)
    class_of = part_labels(classes, G.order)
    hidx = ts.H.indices
    # the K part per element index b (row b of the maps g -> g h) and the
    # K' part per transversal index i, both listed over h in H
    kpart = [[class_of[inv[x]] * c for x in row]
             for row in zip(*map(G.right_map, hidx))]
    kppart = [[class_of[G.mul(inv[rep], h)] for h in hidx]
              for rep in ts.reps]
    one = Counter(class_of[inv[h]] * c + class_of[h] for h in hidx)

    def image(w):
        counts = Counter()
        for idx in w:
            b, i = divmod(idx, ts.n)
            counts.update(map(add, kpart[b], kppart[i]))
        return dict(counts)

    return dict(one), list(map(image, casimir_points(ts)))


def _one_in_span(one, images):
    """True iff the vector one lies in the span of the images.

    The test stops as soon as one is in the span of the images seen so
    far.  The class images are pairwise distinct (on K = {1}, a^L is the
    indicator of L and b^C that of C^-1), so none is deduplicated.
    """
    ech = SparseEchelon()
    for image in images:
        if ech.add(image) and ech.contains(one):
            return True
    return False


def teT_class_images(G, H):
    """The image of 1 and every class count a^L of
    ``groupalg._teT_images``, one per class of G in class-label order."""
    one, cd, image = _teT_images(G, H)
    return one, [image(L) for L in range(cd.num_classes)]


def u_class_images(G, H):
    """The image of 1 and every class count b^C of ``groupalg._u_images``,
    one per class of H in class-label order."""
    one, cd, image = _u_images(G, H)
    return one, [image(C) for C in range(cd.num_classes)]


def is_full_in_T_by_elimination(G, H):
    """e full in T iff the image of 1 lies in the span of all c class
    counts a^L, decided by the echelon: the route ``is_full_in_T`` replaced
    by reading the coefficients off the identity-class row."""
    return _one_in_span(*teT_class_images(G, H))


def is_full_in_U_by_elimination(G, H):
    """E full in U iff the image of 1 lies in the span of all r class
    counts b^C, decided by the echelon: the route ``is_full_in_U`` replaced
    by reading the coefficients off the identity-class row."""
    return _one_in_span(*u_class_images(G, H))


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
# U = End of A as an H-bimodule, in |G| x |G| matrix coordinates.
# Index of matrix entry (y, x) -- image coefficient y of basis element x --
# is  y_index * |G| + x_index.


class USpace:
    def __init__(self, G, H, cap=DEFAULT_LINEAR_CAP):
        self.G = G
        self.H = H
        self.ambient = G.order * G.order
        if self.ambient > cap:
            raise CapExceeded("dim(U ambient)", self.ambient, cap)
        perms = []
        N = G.order
        for h in generators(H):
            # F[y][x] = F[h y][h x]  and  F[y][x] = F[y h][x h]
            lp = [G.index_of(h * g) for g in G.elements]
            rp = [G.index_of(g * h) for g in G.elements]
            perms.append([lp[idx // N] * N + lp[idx % N]
                          for idx in range(self.ambient)])
            perms.append([rp[idx // N] * N + rp[idx % N]
                          for idx in range(self.ambient)])
        self.orbits = index_orbits(self.ambient, perms)

    def basis(self):
        return [_indicator(o) for o in self.orbits]

    @property
    def dim(self):
        return len(self.orbits)

    def projection_E(self):
        """The H-support projection as a matrix vector."""
        N = self.G.order
        return {self.G.index_of(h) * N + self.G.index_of(h): Fraction(1)
                for h in self.H.elements}

    def compose(self, f, g):
        """Matrix product f . g in sparse entry coordinates."""
        return self.compose_indexed(self.by_column(f), g)

    def by_column(self, f):
        """The entries of f grouped by column: x -> [(y, f[y][x])], the
        left operand of compose_indexed."""
        N = self.G.order
        cols = {}
        for idx, v in f.items():
            y, x = divmod(idx, N)
            cols.setdefault(x, []).append((y, v))
        return cols

    def compose_indexed(self, fcols, g):
        """f . g for f given as by_column(f)."""
        N = self.G.order
        out = {}
        for idx, gv in g.items():
            z, x = divmod(idx, N)
            for (y, fv) in fcols.get(z, ()):
                k = y * N + x
                out[k] = out.get(k, 0) + fv * gv
        return {k: v for k, v in out.items() if v}


def corner_dims(G, H, ts=None, U=None, cap=DEFAULT_LINEAR_CAP):
    """(dim eTe, dim EUE) for the canonical e and E.

    eTe = mu(Casimir) . e -- left multiplication on the first tensor leg;
    EUE is the H x H matrix block of U.
    """
    if ts is None:
        ts = TensorSquare(G, H, cap=cap)
    e = ts.canonical_separability_element()
    n = ts.n
    ech = SparseEchelon()
    for w in casimir_points(ts):
        z = mu(ts, dict.fromkeys(w, 1))
        vec = {}
        for gi, coeff in z.items():
            g = G.elements[gi]
            for k, v in e.items():
                b, i = divmod(k, n)
                key = G.index_of(g * G.elements[b]) * n + i
                vec[key] = vec.get(key, 0) + coeff * v
        ech.add(vec)
    dim_eTe = ech.rank
    if U is None:
        U = USpace(G, H, cap=cap)
    E = U.projection_E()
    ech2 = SparseEchelon()
    for beta in U.basis():
        ech2.add(U.compose(E, U.compose(beta, E)))
    return dim_eTe, ech2.rank


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
    classes = element_view(G, conjugacy_classes(H))
    r = len(classes)
    orbits = element_view(G, h_orbits(G, H))

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


def u_class_traces(G, H):
    """The H-class counts b^C of ``groupalg._u_images`` from Permutation
    products: Tr_{kH}(y -> K C y K') counts the (y, k, x, k') in
    H x K x C x K' with k x y k' = y, and b^C[K, K'] is that trace over
    |H| |C|.  Returns the nonzero images, one per class C of H."""
    classes = element_view(G, conjugacy_classes(H))
    r = len(classes)
    images = []
    for C in classes:
        image = {}
        for ki, K in enumerate(classes):
            for kpi, Kp in enumerate(classes):
                total = sum(k * x * y * kp == y for y in H.elements
                            for k in K for x in C for kp in Kp)
                if total:
                    image[ki * r + kpi] = Fraction(total,
                                                   H.order * len(C))
        images.append(image)
    return images


def _u_trace_form_counts(G, H):
    """The trace-form images of 1 and of UEU's spanning set
    {lambda_c . f_O}, as integer vectors keyed by K * r + K' for the r
    classes of H, the reference for the H-class counts of
    ``groupalg._u_images``.

    c runs over the H-orbit sums (a basis of A^B) and f_O over the basis of
    V = E . U (bimodule maps A -> B), one 0/1 map per H-orbit O with the
    entries (y, y o), y in H and o in O.

    Tr((K (x) K') . lambda_c . f_O) is |H| times the number of triples
    (w, k, k') with w in c, k in K, k' in K' and k w k' in O; the image of
    1 counts the triples (x, k, k') with k x k' = x.  Conjugation by H
    permutes these triples, so each image is counted at one representative
    w (or x) per H-orbit: the candidates are rescaled by 1 / (|H| |c|),
    which leaves their span alone, and the image of 1 is |orbit of x|
    times the count at x.  Returns the image of 1 and a generator of the
    nonzero candidate images, c by c.
    """
    orbits = h_orbits(G, H)
    orbit_of = part_labels(orbits, G.order)
    classes = h_classes(G, H)
    r = len(classes)
    class_of = part_labels(classes, G.order)   # None off H
    hidx = H.indices
    hclass = [class_of[x] for x in hidx]
    # coordinate (K, K') is K * r + K'; candidate (c, O) counts go under
    # O * r * r + K * r + K' while c is fixed
    orbit_key = [oi * r * r for oi in orbit_of]
    pair_keys = [[K * r + Kp for Kp in hclass] for K in range(r)]
    # row y: the element indices of y k' for k' in H
    rows = list(zip(*(G.right_map(k) for k in hidx)))
    inv = G.inverse
    reps = [orb[0] for orb in orbits]

    one = {}
    for x, orb in zip(reps, orbits):
        for k, K in zip(hidx, hclass):
            # the k' with k x k' = x
            Kp = class_of[G.mul(G.mul(inv[x], inv[k]), x)]
            if Kp is not None:
                key = K * r + Kp
                one[key] = one.get(key, 0) + len(orb)

    def images():
        for w in reps:
            counts = Counter()
            for k, K in zip(hidx, hclass):
                counts.update(map(add, map(orbit_key.__getitem__,
                                           rows[G.mul(k, w)]),
                                  pair_keys[K]))
            by_orbit = {}
            for key, cnt in counts.items():
                oi, coord = divmod(key, r * r)
                by_orbit.setdefault(oi, {})[coord] = cnt
            yield from by_orbit.values()

    return one, images()


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
