"""Exact rational linear algebra inside kG, the tensor square over kH, and
the endomorphism ring of kG as a kH-bimodule.

The tensor square A (x)_B A is spanned by {g (x) g_i} for g in G and g_i in
a fixed right transversal of H, with the rewrite g_i * a = h * g_j pulling
everything back onto the canonical basis.  Left/right multiplications by
group elements permute that basis, so the A-central (Casimir) and H-central
(T) subspaces are fixed spaces of permutation actions and come out as orbit
indicator bases -- already in reduced echelon form.  The same holds for the
bimodule endomorphism space U inside the |G| x |G| matrix coordinates.
"""

from collections import Counter
from fractions import Fraction
from operator import add

from .errors import CapExceeded, CheckFailed, NotInT
from .linalg import SparseEchelon, solve_affine
from .permgroup import conjugacy_classes, h_orbits, right_transversal

DEFAULT_LINEAR_CAP = 4096


def _orbit_partition(size, perms):
    """Orbits of {0..size-1} under a list of index permutations."""
    seen = [False] * size
    orbits = []
    for start in range(size):
        if seen[start]:
            continue
        orb = [start]
        seen[start] = True
        stack = [start]
        while stack:
            x = stack.pop()
            for p in perms:
                y = p[x]
                if not seen[y]:
                    seen[y] = True
                    orb.append(y)
                    stack.append(y)
        orbits.append(tuple(sorted(orb)))
    orbits.sort(key=lambda o: o[0])
    return orbits


def _indicator(orbit):
    return {i: Fraction(1) for i in orbit}


class TensorSquare:
    """Canonical-basis model of A (x)_B A for A = kG, B = kH.

    Basis index of g (x) g_i is  g_index * n + i  with elements of G sorted
    and the transversal identity-first.
    """

    def __init__(self, G, H, cap=DEFAULT_LINEAR_CAP):
        self.G = G
        self.H = H
        self.transversal = right_transversal(G, H)
        self.n = len(self.transversal)
        self.dim = G.order * self.n
        if self.dim > cap:
            raise CapExceeded("dim(A tensor_B A)", self.dim, cap)
        self.cap = cap
        # coset factorization x = h * g_j for every x in G
        self._coset = {}
        for j, rep in enumerate(self.transversal):
            for h in H.elements:
                self._coset[h * rep] = (j, h)
        self._left_cache = {}
        self._right_cache = {}

    def basis_index(self, g, i):
        return self.G.index_of(g) * self.n + i

    def basis_pair(self, idx):
        g = self.G.elements[idx // self.n]
        return g, idx % self.n

    # --- actions (all permutations of the basis, memoized per element) ---

    def left_perm(self, a):
        """Index permutation of t -> a * t."""
        cached = self._left_cache.get(a)
        if cached is not None:
            return cached
        n = self.n
        gmap = self.G.left_mul_map(a)
        out = [0] * self.dim
        for idx in range(self.dim):
            out[idx] = gmap[idx // n] * n + idx % n
        self._left_cache[a] = out
        return out

    def right_perm(self, a):
        """Index permutation of t -> t * a."""
        cached = self._right_cache.get(a)
        if cached is not None:
            return cached
        n = self.n
        moves = [self._coset[rep * a] for rep in self.transversal]
        out = [0] * self.dim
        for i, (j, h) in enumerate(moves):
            hmap = self.G.right_mul_map(h)
            for gi in range(self.G.order):
                out[gi * n + i] = hmap[gi] * n + j
        self._right_cache[a] = out
        return out

    def right_action(self, t, a):
        perm = self.right_perm(a)
        return {perm[k]: v for k, v in t.items()}

    def left_action(self, t, a):
        perm = self.left_perm(a)
        return {perm[k]: v for k, v in t.items()}

    def conj_perms(self, elements):
        """Permutations t -> s^-1 * t * s for s in elements."""
        perms = []
        for s in elements:
            lp = self.left_perm(s.inverse())
            rp = self.right_perm(s)
            perms.append([lp[rp[i]] for i in range(self.dim)])
        return perms

    def mu(self, t):
        """Multiplication map g (x) g_i -> g * g_i, as a kG vector."""
        out = {}
        for idx, c in t.items():
            g, i = self.basis_pair(idx)
            k = self.G.index_of(g * self.transversal[i])
            out[k] = out.get(k, 0) + c
            if not out[k]:
                del out[k]
        return out

    def t_square(self, t):
        """The T-product t . t, from the cached index maps.

        (g (x) g_i) . (g' (x) g_j) = g' g h (x) g_k  where g_i g_j = h g_k,
        that is g' times the right action of g_j on g (x) g_i.
        """
        n = self.n
        out = {}
        for idx2, c2 in t.items():
            gp, j = divmod(idx2, n)
            lmap = self.G.left_mul_map(self.G.elements[gp])
            rperm = self.right_perm(self.transversal[j])
            for idx1, c1 in t.items():
                gi, k = divmod(rperm[idx1], n)
                key = lmap[gi] * n + k
                out[key] = out.get(key, 0) + c1 * c2
        return {k: v for k, v in out.items() if v}

    # --- distinguished subspaces (orbit bases) ---

    def casimir_basis(self):
        """Orbit-indicator basis of (A (x)_B A)^A."""
        perms = self.conj_perms(self.G.generators)
        return [_indicator(o) for o in _orbit_partition(self.dim, perms)]

    def in_t(self, t):
        gens = self.H.generators or [self.G.identity]
        for perm in self.conj_perms(gens):
            moved = {perm[k]: v for k, v in t.items()}
            if moved != t:
                return False
        return True

    def is_central(self, t):
        """A-centrality: invariance under conjugation by all generators."""
        for perm in self.conj_perms(self.G.generators):
            moved = {perm[k]: v for k, v in t.items()}
            if moved != t:
                return False
        return True

    def canonical_separability_element(self):
        """(1/[G:H]) sum_i g_i^-1 (x) g_i."""
        c = Fraction(1, self.n)
        out = {}
        for i, rep in enumerate(self.transversal):
            idx = self.basis_index(rep.inverse(), i)
            out[idx] = out.get(idx, 0) + c
        return out


def centralizer_basis(G, H):
    """H-orbit sums spanning A^B, as kG coefficient dicts."""
    orbits = h_orbits(G, H)
    return [{G.index_of(g): Fraction(1) for g in orb} for orb in orbits]


def group_vec_mul(G, u, v):
    """Product of two kG coefficient dicts."""
    out = {}
    for i, a in u.items():
        gi = G.elements[i]
        for j, b in v.items():
            k = G.index_of(gi * G.elements[j])
            out[k] = out.get(k, 0) + a * b
    return {k: v for k, v in out.items() if v}


def casimir_space(G, H, cap=DEFAULT_LINEAR_CAP):
    ts = TensorSquare(G, H, cap=cap)
    return ts, ts.casimir_basis()


def separability_elements(G, H, ts=None, cap=DEFAULT_LINEAR_CAP):
    """Classify the solutions of {t A-central, mu(t) = 1}.

    Returns (kind, witness, kernel_dim) with kind in
    {"none", "unique", "infinite"}.  The witness, when the index is
    invertible, is the canonical element (1/[G:H]) sum g_i^-1 (x) g_i.
    """
    if ts is None:
        ts = TensorSquare(G, H, cap=cap)
    cas = ts.casimir_basis()
    # affine system: sum_a c_a mu(w_a) = 1 in kG
    mus = [ts.mu(w) for w in cas]
    rows = []
    rhs = []
    for gi in range(G.order):
        rows.append([m.get(gi, Fraction(0)) for m in mus])
        rhs.append(Fraction(1) if gi == G.index_of(G.identity)
                   else Fraction(0))
    sol, kernel = solve_affine(rows, rhs)
    if sol is None:
        return "none", None, len(kernel)
    e = ts.canonical_separability_element()
    if not ts.is_central(e):
        raise CheckFailed("canonical separability element is not central")
    if ts.mu(e) != {G.index_of(G.identity): Fraction(1)}:
        raise CheckFailed("mu of the canonical separability element is not 1")
    kind = "unique" if not kernel else "infinite"
    return kind, e, len(kernel)


def unique_separable(G, H, ts=None, cap=DEFAULT_LINEAR_CAP):
    kind, _, _ = separability_elements(G, H, ts=ts, cap=cap)
    return kind == "unique"


def idempotent_in_t(ts, e):
    if not ts.in_t(e):
        raise NotInT("element is not H-central")
    return ts.t_square(e) == e


def _one_in_span(one, images):
    """True iff the vector one lies in the span of the images.

    Repeated images are skipped, and the test stops as soon as one is in
    the span of the images seen so far.
    """
    ech = SparseEchelon()
    seen = set()
    for image in images:
        key = frozenset(image.items())
        if key in seen:
            continue
        seen.add(key)
        if ech.add(image) and ech.contains(one):
            return True
    return False


def _teT_counts(ts, label):
    """The spanning set {w.r} of TeT as integer multiplicities.

    w is a Casimir orbit indicator and r an H-orbit sum, so w.r hits basis
    index perm_g[k] once for each k in w and g in r, with perm_g the cached
    right permutation of g.  Each candidate is yielded as the counts of
    label[index] over those hits; the identity labelling gives w.r itself.
    """
    orbit_perms = [[ts.right_perm(g) for g in orb]
                   for orb in h_orbits(ts.G, ts.H)]
    for w in ts.casimir_basis():
        support = list(w)
        for orb in orbit_perms:
            counts = Counter()
            for perm in orb:
                counts.update(map(label.__getitem__, map(perm.__getitem__,
                                                         support)))
            yield counts


def _trace_form_signatures(ts):
    """Per-basis-point values of the trace forms that separate T's blocks.

    T is semisimple, so 1 lies in an ideal I iff every trace functional
    vanishing on I vanishes at 1.  The trace forms on T are spanned by
    t -> Tr(rho(z) rho(t)) with z running over class-sum pairs K (x) K' in
    the center of A (x) A^op acting on A (x)_B A; evaluated on a basis
    point b (x) g_j that trace counts, up to the constant factor dim,
    the h in H with (b h)^-1 in K and g_j^-1 h in K'.  Returns the distinct
    signatures, each a list of (K-index * r + K'-index, count) pairs, and
    for each basis index the position of its signature in that list.
    """
    G, H = ts.G, ts.H
    classes = conjugacy_classes(G)
    r = len(classes)
    class_of = {}
    for ci, cls in enumerate(classes):
        for g in cls:
            class_of[g] = ci
    # r * (K-index of (b h)^-1) per element index of b, and K'-index of
    # g_j^-1 h per transversal index j, both listed over h in H
    inv_class = [r * class_of[g.inverse()] for g in G.elements]
    hmaps = [G.right_mul_map(h) for h in H.elements]
    left = [[inv_class[hm[bi]] for hm in hmaps] for bi in range(G.order)]
    right = [[class_of[rep.inverse() * h] for h in H.elements]
             for rep in ts.transversal]
    position = {}
    sig_of = []
    for lrow in left:
        for rrow in right:
            sig = frozenset(Counter(map(add, lrow, rrow)).items())
            sig_of.append(position.setdefault(sig, len(position)))
    return [list(sig) for sig in position], sig_of


def is_full_in_T(G, H, e=None, ts=None, cap=DEFAULT_LINEAR_CAP):
    """Fullness of a separability idempotent in T = (A (x)_B A)^B.

    TeT = T iff 1 is in TeT, which (T being semisimple in characteristic
    zero) holds iff the trace-form image of 1 lies in the span of the
    trace-form images of a spanning set of TeT.  That image space has one
    coordinate per pair of conjugacy classes of G, so the membership test
    stays small no matter how large the tensor square is.  Every image is
    an integer vector; repeated images are skipped and the test stops as
    soon as the image of 1 is in the span.
    """
    if ts is None:
        ts = TensorSquare(G, H, cap=cap)
    if e is None:
        e = ts.canonical_separability_element()
    if not idempotent_in_t(ts, e):
        raise NotInT("e is not an idempotent of T")
    sigs, sig_of = _trace_form_signatures(ts)

    def project(counts):
        out = {}
        for s, mult in counts.items():
            for key, cnt in sigs[s]:
                out[key] = out.get(key, 0) + mult * cnt
        return out

    one = project({sig_of[ts.basis_index(G.identity, 0)]: 1})
    return _one_in_span(one, map(project, _teT_counts(ts, sig_of)))


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
        for h in (H.generators or [G.identity]):
            # F[y][x] = F[h y][h x]  and  F[y][x] = F[y h][x h]
            lp = [G.index_of(h * g) for g in G.elements]
            rp = [G.index_of(g * h) for g in G.elements]
            perms.append([lp[idx // N] * N + lp[idx % N]
                          for idx in range(self.ambient)])
            perms.append([rp[idx // N] * N + rp[idx % N]
                          for idx in range(self.ambient)])
        self.orbits = _orbit_partition(self.ambient, perms)

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


def is_full_in_U(G, H, cap=DEFAULT_LINEAR_CAP):
    """Fullness of the H-support projection E in U = End_{kH-kH}(kG).

    U is semisimple in characteristic zero and its center is spanned by the
    H-class-sum pairs K (x) K' acting on kG by y -> sum k y k'.  So, as for
    T, 1 lies in the ideal UEU iff the trace-form image of 1 lies in the
    span of the images of a spanning set of UEU, and the images have one
    coordinate per pair of conjugacy classes of H.  The spanning set is
    {lambda_c . f_O}: c runs over the H-orbit sums (a basis of A^B) and f_O
    over the basis of V = E . U (bimodule maps A -> B), one 0/1 map per
    H-orbit O with the entries (y, y o), y in H and o in O.

    The images are integer counts (``_u_trace_form_counts``); repeated
    ones are skipped and the test stops as soon as the image of 1 is in
    their span.
    """
    ambient = G.order * G.order
    if ambient > cap:
        raise CapExceeded("dim(U ambient)", ambient, cap)
    one, images = _u_trace_form_counts(G, H)
    return _one_in_span(one, images)


def _u_trace_form_counts(G, H):
    """The trace-form images for ``is_full_in_U``, as integer vectors keyed
    by K * r + K' for the r classes of H.

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
    orbit_of = [0] * G.order
    for oi, orb in enumerate(orbits):
        for g in orb:
            orbit_of[G.index_of(g)] = oi
    classes = conjugacy_classes(H.as_group())
    r = len(classes)
    class_of = {k: ci for ci, cls in enumerate(classes) for k in cls}
    hclass = [class_of[k] for k in H.elements]
    # coordinate (K, K') is K * r + K'; candidate (c, O) counts go under
    # O * r * r + K * r + K' while c is fixed
    orbit_key = [oi * r * r for oi in orbit_of]
    pair_keys = [[K * r + Kp for Kp in hclass] for K in range(r)]
    # row y: the element indices of y k' for k' in H
    rows = list(zip(*(G.right_mul_map(k) for k in H.elements)))

    one = {}
    for orb in orbits:
        x = orb[0]
        xinv = x.inverse()
        for k, K in zip(H.elements, hclass):
            kp = xinv * k.inverse() * x        # the k' with k x k' = x
            if kp in H:
                key = K * r + class_of[kp]
                one[key] = one.get(key, 0) + len(orb)

    def images():
        for orb in orbits:
            w = orb[0]
            counts = Counter()
            for k, K in zip(H.elements, hclass):
                row = rows[G.index_of(k * w)]
                counts.update(map(add, map(orbit_key.__getitem__, row),
                                  pair_keys[K]))
            by_orbit = {}
            for key, cnt in counts.items():
                oi, coord = divmod(key, r * r)
                by_orbit.setdefault(oi, {})[coord] = cnt
            yield from by_orbit.values()

    return one, images()


def corner_dims(G, H, ts=None, U=None, cap=DEFAULT_LINEAR_CAP):
    """(dim eTe, dim EUE) for the canonical e and E.

    eTe = mu(Casimir) . e -- left multiplication on the first tensor leg;
    EUE is the H x H matrix block of U.
    """
    if ts is None:
        ts = TensorSquare(G, H, cap=cap)
    e = ts.canonical_separability_element()
    ech = SparseEchelon()
    for w in ts.casimir_basis():
        z = ts.mu(w)
        vec = {}
        for gi, coeff in z.items():
            moved = ts.left_action(e, G.elements[gi])
            for k, v in moved.items():
                vec[k] = vec.get(k, 0) + coeff * v
        ech.add(vec)
    dim_eTe = ech.rank
    if U is None:
        U = USpace(G, H, cap=cap)
    E = U.projection_E()
    ech2 = SparseEchelon()
    for beta in U.basis():
        ech2.add(U.compose(E, U.compose(beta, E)))
    return dim_eTe, ech2.rank


def e_index(G, H):
    """sum_i g_i^-1 g_i as a kG vector; checked central and
    transversal-independent."""
    trans = right_transversal(G, H)
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
