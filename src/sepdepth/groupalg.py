"""Exact rational linear algebra inside kG, the tensor square over kH, and
the endomorphism ring of kG as a kH-bimodule.

The tensor square A (x)_B A is spanned by {g (x) g_i} for g in G and g_i in
a fixed right transversal of H, with the rewrite g_i * a = h * g_j pulling
everything back onto the canonical basis.  kG is a Frobenius extension of
kH with dual bases g_i^-1, g_i, so the A-central (Casimir) subspace has
the basis w_O = sum_{d in O} sum_i g_i^-1 d (x) g_i, one per H-orbit O on
G.  The separability system mu(t) = 1 on it is read off in closed form:
mu(w_O) is [G:H] |O| / |L| times the class sum of the class L of G that
holds O, so the system is consistent with rank c, the number of classes,
and its kernel has dimension #H-orbits - c; no conjugate is formed and
nothing is eliminated (proof in ``separability_elements``).  Fullness of the
separability idempotent in T, and of the H-support projection in the
bimodule endomorphism ring U, are decided by integer trace-form counts
read off the identity-class row, where each class image is an indicator:
one image each, about |G| + |H| steps for T and |H| for U, no elimination
(proofs in ``is_full_in_T`` and ``is_full_in_U``).
"""

from collections import Counter
from fractions import Fraction
from functools import cached_property
from operator import add

from .errors import CapExceeded, CheckFailed
from .permgroup import (class_data, h_classes, index_orbits, right_cosets,
                        right_transversal)

DEFAULT_LINEAR_CAP = 4096


class TensorSquare:
    """Canonical-basis model of A (x)_B A for A = kG, B = kH.

    Basis index of g (x) g_i is  g_index * n + i  with elements of G sorted
    and the transversal ``reps`` (indices) identity-first.  Everything runs
    on G's index data: H's coset lists x = h * g_j, kept on H, and G.mul
    for single products.
    """

    def __init__(self, G, H, cap=DEFAULT_LINEAR_CAP):
        self.G = G
        self.H = H
        self.reps = right_transversal(G, H)
        self.n = len(self.reps)
        self.dim = G.order * self.n
        if self.dim > cap:
            raise CapExceeded("dim(A tensor_B A)", self.dim, cap)
        # coset factorization: x = factor[x] * g_j with j = label[x]
        self._label, self._factor = right_cosets(G, H)

    def _conj_index(self, idx, rs):
        """Basis index of s^-1 * b * s for the basis point b = idx, with rs
        the right map of the element index s (no basis permutation)."""
        G, n, inv = self.G, self.n, self.G.inverse
        g, i = divmod(idx, n)
        # (g (x) g_i) s = g h (x) g_j  where g_i s = h g_j, and
        # s^-1 g = (g^-1 s)^-1: one product, by the coset factor h
        x = rs[self.reps[i]]
        return G.mul(inv[rs[inv[g]]], self._factor[x]) * n + self._label[x]

    def is_central(self, t):
        """A-centrality: s^-1 * t * s = t for every generator s of G; looks
        only at the support of t."""
        for s in self.G.gen_indices:
            rs = self.G.right_map(s)
            for idx, c in t.items():
                if t.get(self._conj_index(idx, rs)) != c:
                    return False
        return True

    def casimir_basis(self):
        """The H-orbits O on G, one per element of the orbit basis
        w_O = sum_{d in O} sum_i g_i^-1 d (x) g_i of (A (x)_B A)^A, as
        sorted index tuples ordered by least element.

        d -> sum_i g_i^-1 d (x) g_i maps A^B onto the Casimir space (dual
        bases of the Frobenius extension), so the w_O, with disjoint
        supports, are a basis.  The H-orbits are searched here, under
        d -> s^-1 d s for H's generators s, apart from permgroup.h_orbits.
        """
        G, inv = self.G, self.G.inverse
        # s^-1 d s = ((d^-1 s)^-1) s, from the right map of s alone
        conj = []
        for s in self.H.gen_indices:
            rs = G.right_map(s)
            conj.append([rs[inv[rs[inv[d]]]] for d in range(G.order)])
        return index_orbits(G.order, conj)

    @cached_property
    def casimir(self):
        """casimir_basis(), computed once per tensor square."""
        return self.casimir_basis()

    def canonical_separability_element(self):
        """(1/[G:H]) sum_i g_i^-1 (x) g_i."""
        c = Fraction(1, self.n)
        inv = self.G.inverse
        return {inv[rep] * self.n + i: c for i, rep in enumerate(self.reps)}


def separability_elements(ts):
    """Classify the solutions of {t A-central, mu(t) = 1} in the tensor
    square ts of kG over kH.

    Returns (kind, witness, kernel_dim) with kind "unique" or "infinite"
    and kernel_dim = #H-orbits - #classes of G.  The witness is the
    canonical element e = (1/[G:H]) sum g_i^-1 (x) g_i.

    The Casimir space has the basis w_O, one per H-orbit O
    (``TensorSquare.casimir_basis``), and mu(w_O) = sum_{d in O} sum_i
    g_i^-1 d g_i is central in kG.  So sum_O c_O mu(w_O) = 1 holds iff it
    holds at one element z of each conjugacy class L of G, where
    mu(w_O)[z] = #{i : g_i z g_i^-1 in O}.  That count is
    [G:H] |O| / |L| when O lies in L, the class of z, and 0 otherwise:
    x -> x z x^-1 maps G onto L, |G|/|L| elements to each point, and
    for h in H it sends h g_i to h (g_i z g_i^-1) h^-1, which lies in O
    iff g_i z g_i^-1 does, as H-conjugation fixes O.  Hence
    |H| #{i : g_i z g_i^-1 in O} = #{x in G : x z x^-1 in O}
    = (|G|/|L|) |O|.

    So the column of w_O has one nonzero entry, in the row of its class.
    Every class holds an H-orbit, so every row has an entry, and the c
    rows have rank c; the identity class holds only the orbit {1}, whose
    entry is [G:H], so the system is consistent (c_{1} = 1/[G:H]) and its
    kernel has dimension #orbits - c.  No conjugate is formed and nothing
    is eliminated; what the closed form reads is checked in O(|G|) steps,
    raising CheckFailed: each Casimir orbit lies in one class of G, and
    the orbit sizes in each class L sum to |L|, so every row sums to
    [G:H].

    e is checked A-central with mu(e) = 1.  Both are linear in e, so the
    checks run on the integer element [G:H] e = sum_i g_i^-1 (x) g_i,
    every coefficient 1, which must be A-central with mu = [G:H] * 1; no
    Fraction is compared or summed.
    """
    G = ts.G
    cd = class_data(G)
    filled = [0] * cd.num_classes   # class L -> sum of |O| over O in L
    for orb in ts.casimir:
        labels = set(map(cd.class_of.__getitem__, orb))
        if len(labels) != 1:
            raise CheckFailed("a Casimir orbit meets two classes of G")
        filled[labels.pop()] += len(orb)
    if filled != list(cd.sizes):
        raise CheckFailed("the Casimir orbits in a class of G do not fill it")
    kernel_dim = len(ts.casimir) - cd.num_classes
    e = ts.canonical_separability_element()
    index_e = dict.fromkeys(e, 1)  # [G:H] e = sum_i g_i^-1 (x) g_i
    if not ts.is_central(index_e):
        raise CheckFailed("canonical separability element is not central")
    mu = Counter(G.mul(g, ts.reps[i])
                 for g, i in (divmod(idx, ts.n) for idx in index_e))
    if mu != {0: ts.n}:
        raise CheckFailed("mu of the canonical separability element is not 1")
    kind = "unique" if not kernel_dim else "infinite"
    return kind, e, kernel_dim


def _read_off(one, cd, image, at):
    """True iff one == sum_L lambda_L image(L) on every coordinate, where
    lambda_L = one[k0 * n + at[L]], k0 labelling the identity's class among
    the n classes of cd; image(L) is built only where lambda_L != 0."""
    row = cd.class_of[0] * cd.num_classes
    total = Counter()
    for L, col in enumerate(at):
        if row + col in one:
            for key, v in image(L).items():
                total[key] += one[row + col] * v
    return one == {key: v for key, v in total.items() if v}


def _teT_images(G, H):
    """Trace-form image of 1 and the G-class counts a^L, which span the
    trace-form image of TeT.

    An image has one integer coordinate K * c + K' per pair of the c
    conjugacy classes of G.  On a basis point b (x) g_j the trace form (see
    is_full_in_T) counts the h in H with (b h)^-1 in K and g_j^-1 h in K'.

    TeT is spanned by the w.r with w Casimir and r in A^B, and tau(w.r)
    lies in the span of the tau(w):

    - kG is a Frobenius extension of kH with dual bases g_i^-1 and g_i, so
      every Casimir element is w_d = sum_i g_i^-1 d (x) g_i with d in A^B.
    - w is A-central, so rho(w.r)(x (x) y) = w^1 (x) w^2 x r y, and the
      trace form of w.r is tau_{K,K'}(w.r) = Tr_A(a -> K (w^1 r w^2) a K').
    - For w = w_d, w^1 r w^2 = sum_i g_i^-1 (d r) g_i = mu(w_{dr}) with
      d r in A^B, hence tau(w_d.r) = tau(w_{dr}).

    The w themselves lie in TeT (r = 1), so span tau(TeT) = span{tau(w)}.
    The image of the Casimir orbit w_O = {g_i^-1 d (x) g_i : d in O, all i}
    of an H-orbit O is a class count: with L the G-class of O^-1 and z in L,

        tau(w_O)[K, K'] = |O| * a^L[K, K'],
        a^L[K, K'] = #{(y, x) in K x K' : y x = z}.

    For the point (i, d) and h in H put x = g_i^-1 h and y = (g_i^-1 d h)^-1,
    so y x = h^-1 d^-1 h.  As (i, h) runs over transversal x H, x runs
    over G exactly once, and for a fixed h, d -> h^-1 d^-1 h is a bijection
    from O onto O^-1; the number of (y, x) in K x K' with y x = u is the
    same for every u in L.  Every G-class contains an H-orbit, so
    span tau(TeT) = span{a^L : L a class of G}; on K = {1}, a^L is the
    indicator of L.

    Returns the image of 1 (the point 1 (x) 1), G's class record, whose
    labels number the classes, and image(L) -> a^L for the class labelled
    L, counted over the pairs (u^-1, u z), u in G, from the right map of
    the least element z of L: |G| steps, moving no basis point.
    """
    inv = G.inverse
    cd = class_data(G)
    c, class_of = cd.num_classes, cd.class_of
    one = Counter(class_of[inv[h]] * c + class_of[h] for h in H.indices)

    def image(L):
        # the K part of the pair (u^-1, u z), per element index u
        kpart = [class_of[y] * c for y in inv]
        z_map = G.right_map(cd.classes[L][0])
        return dict(Counter(map(add, kpart, map(class_of.__getitem__, z_map))))

    return dict(one), cd, image


def is_full_in_T(G, H):
    """Fullness of the canonical separability idempotent e in T.

    T = (A (x)_B A)^B, and TeT = T iff 1 is in TeT, which (T being
    semisimple in characteristic zero) holds iff every trace functional on
    T vanishing on TeT vanishes at 1.  The trace forms on T are spanned by
    t -> Tr(rho(z) rho(t)) with z running over the class-pair sums
    K (x) K' in the center of A (x) A^op acting on A (x)_B A; on a basis
    point b (x) g_j that trace counts, up to the constant factor dim, the
    h in H with (b h)^-1 in K and g_j^-1 h in K'.  So 1 is in TeT iff the
    trace-form image of 1 lies in the span of the images of TeT.  Those
    span what the c class-pair counts a^L span, one per class L of G with
    a^L[K, K'] = #{(y, x) in K x K' : y x = z} for a z in L (proof in
    ``_teT_images``).

    The coefficients are read off the identity-class row.  On K = {1}
    (label k0), a^L is the indicator of L, so one = sum_L lambda_L a^L
    forces lambda_L = one[k0 * c + L]; hence one is in the span iff it
    equals that combination on every coordinate.  On row k0 the image of 1
    holds only (1, 1), as h^-1 = 1 forces h = 1, so the one image built is
    the identity class's: |H| + |G| steps in all, no elimination.

    e is an idempotent of T with no check here: for an A-central e with
    mu(e) = 1, e . e = sum e'^1 e e'^2 = e mu(e') = e, and
    ``separability_elements`` checks both premises on e.
    """
    one, cd, image = _teT_images(G, H)
    return _read_off(one, cd, image, range(cd.num_classes))


def is_full_in_U(G, H):
    """Fullness of the H-support projection E in U = End_{kH-kH}(kG).

    U is semisimple in characteristic zero and its center is spanned by the
    H-class-sum pairs z = K (x) K' acting on kG by y -> K y K'.  So, as for
    T, 1 lies in the ideal UEU iff the trace-form image
    tau(u)[K, K'] = Tr(z . u) of 1 lies in the span of tau(UEU), and the
    images have one coordinate per pair of the r conjugacy classes of H.
    That span is the span of the r H-class counts

        b^C[K, K'] = #{k in K : k x_C in K'^-1},  x_C in C,

    one per class C of H:

    - z commutes with U, so Tr(z u E u') = Tr(z u' u E), and
      span tau(UEU) = span tau(UE).
    - With E = iota . pi (pi: kG -> kH the H-support projection, iota the
      inclusion), Tr_{kG}(z v iota pi) = Tr_{kH}(z|_{kH} pi v iota).
    - pi v iota runs over End_{kH-kH}(kH), which is Z(kH) acting by
      multiplication, spanned by the H-class sums C.
    - Tr_{kH}(y -> K C y K') = |H| |C| b^C[K, K']: the coefficient of y
      in K C y K' counts the (k, x, k') in K x C x K' with
      y^-1 k x y = k'^-1, that is the (k, x) with k x in K'^-1, as K'^-1
      is closed under H-conjugation; and H-conjugation permutes the pairs
      (k, x) in K x C, so the count can be taken at one x_C.

    The image of 1 is tau(1)[K, K'] = sum over (k, k') in K x K' of
    #{x in G : x^-1 k x = k'^-1}, that is |K| |K'| |G| / |L| when K and
    K'^-1 lie in one G-class L, and 0 otherwise.

    The coefficients are read off the identity-class row.  On K = {1}
    (label k0), b^C is the indicator of C^-1, so tau(1) = sum_C lambda_C
    b^C forces lambda_C = tau(1)[k0 * r + C^-1]; hence tau(1) is in the
    span iff it equals that combination on every coordinate.  On row k0
    the image of 1 holds only ({1}, {1}), so the one image built is
    b^{1}: about |H| steps in all (``_u_images``), no elimination.
    """
    one, cd, image = _u_images(G, H)
    return _read_off(one, cd, image, cd.inverse_map)


def _u_images(G, H):
    """The image of 1 as an integer vector keyed by K * r + K' for the r
    classes of H, H's class record, whose labels number them, and
    image(C) -> b^C for the class labelled C, counted off the right map of
    its least element x_C in |H| steps (see is_full_in_U).  The image of 1
    pairs the H-classes grouped by G-class, L with L^-1."""
    inv = G.inverse
    classes = h_classes(G, H)   # refuses an H not in G's numbering
    cd, cdG = class_data(H), class_data(G)
    r, class_of = len(classes), cd.class_of   # None off H
    in_g_class = {}     # G-class L -> the H-classes K inside it
    for K, kc in enumerate(classes):
        in_g_class.setdefault(cdG.class_of[kc[0]], []).append(K)
    one = {K * r + Kp: cd.sizes[K] * cd.sizes[Kp] * G.order // cdG.sizes[L]
           for L, Ks in in_g_class.items() for K in Ks
           for Kp in in_g_class.get(cdG.inverse_map[L], ())}

    def image(C):
        x_map = G.right_map(classes[C][0])
        counts = Counter()
        for k in H.indices:
            Kp = class_of[inv[x_map[k]]]
            if Kp is not None:
                counts[class_of[k] * r + Kp] += 1
        return dict(counts)

    return one, cd, image
