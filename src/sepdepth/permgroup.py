"""Finite permutation groups with full element enumeration.

Groups are given by permutation generators and enumerated by breadth-first
closure; everything downstream (conjugacy classes, centralizers, transversals,
orbit partitions and the group-theoretic separability criteria) works on the
fully enumerated element list.  Elements are ordered lexicographically by
image sequence so every partition and transversal is reproducible.
"""

from .errors import (CapExceeded, CheckFailed, ElementNotInGroup,
                     InvalidArgument, NotASubgroup)

DEFAULT_GROUP_CAP = 20000


class Permutation:
    """A bijection of {0, ..., degree-1}, stored as a tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation: {images}")
        self.images = images

    @property
    def degree(self):
        return len(self.images)

    def __mul__(self, other):
        # (p * q)(x) = p(q(x))
        return _trusted(tuple(map(self.images.__getitem__, other.images)))

    def inverse(self):
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return _trusted(tuple(inv))

    def is_identity(self):
        return all(i == j for i, j in enumerate(self.images))

    def order(self):
        n = 1
        p = self
        while not p.is_identity():
            p = p * self
            n += 1
        return n

    @staticmethod
    def identity(degree):
        return _trusted(tuple(range(degree)))

    @staticmethod
    def from_cycles(degree, cycles):
        im = list(range(degree))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                im[a] = b
        return Permutation(tuple(im))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        return f"Permutation({list(self.images)})"


def _trusted(images):
    """The Permutation with an image tuple already known to be a
    permutation: products and inverses of valid ones skip the check."""
    p = object.__new__(Permutation)
    p.images = images
    return p


def enumerate_closure(generators, cap=DEFAULT_GROUP_CAP):
    """Closure of the generators under composition, as a sorted tuple.

    Raises CapExceeded if the closure grows past cap.
    """
    if not generators:
        raise ValueError("empty generator list")
    degree = generators[0].degree
    if any(g.degree != degree for g in generators):
        raise ValueError("generators of unequal degree")
    seen = {Permutation.identity(degree)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = g * p
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
                    if len(seen) > cap:
                        raise CapExceeded("group order", len(seen), cap)
        frontier = nxt
    return tuple(sorted(seen))


class FiniteGroup:
    """A finitely generated permutation group, fully enumerated."""

    def __init__(self, generators, name=None, cap=DEFAULT_GROUP_CAP):
        self.generators = list(generators)
        self.name = name
        self.degree = self.generators[0].degree
        self.elements = enumerate_closure(self.generators, cap)
        self.element_set = frozenset(self.elements)
        self.order = len(self.elements)
        self.identity = Permutation.identity(self.degree)
        self._index = {p: i for i, p in enumerate(self.elements)}
        self._classes = None
        self._left_maps = {}
        self._right_maps = {}

    def __contains__(self, p):
        return p in self.element_set

    def index_of(self, p):
        return self._index[p]

    def left_mul_map(self, a):
        """Index map of g -> a * g on the elements (cached per a)."""
        cached = self._left_maps.get(a)
        if cached is None:
            index = self._index
            cached = self._left_maps[a] = [index[a * g]
                                           for g in self.elements]
        return cached

    def right_mul_map(self, a):
        """Index map of g -> g * a on the elements (cached per a)."""
        cached = self._right_maps.get(a)
        if cached is None:
            index = self._index
            cached = self._right_maps[a] = [index[g * a]
                                            for g in self.elements]
        return cached

    def exponent(self):
        from math import lcm
        return lcm(*(p.order() for p in self.elements))

    def subgroup(self, generators, name=None):
        return Subgroup(self, generators, name=name)

    def trivial_subgroup(self):
        return Subgroup(self, [self.identity], name="1")

    def full_subgroup(self):
        return Subgroup(self, self.generators, name=self.name)

    def __repr__(self):
        return f"FiniteGroup({self.name or 'unnamed'}, order={self.order})"


class Subgroup:
    """A subgroup of a FiniteGroup, enumerated from its own generators."""

    def __init__(self, parent, generators, name=None):
        self.parent = parent
        self.generators = list(generators)
        self.name = name
        for g in self.generators:
            if g not in parent:
                raise NotASubgroup(f"generator {g} not in parent group")
        self.elements = enumerate_closure(self.generators, cap=parent.order)
        self.element_set = frozenset(self.elements)
        self.order = len(self.elements)
        if parent.order % self.order != 0:
            raise NotASubgroup("Lagrange check failed")
        self._group = None
        self._h_orbits = {}   # G -> the H-orbits on G

    def __contains__(self, p):
        return p in self.element_set

    @property
    def index(self):
        return self.parent.order // self.order

    def as_group(self):
        """The same subgroup viewed as a standalone FiniteGroup (built
        once per subgroup)."""
        if self._group is None:
            self._group = FiniteGroup(self.generators, name=self.name,
                                      cap=self.parent.order)
        return self._group

    def __repr__(self):
        return f"Subgroup({self.name or 'unnamed'}, order={self.order})"


def _sorted_partition(classes):
    classes = [tuple(sorted(c)) for c in classes]
    classes.sort(key=lambda c: (len(c), c[0].images))
    return tuple(classes)


def _conjugation_orbits(elements, by):
    """Orbits of elements under conjugation by the elements of by."""
    pairs = [(g, g.inverse()) for g in by]
    remaining = set(elements)
    orbits = []
    while remaining:
        a = min(remaining)
        orb = {g * a * ginv for g, ginv in pairs}
        orbits.append(orb)
        remaining -= orb
    return _sorted_partition(orbits)


def conjugacy_classes(G):
    """Conjugacy classes of G, sorted by (size, minimal element); computed
    once per group."""
    if G._classes is None:
        G._classes = _conjugation_orbits(G.elements, G.elements)
    return G._classes


def centralizer(G, a):
    """C_G(a) as a Subgroup."""
    if a not in G:
        raise ElementNotInGroup(repr(a))
    elems = [g for g in G.elements if g * a == a * g]
    return Subgroup(G, elems, name=f"C({G.name})")


def center(G):
    """Z(G) as a Subgroup."""
    elems = [g for g in G.elements
             if all(g * s == s * g for s in G.generators)]
    return Subgroup(G, elems, name=f"Z({G.name})")


def right_transversal(G, H):
    """One representative per right coset Hg; identity first, then the
    lexicographically minimal element of each remaining coset."""
    _check_subgroup(G, H)
    seen = set()
    reps = []
    for g in G.elements:
        if g in seen:
            continue
        coset = {h * g for h in H.elements}
        reps.append(min(coset))
        seen |= coset
    reps.sort(key=lambda p: p.images)
    if not reps[0].is_identity():
        raise CheckFailed("transversal does not start with the identity")
    return reps


def h_orbits(G, H):
    """Orbits of G under conjugation by H; refines conjugacy_classes(G).
    Computed once per (G, H), and kept on H."""
    _check_subgroup(G, H)
    orbits = H._h_orbits.get(G)
    if orbits is None:
        orbits = H._h_orbits[G] = _conjugation_orbits(G.elements,
                                                      H.elements)
    return orbits


def property_S(G, H):
    """True iff every conjugacy class of G is a single H-orbit."""
    return h_orbits(G, H) == conjugacy_classes(G)


def _product_set_is_G(G, H, C):
    prods = set()
    target = G.order
    for h in H.elements:
        for c in C:
            prods.add(h * c)
            if len(prods) == target:
                return True
    return len(prods) == target


def lemma_S_via_centralizers(G, H):
    """True iff H * C_G(a) = G for every a in G."""
    _check_subgroup(G, H)
    for a in G.elements:
        C = [g for g in G.elements if g * a == a * g]
        if not _product_set_is_G(G, H, C):
            return False
    return True


def depth1_group(G, H):
    """True iff H * C_G(h) = G for every h in H (characteristic zero)."""
    _check_subgroup(G, H)
    for h in H.elements:
        C = [g for g in G.elements if g * h == h * g]
        if not _product_set_is_G(G, H, C):
            return False
    return True


def hz_condition(G, H):
    """True iff H * Z(G) = G."""
    _check_subgroup(G, H)
    Z = center(G)
    prods = {h * z for h in H.elements for z in Z.elements}
    return len(prods) == G.order


def is_normal(G, H):
    """True iff gHg^-1 = H for every generator g of G."""
    _check_subgroup(G, H)
    for g in G.generators:
        for h in H.generators:
            if g * h * g.inverse() not in H:
                return False
    return True


def _check_subgroup(G, H):
    if H.parent is not G and not H.element_set <= G.element_set:
        raise NotASubgroup("H is not a subgroup of G")


# ---------------------------------------------------------------------------
# constructors for standard families


def cyclic_group(n):
    return FiniteGroup([Permutation.from_cycles(n, [list(range(n))])],
                       name=f"C{n}")


def symmetric_group(n, degree=None):
    degree = degree or n
    gens = [Permutation.from_cycles(degree, [[0, 1]]),
            Permutation.from_cycles(degree, [list(range(n))])]
    if n == 2:
        gens = gens[:1]
    return FiniteGroup(gens, name=f"S{n}")


def alternating_group(n, degree=None):
    degree = degree or n
    gens = [Permutation.from_cycles(degree, [[0, 1, k]])
            for k in range(2, n)]
    return FiniteGroup(gens, name=f"A{n}")


def dihedral_group(n):
    """Dihedral group of order 2n acting on an n-gon."""
    rot = Permutation.from_cycles(n, [list(range(n))])
    refl = Permutation(tuple((n - i) % n for i in range(n)))
    return FiniteGroup([rot, refl], name=f"D{n}")


def _regular_group(elems, mul, name, gens):
    """Left regular permutation representation of an abstract group."""
    index = {e: i for i, e in enumerate(elems)}
    def perm(g):
        return Permutation(tuple(index[mul(g, x)] for x in elems))
    G = FiniteGroup([perm(g) for g in gens], name=name)
    G.abstract_perm = perm
    return G


def quaternion_group(m=4):
    """Generalized quaternion group of order 2m (m = 4 gives Q8).

    Presentation <a, b | a^m = 1, b^2 = a^(m/2), b a b^-1 = a^-1>,
    elements (k, eps) = a^k b^eps.
    """
    if m < 2 or m % 2:
        raise InvalidArgument(
            f"quaternion_group needs an even m >= 2, got {m}")
    elems = [(k, e) for e in (0, 1) for k in range(m)]

    def mul(x, y):
        k, e = x
        l, f = y
        if e == 0:
            return ((k + l) % m, f)
        k2 = (k - l) % m
        if f == 0:
            return (k2, 1)
        return ((k2 + m // 2) % m, 0)

    G = _regular_group(elems, mul, f"Q{2 * m}", [(1, 0), (0, 1)])
    return G


def extraspecial_27():
    """Heisenberg group over F3 (order 27, exponent 3), regular action."""
    elems = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]

    def mul(a, b):
        x, y, z = a
        u, v, w = b
        return ((x + u) % 3, (y + v) % 3, (z + w + x * v) % 3)

    return _regular_group(elems, mul, "E27", [(1, 0, 0), (0, 1, 0)])


def direct_product(G, K, name=None):
    d1, d2 = G.degree, K.degree
    gens = []
    for g in G.generators:
        gens.append(Permutation(g.images + tuple(d1 + i for i in range(d2))))
    for k in K.generators:
        gens.append(Permutation(tuple(range(d1))
                                + tuple(d1 + i for i in k.images)))
    return FiniteGroup(gens, name=name or f"{G.name}x{K.name}")


# ---------------------------------------------------------------------------
# subgroup harvesting (desk scale)


def derived_subgroup(G):
    comms = {a * b * a.inverse() * b.inverse()
             for a in G.elements for b in G.elements}
    return Subgroup(G, sorted(comms), name=f"[{G.name},{G.name}]")


def _conjugacy_key(G, elems):
    """Canonical key of a subgroup under conjugation in G."""
    best = None
    for g in G.elements:
        ginv = g.inverse()
        key = tuple(sorted((g * h * ginv).images for h in elems))
        if best is None or key < best:
            best = key
    return best


def cyclic_subgroups(G, up_to_conjugacy=True):
    subs = {}
    for g in G.elements:
        elems = enumerate_closure([g], cap=G.order)
        key = _conjugacy_key(G, elems) if up_to_conjugacy else \
            tuple(p.images for p in elems)
        if key not in subs:
            subs[key] = Subgroup(G, [g], name=f"<{list(g.images)}>")
    return [subs[k] for k in sorted(subs)]


def all_subgroups(G, up_to_conjugacy=True):
    """Every subgroup of G (up to conjugacy by default).  Desk scale only."""
    found = {}  # frozenset of elements -> generator list
    frontier = []
    triv = frozenset([G.identity])
    found[triv] = [G.identity]
    frontier.append(triv)
    while frontier:
        nxt = []
        for elems in frontier:
            gens = found[elems]
            for g in G.elements:
                if g in elems:
                    continue
                new = frozenset(enumerate_closure(gens + [g], cap=G.order))
                if new not in found:
                    found[new] = gens + [g]
                    nxt.append(new)
        frontier = nxt
    subs = {}
    for elems, gens in found.items():
        key = _conjugacy_key(G, elems) if up_to_conjugacy else \
            tuple(sorted(p.images for p in elems))
        if key not in subs or len(found[subs[key]]) > len(gens):
            subs[key] = elems
    out = []
    for key in sorted(subs):
        elems = subs[key]
        out.append(Subgroup(G, sorted(elems), name=f"order{len(elems)}"))
    out.sort(key=lambda H: (H.order, tuple(p.images for p in H.elements)))
    return out
