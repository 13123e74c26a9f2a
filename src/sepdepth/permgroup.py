"""Finite permutation groups with full element enumeration.

Groups are given by permutation generators and enumerated by breadth-first
closure; everything downstream (conjugacy classes, centralizers, transversals,
orbit partitions and the group-theoretic separability criteria) works on the
group's integer index data: element inverses and the right maps g -> g * a,
off which a * g = (g^-1 a^-1)^-1 is read.  A group's or subgroup's classes,
sizes, inverse classes and labels are one ``ClassData``, kept on it for
every module.  Elements are ordered lexicographically by image sequence
so every partition and transversal is reproducible.

A subgroup is built from its generators' indices in its parent and keeps
them and its elements' indices (``gen_indices``, ``indices``); only
``FiniteGroup.subgroup`` and ``centralizer`` map a Permutation to its
index.  Every (G, H) routine reads H in that numbering and returns index
tuples, so H is accepted in G only when its parent is G or has G's
elements, which number alike (else NotASubgroup).
"""

from dataclasses import dataclass
from math import gcd, lcm

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
        return _trusted(_inverse_images(self.images))

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


def _inverse_images(images):
    """The images of the inverse permutation: the points sorted by their
    images."""
    return tuple(sorted(range(len(images)), key=images.__getitem__))


class _Enumerated:
    """What groups and subgroups share: the sorted elements, their indices
    and their generators' indices in the parent's numbering, the exponent,
    the class record, and the H-orbits and right cosets in the parent,
    each computed once.  They are kept as index data, so a group
    caching on itself holds no reference to itself."""

    def _set_elements(self, elements, indices, gen_indices):
        self.elements = elements
        self.indices = indices
        self.gen_indices = gen_indices
        self.element_set = frozenset(elements)
        self.order = len(elements)
        self._exponent = None
        self._h_orbits = self._class_data = self._cosets = None

    def __contains__(self, p):
        return p in self.element_set

    def exponent(self):
        """The lcm of the cycle lengths of all elements (computed once)."""
        if self._exponent is None:
            self._exponent = lcm(*{n for p in self.elements
                                   for n in _cycle_lengths(p.images)})
        return self._exponent


class FiniteGroup(_Enumerated):
    """A finitely generated permutation group, fully enumerated.

    One breadth-first search over image tuples, along x -> x * s for each
    generator s and its inverse, builds the group and its integer index
    data: the elements (the tuples, sorted), the right maps of those steps
    (the search's products, numbered by sort position), and the search
    tree (each element's discovery parent and step).  The inverse of each
    element is an index list read off its image tuple.  The right map of
    any element is its tree parent's map composed with one step map, so
    no Permutation product is formed; it is cached per element as it is
    asked for, never built as one eager |G| x |G| table.  Raises
    CapExceeded once the search finds more than cap elements; it says
    only that the order exceeds the cap, since the search stops before
    the order is known.
    """

    def __init__(self, generators, name=None, cap=DEFAULT_GROUP_CAP):
        self.generators = list(generators)
        self.name = name
        if not self.generators:
            raise InvalidArgument("empty generator list")
        self.degree = self.generators[0].degree
        if any(g.degree != self.degree for g in self.generators):
            raise InvalidArgument("generators of unequal degree")
        # the images of each generator and of its inverse
        steps = [t for s in self.generators
                 for t in (s.images, _inverse_images(s.images))]
        # search in discovery numbers: rows[x] is element x's image tuple,
        # prods[k][x] the number of x * steps[k], and up[y], via[y] the x
        # and k that found y = x * steps[k]
        rows = [tuple(range(self.degree))]
        found = {rows[0]: 0}
        prods = [[] for _ in steps]
        up, via = [0], [0]
        for x, row in enumerate(rows):
            for k, step in enumerate(steps):
                y = tuple(map(row.__getitem__, step))
                j = found.get(y)
                if j is None:
                    j = found[y] = len(rows)
                    if j >= cap:
                        raise CapExceeded("group order", j + 1, cap,
                                          exact=False)
                    rows.append(y)
                    up.append(x)
                    via.append(k)
                prods[k].append(j)
        # renumber by sort position; the identity, the least tuple, is 0
        order = sorted(range(len(rows)), key=rows.__getitem__)
        at = [0] * len(rows)
        for i, x in enumerate(order):
            at[x] = found[rows[x]] = i
        self._index = found
        # the search's first steps, from the identity, reach the generators
        self._set_elements(tuple(_trusted(rows[x]) for x in order),
                           range(len(rows)),
                           [at[prods[2 * k][0]]
                            for k in range(len(self.generators))])
        self.inverse = [found[_inverse_images(rows[x])] for x in order]
        self._steps = [[at[prod[x]] for x in order] for prod in prods]
        self._up = [at[up[x]] for x in order]
        self._via = [via[x] for x in order]
        self._right_maps = {0: list(range(self.order))}
        self._central = None        # _central_indices, computed once

    @property
    def parent(self):
        """The group itself, so that it reads its classes as a subgroup."""
        return self

    def index_of(self, p):
        return self._index[p.images]

    def mul(self, i, j):
        """Index of elements[i] * elements[j]: i moved by the generators
        on the tree path from the identity to j."""
        path = []
        while j:
            path.append(self._steps[self._via[j]])
            j = self._up[j]
        for rmap in reversed(path):
            i = rmap[i]
        return i

    def right_map(self, a):
        """Index map of g -> g * elements[a], cached per a together with
        the maps on a's tree path: R_{x s} = R_s o R_x."""
        cache, path = self._right_maps, []
        while a not in cache:
            path.append(a)
            a = self._up[a]
        prev = cache[a]
        for y in reversed(path):
            prev = cache[y] = list(map(self._steps[self._via[y]].__getitem__,
                                       prev))
        return prev

    def subgroup(self, generators, name=None):
        """The subgroup generated by Permutations, mapped to indices."""
        generators = list(generators)
        bad = [g for g in generators if g not in self]
        if bad:
            raise NotASubgroup(f"generator {bad[0]} not in parent group")
        return Subgroup(self, map(self.index_of, generators), name=name)

    def trivial_subgroup(self):
        return Subgroup(self, [0], name="1")

    def full_subgroup(self):
        return Subgroup(self, self.gen_indices, name=self.name)

    def __repr__(self):
        return f"FiniteGroup({self.name or 'unnamed'}, order={self.order})"


def _cycle_lengths(images):
    """The lengths of the cycles of the permutation with these images."""
    todo = set(images)
    while todo:
        x = start = todo.pop()
        n = 1
        while (x := images[x]) != start:
            todo.remove(x)
            n += 1
        yield n


class Subgroup(_Enumerated):
    """The subgroup of a FiniteGroup generated by the elements with indices
    gen_indices, enumerated on the parent's index data.  Its element and
    generator indices in the parent are kept, and its classes and
    character table are read in them."""

    def __init__(self, parent, gen_indices, name=None):
        self.parent = parent
        self.name = name
        gen_indices = list(gen_indices)
        indices = tuple(sorted(_closure(parent, gen_indices)))
        self._set_elements(tuple(map(parent.elements.__getitem__, indices)),
                           indices, gen_indices)
        if parent.order % self.order != 0:
            raise NotASubgroup("Lagrange check failed")

    def __repr__(self):
        return f"Subgroup({self.name or 'unnamed'}, order={self.order})"


def _search(maps, start, seen):
    """The indices reached from start along the index maps, breadth first;
    each is added to the set seen."""
    seen.add(start)
    queue = [start]
    for x in queue:
        for m in maps:
            y = m[x]
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return queue


def _closure(G, gens):
    """Element indices of the subgroup of G generated by the indices gens,
    stepped along the generators' right maps x -> x * s."""
    return _search([G.right_map(s) for s in dict.fromkeys(gens)], 0, set())


def _conjugation_maps(G, by):
    """The maps x -> s x s^-1 on G's element indices for the indices s in
    by, read off the right map of s^-1 alone: with y = x s^-1,
    s y = (y^-1 s^-1)^-1.  Built for the caller and not cached."""
    inv = G.inverse
    for s in dict.fromkeys(by):
        rinv = G.right_map(inv[s])
        yield list(map(inv.__getitem__, map(rinv.__getitem__,
                                            map(inv.__getitem__, rinv))))


def index_orbits(size, maps):
    """Orbits of range(size) under the index maps, each a sorted tuple,
    ordered by least point."""
    seen = set()
    return [tuple(sorted(_search(maps, a, seen)))
            for a in range(size) if a not in seen]


def part_labels(partition, size):
    """label[x] = i for the x in the i-th part of a partition of some of
    range(size); None for the x in no part."""
    label = [None] * size
    for i, part in enumerate(partition):
        for x in part:
            label[x] = i
    return label


def _conjugation_orbits(G, by):
    """Orbits of G's element indices under conjugation by the subgroup
    generated by the indices by, sorted by (size, least index), which is
    the order of (size, least element)."""
    return tuple(sorted(index_orbits(G.order, list(_conjugation_maps(G, by))),
                        key=len))


def conjugacy_classes(G):
    """Conjugacy classes of a group or subgroup G as index tuples of
    G.parent, sorted by (size, least index)."""
    return class_data(G).classes


@dataclass(frozen=True)
class ClassData:
    classes: tuple          # tuple of tuples of element indices
    sizes: tuple
    inverse_map: tuple      # class index -> index of the inverse class
    class_of: tuple         # element index -> class index (None off G)
    elements: tuple         # the elements of G.parent, in index order

    @property
    def num_classes(self):
        return len(self.classes)


def class_data(G):
    """The class record of a group or subgroup G in G.parent's indices:
    its classes (its orbits on G.parent inside G, ordered as h_orbits),
    their sizes and inverses, each element's class; kept on G."""
    if G._class_data is None:
        inside = set(G.indices)
        classes = tuple(orb for orb in h_orbits(G.parent, G)
                        if orb[0] in inside)
        class_of = part_labels(classes, G.parent.order)
        inv = G.parent.inverse
        inverse_map = tuple(class_of[inv[cls[0]]] for cls in classes)
        if any(inverse_map[k] != i for i, k in enumerate(inverse_map)):
            raise CheckFailed("class inversion is not an involution")
        G._class_data = ClassData(classes, tuple(map(len, classes)),
                                  inverse_map, tuple(class_of),
                                  G.parent.elements)
    return G._class_data


def _centralizer_indices(G, a):
    """Indices of C_G(a) for the element index a: g with g a = a g, where
    a g = (g^-1 a^-1)^-1 is read off the right map of a^-1."""
    inv = G.inverse
    rinv = G.right_map(inv[a])
    left = map(inv.__getitem__, map(rinv.__getitem__, inv))
    return [g for g, (r, l) in enumerate(zip(G.right_map(a), left))
            if r == l]


def _central_indices(G):
    """The set of indices of the elements of G that commute with every
    generator of G, so with all of G: the points that the conjugation
    maps of G's generators all fix.  It is Z(G), read apart from the
    class record (``_center_indices``), which reads h_orbits, the route
    of property_S that the centralizer criteria are checked against.
    Computed once and kept on G."""
    if G._central is None:
        central = set(G.indices)
        for m in _conjugation_maps(G, G.gen_indices):
            central = {x for x in central if m[x] == x}
        G._central = central
    return G._central


def centralizer(G, a):
    """C_G(a) as a Subgroup."""
    if a not in G:
        raise ElementNotInGroup(repr(a))
    return Subgroup(G, _centralizer_indices(G, G.index_of(a)),
                    name=f"C({G.name})")


def _center_indices(G):
    """Indices of Z(G), the singleton classes, which sort first by index."""
    return [cls[0] for cls in conjugacy_classes(G) if len(cls) == 1]


def center(G):
    """Z(G) as a Subgroup."""
    return Subgroup(G, _center_indices(G), name=f"Z({G.name})")


def right_cosets(G, H):
    """The right cosets of H in G as two index lists (label, factor):
    elements[x] = elements[factor[x]] * g_j with j = label[x], where g_j is
    the least element of the j-th right coset and the cosets are numbered
    by least element.  Computed once, and kept on H."""
    _check_subgroup(G, H)
    if H._cosets is None:
        label = [None] * G.order
        factor = [0] * G.order
        j = 0
        for g in range(G.order):
            if label[g] is None:
                for h in H.indices:
                    x = G.mul(h, g)
                    label[x] = j
                    factor[x] = h
                j += 1
        H._cosets = (label, factor)
    return H._cosets


def right_transversal(G, H):
    """Element indices of one representative per right coset Hg: the
    identity first, then the least element of each remaining coset."""
    _, factor = right_cosets(G, H)
    reps = [x for x, h in enumerate(factor) if h == 0]
    if reps[0] != 0:
        raise CheckFailed("transversal does not start with the identity")
    return reps


def h_orbits(G, H):
    """Orbits of G's element indices under conjugation by H, sorted as
    conjugacy_classes(G), which they refine.  Enumerated once, and kept
    on H."""
    _check_subgroup(G, H)
    if H._h_orbits is None:
        H._h_orbits = _conjugation_orbits(G, H.gen_indices)
    return H._h_orbits


def h_classes(G, H):
    """Conjugacy classes of H in G's element indices, which are H's own:
    conjugacy_classes(H), kept on H in its class record."""
    _check_subgroup(G, H)
    return class_data(H).classes


def property_S(G, H):
    """True iff every conjugacy class of G is a single H-orbit."""
    return h_orbits(G, H) == conjugacy_classes(G)


def _covers_cosets(G, H, elems):
    """True iff the element indices elems meet every right coset of H."""
    label, _ = right_cosets(G, H)
    return len({label[x] for x in elems}) == G.order // H.order


def lemma_S_via_centralizers(G, H):
    """True iff H * C_G(a) = G for every a in G.

    H * C is the union of the right cosets H c for c in C, so it is G
    exactly when C meets every right coset of H.

    One a per H-orbit on G is enough: for h in H,
    C_G(h a h^-1) = h C_G(a) h^-1, so H C_G(h a h^-1) = H C_G(a) h^-1,
    which is G exactly when H C_G(a) = G.  The orbits are searched here,
    along the conjugation maps of H's generators, apart from h_orbits
    (property_S, the route this is checked against); the test stops at
    the first a that fails.  A central a is passed over: C_G(a) = G meets
    every coset.  That costs |G| for each conjugation map of a generator
    of G or of H, and |G| for the centralizer and cosets of each
    non-central H-orbit.
    """
    _check_subgroup(G, H)
    maps = list(_conjugation_maps(G, H.gen_indices))
    central = _central_indices(G)
    seen = set()
    for a in range(G.order):
        if a not in seen:
            if a not in central and not _covers_cosets(
                    G, H, _centralizer_indices(G, a)):
                return False
            _search(maps, a, seen)
    return True


def depth1_group(G, H):
    """True iff H * C_G(h) = G for every h in H (characteristic zero);
    the product set is tested as in lemma_S_via_centralizers.

    One h per conjugacy class of H is enough: for k in H,
    C_G(k h k^-1) = k C_G(h) k^-1, so H C_G(k h k^-1) = H C_G(h) k^-1,
    which is G exactly when H C_G(h) = G.  The least element of each
    class of h_classes is tested, unless it is central in G.
    """
    _check_subgroup(G, H)
    central = _central_indices(G)
    return all(cls[0] in central
               or _covers_cosets(G, H, _centralizer_indices(G, cls[0]))
               for cls in h_classes(G, H))


def hz_condition(G, H):
    """True iff H * Z(G) = G."""
    _check_subgroup(G, H)
    return _covers_cosets(G, H, _center_indices(G))


def is_normal(G, H):
    """True iff g h g^-1 lies in H for every generator g of G and h of H,
    each product read off G's index data."""
    _check_subgroup(G, H)
    inv, inside = G.inverse, set(H.indices)
    return all(G.mul(G.mul(g, h), inv[g]) in inside
               for g in G.gen_indices for h in H.gen_indices)


def _check_subgroup(G, H):
    """H's indices are G's: its parent is G, or has G's elements, which
    then sort, and so number, alike."""
    if H.parent is not G and H.parent.element_set != G.element_set:
        raise NotASubgroup("H is not a subgroup of G in G's numbering")


# ---------------------------------------------------------------------------
# constructors for standard families


def cyclic_group(n):
    return FiniteGroup([Permutation.from_cycles(n, [list(range(n))])],
                       name=f"C{n}")


def symmetric_group(n):
    gens = [Permutation.from_cycles(n, [[0, 1]]),
            Permutation.from_cycles(n, [list(range(n))])]
    if n == 2:
        gens = gens[:1]
    return FiniteGroup(gens, name=f"S{n}")


def alternating_group(n):
    gens = [Permutation.from_cycles(n, [[0, 1, k]])
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
    return FiniteGroup([perm(g) for g in gens], name=name)


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

    return _regular_group(elems, mul, f"Q{2 * m}", [(1, 0), (0, 1)])


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
    """[G, G] as the normal closure of the commutators of G's generators:
    each commutator, and each conjugate of a kept one by a generator of G,
    is kept while it lies outside the closure of those kept so far."""
    inv, mul, gens = G.inverse, G.mul, G.gen_indices
    queue = [mul(mul(a, b), mul(inv[a], inv[b]))
             for i, a in enumerate(gens) for b in gens[i + 1:]]
    found, inside = [], {0}
    for y in queue:
        if y not in inside:
            found.append(y)
            inside = set(_closure(G, found))
            queue.extend(mul(mul(s, y), inv[s]) for s in gens)
    return Subgroup(G, found, name=f"[{G.name},{G.name}]")


def _conjugacy_key(G, elems):
    """Canonical key of a subgroup, given by element indices, under
    conjugation in G: the least sorted index tuple of its conjugates.
    Indices order as the elements' image tuples do, so these keys sort
    exactly as the sorted image tuples of the conjugates would."""
    inv = G.inverse.__getitem__
    best = None
    for g in range(G.order):
        # g h g^-1 = ((g h^-1) g^-1)^-1, with g h^-1 = (h g^-1)^-1
        rginv = G.right_map(G.inverse[g]).__getitem__
        key = tuple(sorted(map(inv, map(rginv, map(inv, map(rginv, elems))))))
        if best is None or key < best:
            best = key
    return best


def cyclic_subgroups(G):
    """One <g> per conjugacy class of cyclic subgroups, g the least index
    generating a member, sorted by (order, indices).  <g'> is conjugate to
    <g> iff g' is conjugate to some g^k with gcd(k, |g|) = 1, so g is kept
    unless its class holds a generator of an earlier kept <g>."""
    class_of = class_data(G).class_of
    covered, subs = set(), []
    for g in range(G.order):
        if class_of[g] in covered:
            continue
        powers = _closure(G, [g])  # g^0, g^1, ... in order
        covered.update(class_of[x] for k, x in enumerate(powers)
                       if gcd(k, len(powers)) == 1)
        subs.append(Subgroup(G, [g],
                             name=f"<{list(G.elements[g].images)}>"))
    subs.sort(key=lambda H: (H.order, H.indices))
    return subs


def all_subgroups(G):
    """Every subgroup of G up to conjugacy, each built from the short
    generator list that found it.  Desk scale only."""
    found = {frozenset([0]): []}  # element indices -> generator list
    queue = list(found)
    for elems in queue:
        gens = found[elems]
        for g in range(G.order):
            if g not in elems:
                new = frozenset(_closure(G, gens + [g]))
                if new not in found:
                    found[new] = gens + [g]
                    queue.append(new)
    # found fills breadth first, in generator-count order, so each
    # class's first subgroup has the fewest generators
    subs = {}
    for elems in found:
        subs.setdefault(_conjugacy_key(G, elems), elems)
    out = [Subgroup(G, found[elems], name=f"order{len(elems)}")
           for elems in subs.values()]
    out.sort(key=lambda H: (H.order, H.indices))
    return out
