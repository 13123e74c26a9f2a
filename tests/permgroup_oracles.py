"""Group-side routines by Permutation products, for tests only.

``permgroup.lemma_S_via_centralizers`` and ``depth1_group`` decide
H * C_G(a) = G on the group's index data through right cosets; these build
every centralizer with ``g * a == a * g`` over all of G and enumerate the
product set H * C itself.  ``permgroup._conjugation_orbits`` searches
conjugation maps of generators on element indices; the oracle here
conjugates by every element of the acting group with Permutation products.
``permgroup`` returns partitions as index tuples; ``element_view`` reads
them as elements, and ``element_order`` is the oracle for
``FiniteGroup.exponent``.
"""


def element_order(p):
    """The least n >= 1 with p^n the identity, by repeated products."""
    n = 1
    q = p
    while not q.is_identity():
        q = q * p
        n += 1
    return n


def element_view(G, partition):
    """A partition of G's element indices as a partition of its elements."""
    return tuple(tuple(map(G.elements.__getitem__, c)) for c in partition)


def _product_set_is_G(G, H, C):
    prods = set()
    target = G.order
    for h in H.elements:
        for c in C:
            prods.add(h * c)
            if len(prods) == target:
                return True
    return len(prods) == target


def lemma_S_by_products(G, H):
    """True iff H * C_G(a) = G for every a in G."""
    for a in G.elements:
        C = [g for g in G.elements if g * a == a * g]
        if not _product_set_is_G(G, H, C):
            return False
    return True


def depth1_by_products(G, H):
    """True iff H * C_G(h) = G for every h in H."""
    for h in H.elements:
        C = [g for g in G.elements if g * h == h * g]
        if not _product_set_is_G(G, H, C):
            return False
    return True


def _sorted_partition(classes):
    classes = [tuple(sorted(c)) for c in classes]
    classes.sort(key=lambda c: (len(c), c[0].images))
    return tuple(classes)


def conjugation_orbits_by_products(elements, by):
    """Orbits of elements under conjugation by every element of by, each
    formed as {g * a * g^-1}, sorted by (size, minimal element)."""
    pairs = [(g, g.inverse()) for g in by]
    remaining = set(elements)
    orbits = []
    while remaining:
        a = min(remaining)
        orb = {g * a * ginv for g, ginv in pairs}
        orbits.append(orb)
        remaining -= orb
    return _sorted_partition(orbits)
