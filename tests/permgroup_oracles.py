"""Group-side routines by Permutation products, for tests only.

``permgroup.lemma_S_via_centralizers`` and ``depth1_group`` decide
H * C_G(a) = G on the group's index data through right cosets, at one a
per H-orbit on G and one h per class of H; ``lemma_S_all_elements`` and
``depth1_all_elements`` are the same coset test at every a in G and every
h in H, |G| centralizers and |H| centralizers, and ``lemma_S_by_products``
and ``depth1_by_products`` build every centralizer with
``g * a == a * g`` over all of G and enumerate the product set H * C
itself.  ``permgroup._conjugation_orbits`` searches
conjugation maps of generators on element indices; the oracle here
conjugates by every element of the acting group with Permutation products.
``permgroup`` returns partitions as index tuples; ``element_view`` reads
them as elements, and ``element_order`` is the oracle for
``FiniteGroup.exponent``.  ``cyclic_subgroups_by_keys`` and
``derived_subgroup_by_commutators`` are the subgroup harvest that
conjugates every cyclic subgroup by all of G and takes every commutator;
``every_subgroup`` lists all subgroups, not one per conjugacy class, and
``subgroup_index`` is [G:H].
"""

from sepdepth.permgroup import (Subgroup, _centralizer_indices,
                                _check_subgroup, _closure, _conjugacy_key,
                                _covers_cosets, all_subgroups)


def is_identity(p):
    return all(i == j for i, j in enumerate(p.images))


def element_order(p):
    """The least n >= 1 with p^n the identity, by repeated products."""
    n = 1
    q = p
    while not is_identity(q):
        q = q * p
        n += 1
    return n


def generators(H):
    """H's generators as elements of its parent."""
    return [H.parent.elements[i] for i in H.gen_indices]


def subgroup_index(H):
    """[G:H] for H in its parent G."""
    return H.parent.order // H.order


def cyclic_subgroups_by_keys(G):
    """One <g> per conjugacy class of cyclic subgroups, the first g in
    index order, each class told by the least sorted index tuple among
    the conjugates of <g> by all of G; sorted by that key."""
    subs, keys = {}, {}
    for g in range(G.order):
        elems = frozenset(_closure(G, [g]))
        key = keys.get(elems)
        if key is None:
            key = keys[elems] = _conjugacy_key(G, elems)
        subs.setdefault(key, g)
    return [Subgroup(G, [subs[k]]) for k in sorted(subs)]


def derived_subgroup_by_commutators(G):
    """[G, G] generated by a b a^-1 b^-1 for every pair of elements, read
    off the Permutation products a b and the right maps of all inverses."""
    E, inv = G.elements, G.inverse
    at = {p: i for i, p in enumerate(E)}
    right_inv = [G.right_map(b) for b in inv]
    comms = set()
    for a in range(G.order):
        la, rinv = [at[E[a] * g] for g in E], right_inv[a]
        comms.update(right_inv[b][rinv[la[b]]] for b in range(G.order))
    return Subgroup(G, sorted(comms))


def every_subgroup(G):
    """Every subgroup of G, sorted by (order, indices): each conjugate
    g H g^-1 of each all_subgroups representative H, by Permutation
    products, built from the indices of its conjugated generators."""
    at = {p: i for i, p in enumerate(G.elements)}
    found = {}
    for H in all_subgroups(G):
        for g in G.elements:
            ginv = g.inverse()
            key = tuple(sorted(at[g * h * ginv] for h in H.elements))
            found.setdefault(key, [at[g * s * ginv] for s in generators(H)])
    return [Subgroup(G, found[key])
            for key in sorted(found, key=lambda t: (len(t), t))]


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


def lemma_S_all_elements(G, H):
    """True iff H * C_G(a) = G for every a in G, tested at every a."""
    _check_subgroup(G, H)
    return all(_covers_cosets(G, H, _centralizer_indices(G, a))
               for a in range(G.order))


def depth1_all_elements(G, H):
    """True iff H * C_G(h) = G for every h in H, tested at every h."""
    _check_subgroup(G, H)
    return all(_covers_cosets(G, H, _centralizer_indices(G, h))
               for h in H.indices)


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
