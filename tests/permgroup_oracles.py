"""The centralizer criteria by Permutation products, for tests only.

``permgroup.lemma_S_via_centralizers`` and ``depth1_group`` decide
H * C_G(a) = G on the group's index data through right cosets; these build
every centralizer with ``g * a == a * g`` over all of G and enumerate the
product set H * C itself.
"""


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
