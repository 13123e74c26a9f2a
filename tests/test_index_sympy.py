"""The groups' integer index data against sympy.combinatorics (test-only
dependency; skipped without sympy), on every corpus group."""

import pytest

combinatorics = pytest.importorskip("sympy.combinatorics")

from sepdepth.corpus import corpus_groups  # noqa: E402
from sepdepth.permgroup import (_centralizer_indices,  # noqa: E402
                                conjugacy_classes)


def test_index_data_matches_sympy():
    for G in corpus_groups():
        perm = {p: combinatorics.Permutation(list(p.images))
                for p in G.elements}
        S = combinatorics.PermutationGroup([perm[g] for g in G.generators])
        assert S.order() == G.order, G
        for i, p in enumerate(G.elements):
            inv = G.elements[G.inverse[i]]
            assert list(inv.images) == (~perm[p]).array_form
        # sympy composes left to right: (q * p)(x) = p(q(x))
        for i, j in ((1, G.order - 1), (G.order // 2, G.order // 3)):
            p, q = G.elements[i], G.elements[j]
            assert list(G.elements[G.mul(i, j)].images) == \
                (perm[q] * perm[p]).array_form
        classes = conjugacy_classes(G)
        assert sorted(map(len, classes)) == \
            sorted(map(len, S.conjugacy_classes())), G
        for cls in classes:
            a = cls[0]
            cent = _centralizer_indices(G, a)
            assert len(cent) == S.centralizer(perm[G.elements[a]]).order(), \
                (G, a)
            assert len(cent) * len(cls) == G.order
