"""Built-in verification corpus of group/subgroup pairs.

Groups up to order 27 plus the alternating and symmetric groups on five
letters.  Subgroups are taken up to conjugacy: every subgroup for groups
of order at most 16, otherwise all cyclic subgroups together with the
derived, trivial and full subgroups.
"""

from fnmatch import fnmatch

from .permgroup import (FiniteGroup, all_subgroups,
                        alternating_group, cyclic_group, cyclic_subgroups,
                        derived_subgroup, dihedral_group, direct_product,
                        extraspecial_27, quaternion_group, symmetric_group)

ALL_SUBGROUPS_MAX_ORDER = 16


def corpus_groups():
    """The corpus groups, in a fixed deterministic order."""
    groups = []
    for n in range(2, 13):
        groups.append(cyclic_group(n))
    for n in range(3, 9):
        groups.append(dihedral_group(n))
    groups.append(quaternion_group(4))      # Q8
    groups.append(quaternion_group(8))      # Q16
    groups.append(symmetric_group(3))
    groups.append(symmetric_group(4))
    groups.append(symmetric_group(5))
    groups.append(alternating_group(4))
    groups.append(alternating_group(5))
    groups.append(direct_product(symmetric_group(3), cyclic_group(2)))
    groups.append(direct_product(cyclic_group(2), cyclic_group(2)))
    groups.append(extraspecial_27())
    return groups


def corpus_subgroups(G):
    """Deterministically named subgroup list for one corpus group."""
    if G.order <= ALL_SUBGROUPS_MAX_ORDER:
        subs = all_subgroups(G)
    else:
        subs = list(cyclic_subgroups(G))
        subs.append(derived_subgroup(G))
        subs.append(G.trivial_subgroup())
        subs.append(G.full_subgroup())
    # dedup by element set, sort by (order, sorted element indices), which
    # is the order of the sorted element images
    seen = {}
    for H in subs:
        seen.setdefault((H.order, H.indices), H)
    ordered = [seen[key] for key in sorted(seen)]
    counts = {}
    for H in ordered:
        i = counts.get(H.order, 0)
        counts[H.order] = i + 1
        H.name = f"o{H.order}.{i}"
        if H.order == 1:
            H.name = "1"
        elif H.order == G.order:
            H.name = "full"
    return ordered


def corpus_pairs(name_filter=None):
    """Yield (pair_name, G, H) over the whole corpus, optionally filtered.

    The filter is a shell-style glob matched against "group/subgroup".
    """
    for G in corpus_groups():
        for H in corpus_subgroups(G):
            name = f"{G.name}/{H.name}"
            if name_filter and not fnmatch(name, name_filter):
                continue
            yield name, G, H
