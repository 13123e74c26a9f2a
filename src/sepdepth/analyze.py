"""Per-pair analysis reports and the cross-criterion agreement table.

Every invariant that two or more modules can compute independently is
computed by all of them and compared; a report carries an explicit
AGREE/DISAGREE verdict per comparison.  Pairs whose tensor square exceeds
the linear cap keep the matrix-criterion results and mark the skipped
comparisons.
"""

from dataclasses import dataclass, field, fields

from .chartable import character_table_mod_p, common_prime, inclusion_matrix
from .depth import burciu_depth1, depth_report
from .errors import CapExceeded
from .groupalg import (DEFAULT_LINEAR_CAP, TensorSquare, is_full_in_T,
                       is_full_in_U, separability_elements)
from .permgroup import (conjugacy_classes, depth1_group, h_classes,
                        h_orbits, hz_condition, is_normal,
                        lemma_S_via_centralizers, property_S)

AGREE = "AGREE"
DISAGREE = "DISAGREE"
SKIPPED = "SKIPPED(cap)"


@dataclass
class AnalysisReport:
    group: str
    subgroup: str
    group_order: int
    subgroup_order: int
    index: int
    num_classes_g: int
    num_classes_h: int
    num_h_orbits: int
    property_s: bool
    lemma_s: bool
    hz: bool
    depth1_group: bool
    normal: bool
    burciu_depth1: bool
    prime: int
    seed: int
    inclusion_matrix: list
    min_depth: int
    min_odd_depth: int
    min_even_depth: int
    min_h_depth: int
    even_rule_derived: bool
    s_diagonal: bool
    t_diagonal: bool
    center_dim: int
    casimir_dim: int = None
    unique_separable: bool = None
    separability_kind: str = None
    full_in_t: bool = None
    full_in_u: bool = None
    caps_hit: list = field(default_factory=list)
    agreements: dict = field(default_factory=dict)

    @property
    def disagreements(self):
        return sorted(k for k, v in self.agreements.items() if v == DISAGREE)

    def to_json_dict(self):
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["inclusion_matrix"] = [list(r) for r in self.inclusion_matrix]
        out["caps_hit"] = sorted(self.caps_hit)
        out["agreements"] = dict(sorted(self.agreements.items()))
        return out


def _all_agree(*verdicts):
    vals = [v for v in verdicts if v is not None]
    return AGREE if len(set(vals)) <= 1 else DISAGREE


def _implies(premise, conclusion):
    if conclusion is None:
        return SKIPPED
    return AGREE if (not premise or conclusion) else DISAGREE


def analyze_pair(G, H, seed=0, cap_linear=DEFAULT_LINEAR_CAP,
                 matrix_only=False, table_g=None):
    """Full invariant report for the group-algebra extension kH in kG.

    Every routine reads H in its parent's numbering, so a subgroup built
    in another group is first rebuilt in G from its generator elements.

    cap_linear bounds dim(A (x)_B A) = |G| * [G:H], the one linear cap of
    the group-algebra side.  Over it, the separability solve and both
    fullness tests are skipped together: their fields stay null, caps_hit
    names the cap, and the matrix side is reported in full.

    table_g, when given, is G's character table.  H with G's order is G,
    and its classes are G's classes in the same order (the H-orbits on G
    inside H), so table_g, at the pair's prime, is H's table too and no
    second one is built.  A table_g at another prime is not reused: H's
    table is built at the pair's prime and inclusion_matrix refuses the
    two (LiftInconsistency)."""
    if H.parent is not G:
        H = G.subgroup([H.parent.elements[i] for i in H.gen_indices],
                       name=H.name)
    classes_g = conjugacy_classes(G)
    classes_h = h_classes(G, H)
    orbits = h_orbits(G, H)

    prop_s = property_S(G, H)
    lem_s = lemma_S_via_centralizers(G, H)
    hz = hz_condition(G, H)
    d1g = depth1_group(G, H)
    normal = is_normal(G, H)
    b1 = burciu_depth1(G, H)

    prime = common_prime(G, H)
    if table_g is None:
        table_g = character_table_mod_p(G, prime=prime, seed=seed)
    if H.order == G.order and table_g.prime == prime:
        table_h = table_g
    else:
        table_h = character_table_mod_p(H, prime=prime, seed=seed)
    im = inclusion_matrix(G, H, tableG=table_g, tableH=table_h)
    M = im.as_lists()
    dep = depth_report(M)

    rep = AnalysisReport(
        group=G.name or "G", subgroup=H.name or "H",
        group_order=G.order, subgroup_order=H.order,
        index=G.order // H.order,
        num_classes_g=len(classes_g), num_classes_h=len(classes_h),
        num_h_orbits=len(orbits),
        property_s=prop_s, lemma_s=lem_s, hz=hz,
        depth1_group=d1g, normal=normal, burciu_depth1=b1,
        prime=prime, seed=seed, inclusion_matrix=M,
        min_depth=dep.min_depth, min_odd_depth=dep.min_odd_depth,
        min_even_depth=dep.min_even_depth, min_h_depth=dep.min_h_depth,
        even_rule_derived=dep.even_rule_derived,
        s_diagonal=dep.s_diagonal, t_diagonal=dep.t_diagonal,
        center_dim=len(classes_g),
    )

    if not matrix_only:
        try:
            ts = TensorSquare(G, H, cap=cap_linear)
            kind, _witness, _kdim = separability_elements(ts)
            rep.separability_kind = kind
            rep.unique_separable = kind == "unique"
            rep.casimir_dim = len(ts.casimir)
            rep.full_in_t = is_full_in_T(G, H)
            rep.full_in_u = is_full_in_U(G, H)
        except CapExceeded as exc:
            rep.caps_hit.append(str(exc))

    ag = rep.agreements
    ag["property_s_vs_unique_separable"] = (
        SKIPPED if rep.unique_separable is None
        else _all_agree(prop_s, rep.unique_separable))
    ag["property_s_vs_centralizer_criterion"] = _all_agree(prop_s, lem_s)
    ag["depth1_agreement"] = _all_agree(
        d1g, b1, rep.s_diagonal, rep.min_depth == 1, rep.full_in_u)
    ag["h_depth1_agreement"] = _all_agree(
        rep.t_diagonal, rep.min_h_depth == 1, rep.full_in_t)
    ag["unique_implies_depth1"] = (
        SKIPPED if rep.unique_separable is None
        else _implies(rep.unique_separable, d1g))
    hz_targets_ok = (prop_s and d1g
                     and rep.unique_separable is not False)
    ag["hz_implies_unique_and_depth1"] = (
        AGREE if not hz or hz_targets_ok else DISAGREE)
    ag["depth2_iff_normal"] = _all_agree(rep.min_depth <= 2, normal)
    ag["depth_gap_at_most_2"] = (
        AGREE if abs(rep.min_depth - rep.min_h_depth) <= 2 else DISAGREE)

    return rep


def report_tsv_header():
    return "\t".join([
        "group", "subgroup", "order", "suborder", "index",
        "property_s", "unique_separable", "depth1", "normal",
        "min_depth", "min_h_depth", "full_in_t", "full_in_u",
        "disagreements",
    ])


def report_tsv_row(rep):
    def fmt(v):
        if v is None:
            return "-"
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v)
    return "\t".join(fmt(v) for v in [
        rep.group, rep.subgroup, rep.group_order, rep.subgroup_order,
        rep.index, rep.property_s, rep.unique_separable, rep.depth1_group,
        rep.normal, rep.min_depth, rep.min_h_depth, rep.full_in_t,
        rep.full_in_u, ",".join(rep.disagreements) or "-",
    ])
