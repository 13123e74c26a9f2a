"""Spans around the calls into each sepdepth module, recorded from outside.

``Tracer.install`` replaces each public function or method listed in
``TARGETS`` by a wrapper, both in its defining module and in every sepdepth
module that imported it by name, and ``uninstall`` puts the originals back.
A span is ``[name, start, end, parent span, item id, count]``; spans stay in
memory until ``write`` dumps them.  ``layer_metrics`` turns the spans into
the per-layer figures: self times (a span's duration minus the time its
child spans cover), call counts and the exact work counters.
"""

import gzip
import importlib
import json
import sys
import time

# metric stem -> (module, attribute path) of every callable timed under it
TARGETS = {
    "permgroup.group_build": [("permgroup", "FiniteGroup.__init__"),
                              ("permgroup", "Subgroup.__init__")],
    "permgroup.subgroups": [("permgroup", "all_subgroups"),
                            ("permgroup", "cyclic_subgroups"),
                            ("permgroup", "derived_subgroup")],
    "permgroup.classes": [("permgroup", "conjugacy_classes")],
    "permgroup.orbits": [("permgroup", "h_orbits")],
    "permgroup.centralizer_criteria": [
        ("permgroup", "lemma_S_via_centralizers"),
        ("permgroup", "depth1_group")],
    "permgroup.other_criteria": [("permgroup", "property_S"),
                                 ("permgroup", "hz_condition"),
                                 ("permgroup", "is_normal"),
                                 ("permgroup", "centralizer"),
                                 ("permgroup", "center")],
    "permgroup.transversal": [("permgroup", "right_transversal")],
    "chartable.table": [("chartable", "character_table_mod_p")],
    "chartable.prime": [("chartable", "common_prime"),
                        ("chartable", "dixon_prime")],
    "chartable.inclusion": [("chartable", "inclusion_matrix")],
    "depth.scan": [("depth", "depth_report"),
                   ("depth", "bimodule_matrices"),
                   ("depth", "is_diagonal"),
                   ("depth", "min_depth"),
                   ("depth", "min_odd_depth"),
                   ("depth", "min_even_depth"),
                   ("depth", "min_h_depth")],
    "depth.burciu": [("depth", "burciu_depth1")],
    "groupalg.full_t": [("groupalg", "is_full_in_T")],
    "groupalg.full_u": [("groupalg", "is_full_in_U")],
    "groupalg.tensor_build": [("groupalg", "TensorSquare.__init__")],
    "groupalg.casimir": [("groupalg", "TensorSquare.casimir_basis")],
    "groupalg.sep_solve": [("groupalg", "separability_elements")],
    "linalg.echelon": [("linalg", "SparseEchelon.add"),
                       ("linalg", "SparseEchelon.contains")],
    "linalg.dense": [("linalg", "rref"), ("linalg", "nullspace"),
                     ("linalg", "solve_affine"), ("linalg", "rank")],
    "findim.radical": [("findim", "radical")],
    "findim.rts_build": [("findim", "RelativeTensorSquare.__init__")],
    "findim.separable": [("findim", "is_separable_extension")],
    "findim.verify": [("findim", "verify_separability_witness")],
    "findim.radcheck": [("findim", "prop_rad_check")],
    "analyze.self": [("analyze", "analyze_pair"),
                     ("analyze", "AnalysisReport.to_json_dict")],
    "corpus.build": [("corpus", "corpus_groups"),
                     ("corpus", "corpus_subgroups")],
    "cli.spec_parse": [("cli", "_load_json"),
                       ("cli", "group_from_spec"),
                       ("cli", "subgroup_from_spec"),
                       ("cli", "algebra_from_spec"),
                       ("cli", "subalgebra_from_spec")],
    "cli.emit": [("cli", "_emit_json")],
    "cli.self": [("cli", "main"), ("cli", "cmd_analyze"),
                 ("cli", "cmd_corpus"), ("cli", "cmd_findim_demo")],
}

# Exact counts taken from a call: (args, result) -> number.
COUNTERS = {
    "TensorSquare.__init__": lambda args, result: args[0].dim,
    "RelativeTensorSquare.__init__": lambda args, result: args[0].dim(),
    "SparseEchelon.add": lambda args, result: int(result),
}

# Per-layer metric names, in report order: _s are self seconds; the rest
# are exact counts, except _useful, the share of candidates that raised the
# echelon rank.
SELF_TIME_METRICS = [f"{stem}_s" for stem in TARGETS]
COUNT_METRICS = [
    "permgroup.group_build_calls", "permgroup.classes_calls",
    "permgroup.orbits_calls", "chartable.table_calls",
    "groupalg.full_t_candidates", "groupalg.full_t_useful",
    "groupalg.full_u_candidates", "groupalg.full_u_useful",
    "groupalg.caps_hit", "groupalg.tensor_dim_sum", "groupalg.tensor_dim_max",
    "groupalg.casimir_calls", "linalg.echelon_add_calls",
    "linalg.echelon_rank_sum", "linalg.dense_calls", "findim.rts_dim_sum",
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.item = None
        self._stack = []
        self._patches = []
        self._names = {}

    def _wrap(self, stem, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = COUNTERS.get(name)
        label = f"{stem.split('.')[0]}.{name}"
        self._names[label] = stem

        def wrapper(*args, **kwargs):
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, self.item,
                   None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[5] = count(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        for modname in {mod for targets in TARGETS.values()
                        for mod, _ in targets}:
            importlib.import_module(f"sepdepth.{modname}")
        modules = [m for k, m in list(sys.modules.items())
                   if k == "sepdepth" or k.startswith("sepdepth.")]
        for stem, targets in TARGETS.items():
            for modname, path in targets:
                mod = importlib.import_module(f"sepdepth.{modname}")
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[attr]
                    setattr(cls, attr, self._wrap(stem, path, orig))
                    self._patches.append((cls, attr, orig))
                    continue
                orig = getattr(mod, path)
                wrapper = self._wrap(stem, path, orig)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, wrapper)
                            self._patches.append((m, key, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def write(self, path):
        """Dump every span as one JSON list per line (gzip)."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "item",
                                 "count"]) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def layer_metrics(self):
        """Self times and exact counters summed over all recorded spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]
        out = {name: 0.0 for name in SELF_TIME_METRICS}
        out.update({name: 0 for name in COUNT_METRICS})
        calls = {stem: 0 for stem in TARGETS}
        tensor_dims = []
        for sid, rec in enumerate(spans):
            label, start, end, parent = rec[0], rec[1], rec[2], rec[3]
            stem = self._names[label]
            out[f"{stem}_s"] += (end - start) - child_time[sid]
            calls[stem] += 1
            if label == "groupalg.TensorSquare.__init__" and rec[5]:
                tensor_dims.append(rec[5])
            elif label == "findim.RelativeTensorSquare.__init__" and rec[5]:
                out["findim.rts_dim_sum"] += rec[5]
            elif label == "linalg.SparseEchelon.add":
                owner = self._owner(parent)
                useful = rec[5] or 0
                out["linalg.echelon_add_calls"] += 1
                out["linalg.echelon_rank_sum"] += useful
                if owner in ("groupalg.full_t", "groupalg.full_u"):
                    out[f"{owner}_candidates"] += 1
                    out[f"{owner}_useful"] += useful
        for stem in ("permgroup.group_build", "permgroup.classes",
                     "permgroup.orbits", "chartable.table",
                     "groupalg.casimir", "linalg.dense"):
            out[f"{stem}_calls"] = calls[stem]
        for owner in ("groupalg.full_t", "groupalg.full_u"):
            tried = out[f"{owner}_candidates"]
            out[f"{owner}_useful"] = (out[f"{owner}_useful"] / tried
                                      if tried else 0.0)
        out["groupalg.tensor_dim_sum"] = sum(tensor_dims)
        out["groupalg.tensor_dim_max"] = max(tensor_dims, default=0)
        return out

    def _owner(self, sid):
        """Stem of the nearest fullness-test ancestor of a span, if any."""
        while sid >= 0:
            stem = self._names[self.spans[sid][0]]
            if stem in ("groupalg.full_t", "groupalg.full_u"):
                return stem
            sid = self.spans[sid][3]
        return None

    def self_time_total(self):
        """Wall time covered by top-level spans (= the sum of self times)."""
        return sum(rec[2] - rec[1] for rec in self.spans if rec[3] < 0)
