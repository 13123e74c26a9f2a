"""Comparison of one item's output with its stored reference output.

Every report field is compared except ``seed`` and timing fields.  Two
relaxations let a change that lifts the dimension caps pass:

* ``caps_hit`` may only shrink;
* a field that is null in the reference of a capped pair, and an agreement
  that reads ``SKIPPED(cap)`` there, may become non-null / ``AGREE`` only
  when every agreement of the new report is ``AGREE``.

A findim witness depends on the basis order, so only its presence is
compared here; the workload checks mu(witness) = 1 on its own.
"""

IGNORED = ("seed", "elapsed_seconds")
SKIPPED = "SKIPPED(cap)"


def normalize(output):
    """The comparable part of one report (a JSON object)."""
    out = {k: v for k, v in output.items() if k not in IGNORED}
    if "witness" in out:
        out["witness"] = None if out["witness"] is None else "present"
    return out


def differences(ref, new):
    """Human-readable differences between two normalized outputs
    (``{"exit": code, "output": report}``); empty when the new output
    passes."""
    diffs = []
    if ref["exit"] != new["exit"]:
        diffs.append(f"exit code {new['exit']} != {ref['exit']}")
    r, n = ref["output"], new["output"]
    if not isinstance(n, dict):
        return diffs + [f"output is not a JSON object: {n!r}"]
    if sorted(r) != sorted(n):
        diffs.append(f"fields {sorted(n)} != {sorted(r)}")
        return diffs
    capped = bool(r.get("caps_hit"))
    all_agree = all(v == "AGREE" for v in n.get("agreements", {}).values())
    for key in sorted(r):
        rv, nv = r[key], n[key]
        if rv == nv:
            continue
        if key == "caps_hit" and set(nv) <= set(rv):
            continue
        if key == "agreements" and sorted(rv) == sorted(nv) and all(
                rv[k] == nv[k] or (rv[k] == SKIPPED and all_agree)
                for k in rv):
            continue
        if rv is None and capped and all_agree:
            continue
        diffs.append(f"{key}: {nv!r} != reference {rv!r}")
    return diffs
