"""One benchmark workload in its own process.

Started by ``run.py`` with sepdepth's ``src`` on PYTHONPATH.  It imports
sepdepth, sets the workload up (the corpus build, or writing the JSON specs),
then times one pass over the items, in an order shuffled by the seed, and
further runs of them while time is left (``refill``).  Between the item runs
it times a fixed kernel (``hostspeed``) and divides each item run's time by
the host factor around it.  Each item drives what a user runs: the
``sepdepth corpus`` loop through the library calls ``cmd_corpus`` makes, or
``sepdepth.cli.main`` in-process with stdout captured.  Every output is
checked against the stored reference.  The result goes to a JSON file.
"""

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback

import check
import hostspeed
import specs

clock = time.perf_counter


class Item:
    """One unit of work.  ``call()`` is timed; ``extra_check(output)``, run
    after the reference comparison and outside the timing, returns
    (ok, reason).  An item may have further variants of the same work
    (``add_variant``), which its runs take in turn."""

    def __init__(self, item_id, call, extra_check=None, builds_table=False):
        self.id = item_id
        self.variants = [(call, extra_check)]
        self.builds_table = builds_table
        self.runs = 0

    def add_variant(self, call, extra_check=None):
        self.variants.append((call, extra_check))

    def next_run(self):
        """(call, extra_check) of the next run."""
        variant = self.variants[self.runs % len(self.variants)]
        self.runs += 1
        return variant


# ---------------------------------------------------------------------------
# workloads


class CorpusWorkload:
    """All corpus pairs at the default caps with every cross-check, as
    ``sepdepth corpus`` runs them: the first pair of each group builds the
    G character table that the group's other pairs share."""

    setup_runs_sepdepth = True

    def __init__(self, seed, workdir, smoke):
        self.seed = seed
        self.name_filter = specs.SMOKE["corpus"] if smoke else None
        self.tables = {}

    def setup(self):
        from sepdepth import analyze, chartable, corpus
        from sepdepth.groupalg import DEFAULT_LINEAR_CAP
        seed, tables = self.seed, self.tables

        def make(G, H, builds_table):
            def call():
                if builds_table:
                    prime = chartable.common_prime(G, G)
                    tables[G.name] = chartable.character_table_mod_p(
                        G, prime=prime, seed=seed)
                rep = analyze.analyze_pair(G, H, seed=seed,
                                           cap_linear=DEFAULT_LINEAR_CAP,
                                           table_g=tables[G.name])
                return (3 if rep.disagreements else 0), rep.to_json_dict()
            return call

        items, seen = [], set()
        for name, G, H in corpus.corpus_pairs(self.name_filter):
            builds = G.name not in seen
            items.append(Item(name, make(G, H, builds), builds_table=builds))
            seen.add(G.name)
        return items

    @staticmethod
    def shuffled(items, rng):
        """The items in random order, except that each group's first pair,
        which builds the group's table, stays first among its group."""
        order = list(items)
        rng.shuffle(order)
        first = {}
        for pos, item in enumerate(order):
            first.setdefault(item.id.split("/")[0], pos)
        for item in items:
            if item.builds_table:
                pos = first[item.id.split("/")[0]]
                at = order.index(item)
                order[pos], order[at] = order[at], order[pos]
        return order


class CliWorkload:
    """Items that each run ``sepdepth.cli.main`` on spec files."""

    setup_runs_sepdepth = False

    def __init__(self, seed, workdir, smoke):
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke

    def _write(self, name, obj):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    @staticmethod
    def shuffled(items, rng):
        order = list(items)
        rng.shuffle(order)
        return order

    @staticmethod
    def _call(argv):
        from sepdepth import cli

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue()
        return call

    def _item(self, item_id, argv, extra_check=None):
        return Item(item_id, self._call(argv), extra_check)


class MatrixLargeWorkload(CliWorkload):
    """Large permutation-group pairs through ``sepdepth analyze
    --matrix-only``; each item enumerates its groups."""

    def setup(self):
        items = []
        for item_id, gspec, hspec in specs.matrix_large_items():
            if self.smoke and item_id not in specs.SMOKE["matrix-large"]:
                continue
            stem = item_id.replace("<", "_in_")
            g = self._write(f"{stem}.group.json", gspec)
            h = self._write(f"{stem}.sub.json", hspec)
            items.append(self._item(item_id, [
                "analyze", g, h, "--matrix-only", "--seed", str(self.seed)]))
        return items


class FindimWorkload(CliWorkload):
    """Algebra pairs through ``sepdepth findim-demo``; the seed permutes
    the order of each algebra's basis.

    The basis order changes the work of the exact elimination (by up to a
    third on ``monoid4``), so each item has ``BASIS_ORDERS`` orders, which
    its runs take in turn: an item's time averages over the orders it met,
    and depends less on the seed."""

    BASIS_ORDERS = 8

    def setup(self):
        items = []
        for item_id, algebra, sub in specs.findim_items():
            if self.smoke and item_id not in specs.SMOKE["findim"]:
                continue
            item = None
            for order in range(self.BASIS_ORDERS):
                perm = specs.basis_permutation(
                    specs.algebra_dimension(algebra), self.seed, item_id,
                    order)
                alg, sb = specs.permute_basis(algebra, sub, perm)
                a = self._write(f"{item_id}.{order}.algebra.json", alg)
                b = self._write(f"{item_id}.{order}.sub.json", sb)

                def mu_check(output, alg=alg):
                    w = output.get("witness")
                    return (w is None or specs.witness_mu_is_one(alg, w),
                            "witness: mu(t) != 1")
                call = self._call(["findim-demo", a, b])
                if item is None:
                    item = Item(item_id, call, mu_check)
                else:
                    item.add_variant(call, mu_check)
            items.append(item)
        return items


WORKLOADS = {"corpus": CorpusWorkload, "matrix-large": MatrixLargeWorkload,
             "findim": FindimWorkload}


# ---------------------------------------------------------------------------
# passes


def parse_output(raw):
    return json.loads(raw) if isinstance(raw, str) else raw


def run_item(item, reference, log):
    """Time one item and check its output.

    Returns (seconds, normalized output or None, True if it passed).
    """
    call, extra_check = item.next_run()
    t0 = clock()
    try:
        code, raw = call()
    except Exception:
        seconds = clock() - t0
        log(f"{item.id}: raised\n{traceback.format_exc()}")
        return seconds, None, False
    seconds = clock() - t0
    try:
        output = parse_output(raw)
        new = {"exit": code, "output": check.normalize(output)}
    except (ValueError, AttributeError) as exc:
        log(f"{item.id}: unreadable output: {exc}")
        return seconds, None, False
    if reference is None:
        diffs = []
    elif item.id in reference:
        diffs = check.differences(reference[item.id], new)
    else:
        diffs = ["no reference output"]
    if extra_check is not None:
        ok, why = extra_check(output)
        if not ok:
            diffs.append(why)
    if diffs:
        log(f"{item.id}: " + "; ".join(diffs))
    return seconds, new, not diffs


class Tally:
    """Item times, outputs and failures over all runs of the items.

    With a ``hostspeed.HostMeter``, the meter's kernel runs after each item
    run for its share of the item's time."""

    def __init__(self, meter=None):
        self.meter = meter
        self.times, self.starts, self.outputs = {}, {}, {}
        self.attempted = self.failed = 0

    def overhead(self):
        """Kernel time per second of item time."""
        return self.meter.share if self.meter else 0.0

    def run(self, item, reference, log):
        start = clock()
        seconds, output, ok = run_item(item, reference, log)
        self.times.setdefault(item.id, []).append(seconds)
        self.starts.setdefault(item.id, []).append(start)
        if output is not None:
            self.outputs[item.id] = output
        self.attempted += 1
        self.failed += not ok
        if self.meter:
            self.meter.after(seconds)
        return seconds

    def host_times(self):
        """Each item's run times, each divided by the host factor around
        it (the raw times without a meter)."""
        if not self.meter:
            return self.times
        return {i: [t / self.meter.factor_around(s, s + t)
                    for s, t in zip(self.starts[i], ts)]
                for i, ts in self.times.items()}


def checked_frac(workload_name, outputs):
    """Share of the cross-checks that actually compared two routes."""
    if workload_name == "findim":
        checks = [o["output"]["radical_criterion"] != "not-applicable"
                  for o in outputs.values()]
    else:
        checks = [v != check.SKIPPED for o in outputs.values()
                  for v in o["output"]["agreements"].values()]
    return sum(checks) / len(checks) if checks else 0.0


def quantile(values, q):
    """statistics.quantiles' cut point for q in (0, 1), exclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace",
                                      "reference"), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    def log(msg):
        print(f"[{args.workload}] {msg}", file=sys.stderr)

    import sepdepth.cli  # noqa: F401  (imports every layer)

    workload = WORKLOADS[args.workload](args.seed, args.workdir, args.smoke)
    items = workload.setup()
    first_item_at = clock()
    result = {"first_item_at": first_item_at, "items": len(items)}
    if args.mode == "setup":
        return write_result(args.result, result)

    reference = None
    if args.mode != "reference":
        with open(args.reference) as fh:
            reference = json.load(fh)["items"]

    tally = Tally(hostspeed.HostMeter() if args.mode == "measure" else None)
    rng = random.Random(args.seed)
    if args.mode == "measure":
        order = workload.shuffled(items, rng)
        for item in order:
            tally.run(item, reference, log)
        refill(order, tally, reference, log,
               deadline=first_item_at + args.seconds,
               frontier=specs.FRONTIER[args.workload])
    else:
        first_pass = sum(tally.run(item, reference, log) for item in items)
    result.update(attempted=tally.attempted, failed=tally.failed,
                  item_times=tally.times)
    if args.mode == "reference":
        result["outputs"] = tally.outputs
        return write_result(args.result, result)

    # An item's time is the mean of its runs in this process, each run
    # divided by the host factor around it.  The runs of one item are not
    # independent samples of the host, which slows down in stretches; the
    # mean weighs every stretch they met, where the median of a few of them
    # follows whichever stretch held the middle one.
    result["host_factor"] = tally.meter.factor() if tally.meter else 1.0
    if tally.meter:
        result["item_starts"] = tally.starts
        result["kernel_calls"] = [tally.meter.starts,
                                  tally.meter.durations]
    result["raw_times"] = item_metrics(items, tally.times, args.workload)
    result["metrics"] = item_metrics(items, tally.host_times(), args.workload)
    result["metrics"].update({
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - tally.failed / tally.attempted,
        "checked_frac": checked_frac(args.workload, tally.outputs),
    })
    if args.mode == "trace":
        traced = Tally()
        result["layers"] = traced_pass(args, workload, items, traced,
                                       reference, log)
        result["layers"]["trace.overhead_s"] = (
            result["layers"]["trace.pass_s"] - first_pass)
        result["attempted"] += traced.attempted
        result["failed"] += traced.failed
    return write_result(args.result, result)


def item_metrics(items, times, workload_name):
    """The end-to-end time metrics from each item's run times."""
    per_item = [statistics.fmean(times[i.id]) for i in items]
    frontier = times.get(specs.FRONTIER[workload_name])
    return {
        "wall_s": sum(per_item),
        "item_p50_ms": 1000 * statistics.median(per_item),
        "item_p90_ms": 1000 * quantile(per_item, 0.9),
        "frontier_item_s": statistics.fmean(frontier) if frontier else 0.0,
    }


def refill(items, tally, reference, log, deadline, frontier):
    """Run the items again while time is left.

    While the frontier item has run only once and a second run of it still
    fits, the other items leave time for that run, with a quarter to spare
    for a slower host, and it comes when no other item fits any more.
    ``frontier_item_s`` reads that one item, so its two runs, far apart in
    time, meet two stretches of the host's speed, and the other items' runs
    spread over the rest of the run.

    Each other run goes, among the items that fit, first to an item that
    has run only once, lightest first, and then to the item with the fewest
    runs weighted by the square root of its mean time.  An item's share of
    the time so grows with the square root of its cost: the light items in
    the middle of the item distribution get many runs.  An item fits when
    its slowest run and the host kernel after it fit in the time left.
    """
    def priority(item):
        ts = tally.times[item.id]
        again = len(ts) > 1
        return item.id == frontier, again, len(ts) * math.sqrt(
            statistics.fmean(ts))

    scale = 1 + tally.overhead()
    while True:
        left = deadline - clock()
        held = [scale * t for t in tally.times.get(frontier, ())]
        keep = 1.25 * held[0] if len(held) == 1 and held[0] <= left else 0.0
        fits = [i for i in items
                if scale * max(tally.times[i.id])
                <= left - (0.0 if i.id == frontier else keep)]
        if not fits:
            return
        tally.run(min(fits, key=priority), reference, log)


def traced_pass(args, workload, items, tally, reference, log):
    """Run one more pass with every layer wrapped in spans.

    The corpus is built again inside the trace, because building it is
    sepdepth's work; the spec files of the other workloads are reused, and
    each item runs the variant of the untraced pass again.
    """
    import spans
    tracer = spans.Tracer()
    tracer.install()
    try:
        t0 = clock()
        if workload.setup_runs_sepdepth:
            items = workload.setup()
        for item in items:
            item.runs = 0
        setup_s = clock() - t0
        pass_s = 0.0
        for item in items:
            tracer.item = item.id
            pass_s += tally.run(item, reference, log)
        tracer.item = None
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    layers["groupalg.caps_hit"] = sum(
        len(o["output"].get("caps_hit", ())) for o in tally.outputs.values())
    layers["trace.wall_s"] = setup_s + pass_s
    layers["trace.pass_s"] = pass_s
    layers["trace.self_sum_frac"] = (tracer.self_time_total()
                                     / layers["trace.wall_s"])
    if args.spans:
        tracer.write(args.spans)
    return layers


def write_result(path, result):
    with open(path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
