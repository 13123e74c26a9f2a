"""sepdepth benchmark: end-to-end and per-layer metrics of three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all            # every workload, both
    python3 perfbench/run.py --write-reference         # regenerate references

Each workload runs in its own fresh process (``workload.py``).  With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics of BENCHMARK.json, times divided by the host factor
(``hostspeed.py``) so that they read as on the reference host; with
``--trace 1`` it holds the per-layer metrics of one traced pass.  Items
whose output differs from the stored reference make the run fail (exit
code 1).  ``--smoke`` runs a tiny slice of each workload.  See NOTES.md
for what each workload and metric is for.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import specs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(HERE, "reference")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

CHILD_TIMEOUT_S = 170
SETUP_SAMPLES = 5
REFERENCE_SEED = 0


def load_definition():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SEPDEPTH_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(workload, seed, seconds, mode, workdir, smoke=False,
              spans_path=None):
    """Start one workload process and wait for it.

    Returns its result and its set-up time (process start to first item).
    """
    result_path = os.path.join(workdir, f"result-{mode}.json")
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode,
           "--workdir", workdir, "--result", result_path,
           "--reference", os.path.join(REFERENCE_DIR, f"{workload}.json")]
    if smoke:
        cmd.append("--smoke")
    if spans_path:
        cmd += ["--spans", spans_path]
    started = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                          stdout=subprocess.DEVNULL,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} process exited with "
                           f"{proc.returncode}")
    with open(result_path) as fh:
        res = json.load(fh)
    return res, res["first_item_at"] - started


def measure(workload, seed, seconds, trace, smoke=False):
    """Run one workload; returns the benchmark's result object."""
    definition = load_definition()
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_child(workload, seed, seconds, "setup",
                                        workdir, smoke)[1])
        spans_path = None
        if trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            spans_path = os.path.join(
                OUT_DIR, f"spans-{workload}-seed{seed}.jsonl.gz")
        res, setup_s = run_child(workload, seed, seconds,
                                 "trace" if trace else "measure", workdir,
                                 smoke, spans_path)
        setups.append(setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}"
                           ".json"), "w") as fh:
        json.dump(dict(res, setup_samples=setups), fh)

    if trace:
        specs_ = definition["per_layer"]
        values = res["layers"]
    else:
        # The set-up processes run just before the measuring one, so the
        # host factor of its whole run stands for theirs too.
        specs_ = definition["end_to_end"]
        values = dict(res["metrics"], setup_s=statistics.median(setups)
                      / res["host_factor"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in specs_}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics,
            "_info": {"items": res["items"],
                      "runs": sum(map(len, res["item_times"].values())),
                      "setup_samples": len(setups),
                      "host_factor": res.get("host_factor")}}


def print_metrics(workload, result):
    info = result["_info"]
    factor = info["host_factor"]
    print(f"# {workload}: {info['items']} items, {info['runs']} item runs; "
          f"setup samples {info['setup_samples']}; "
          + (f"host factor {factor:.4f}; " if factor else "")
          + f"failed {result['failed']}/{result['attempted']}")
    for name, m in result["metrics"].items():
        print(f"{workload}\t{name}\t{m['value']:.6g}\t{m['unit']}")


def write_reference(workloads):
    """Regenerate the reference outputs from the current code."""
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for workload in workloads:
        workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
        try:
            res, _ = run_child(workload, REFERENCE_SEED, 0, "reference",
                               workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        path = os.path.join(REFERENCE_DIR, f"{workload}.json")
        with open(path, "w") as fh:
            json.dump({"workload": workload, "seed": REFERENCE_SEED,
                       "items": res["outputs"]}, fh, indent=1,
                      sort_keys=True)
            fh.write("\n")
        print(f"wrote {path} ({len(res['outputs'])} items)")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=specs.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny slice: S3/* corpus pairs, S2<S3, T3")
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)

    missing = [path for path in (os.path.join(SRC, "sepdepth", "cli.py"),
                                 os.path.join(ROOT, "BENCHMARK.json"))
               if not os.path.isfile(path)]
    if missing:
        print(f"error: not a sepdepth checkout, missing {missing}",
              file=sys.stderr)
        return 2
    workloads = (specs.WORKLOADS if args.workload == "all"
                 else (args.workload,))
    if args.write_reference:
        write_reference(workloads)
        return 0
    seconds = (args.seconds if args.seconds is not None
               else load_definition()["run_seconds"])

    if args.workload != "all":
        result = measure(args.workload, args.seed, seconds, args.trace,
                         args.smoke)
        print_metrics(args.workload, result)
        result.pop("_info")
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    summary = {}
    for workload in workloads:
        for trace in (0, 1):
            result = measure(workload, args.seed, seconds, trace,
                             args.smoke)
            print_metrics(workload, result)
            summary.setdefault(workload, {})[f"trace{trace}"] = result
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "results.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    ok = all(r["correct"] for w in summary.values() for r in w.values())
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
