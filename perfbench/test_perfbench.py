"""Tests of the benchmark itself, on its smoke slice.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import random

import pytest

import check

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("corpus", "matrix-large", "findim")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    DEFINITION = json.load(fh)


def bench(*args, cwd=ROOT, run=RUN):
    proc = subprocess.run([sys.executable, run, "--smoke", "--seconds", "1",
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


def assert_metrics(result, specs):
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in specs)
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_end_to_end_metric(workload):
    code, result, proc = bench("--workload", workload, "--seed", "3")
    assert code == 0, proc.stderr
    assert_metrics(result, DEFINITION["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert result["metrics"]["ok_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_reports_layers_that_cover_the_wall_time(workload):
    runs = [bench("--workload", workload, "--seed", "0", "--trace", "1")
            for _ in range(2)]
    for code, result, proc in runs:
        assert code == 0, proc.stderr
        assert_metrics(result, DEFINITION["per_layer"])
        frac = result["metrics"]["trace.self_sum_frac"]["value"]
        assert 0.95 <= frac <= 1.05
    # the exact counters repeat exactly at a fixed seed
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if not k.endswith("_s") and k != "trace.self_sum_frac"}
              for _, r, _ in runs]
    assert counts[0] == counts[1]


def copy_checkout(dest, with_program=True):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, dest / "perfbench", ignore=ignore)
    if with_program:
        shutil.copytree(os.path.join(ROOT, "src"), dest / "src",
                        ignore=ignore)
    return str(dest / "perfbench" / "run.py")


def test_flipped_verdict_in_the_reference_fails_the_run(tmp_path):
    run = copy_checkout(tmp_path)
    path = tmp_path / "perfbench" / "reference" / "corpus.json"
    ref = json.loads(path.read_text())
    out = ref["items"]["S3/o2.0"]["output"]
    out["normal"] = not out["normal"]
    path.write_text(json.dumps(ref))
    code, result, _ = bench("--workload", "corpus", "--seed", "0",
                            cwd=tmp_path, run=run)
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_findim_reference_holds_on_another_basis_order():
    code, result, proc = bench("--workload", "findim", "--seed", "7")
    assert code == 0 and result["correct"], proc.stderr


def test_fails_without_the_program(tmp_path):
    run = copy_checkout(tmp_path, with_program=False)
    code, result, _ = bench("--workload", "corpus", "--seed", "0",
                            cwd=tmp_path, run=run)
    assert code != 0 and result is None


def _report(**changes):
    out = {"caps_hit": ["dim(U ambient) = 14400 exceeds cap 4096"],
           "full_in_u": None, "normal": True,
           "agreements": {"depth1_agreement": "SKIPPED(cap)",
                          "depth2_iff_normal": "AGREE"}}
    out.update(changes)
    return {"exit": 0, "output": out}


def test_lifting_a_cap_is_not_a_failure():
    ref = _report()
    lifted = _report(caps_hit=[], full_in_u=True,
                     agreements={"depth1_agreement": "AGREE",
                                 "depth2_iff_normal": "AGREE"})
    assert check.differences(ref, lifted) == []


@pytest.mark.parametrize("changes", [
    {"caps_hit": ["a new cap"]},
    {"full_in_u": True},        # filled in, but an agreement still skipped
    {"caps_hit": [], "full_in_u": False,
     "agreements": {"depth1_agreement": "DISAGREE",
                    "depth2_iff_normal": "AGREE"}},
    {"normal": False},
])
def test_other_changes_are_failures(changes):
    assert check.differences(_report(), _report(**changes))


def test_seed_and_timing_are_ignored():
    ref = {"exit": 0, "output": check.normalize({"a": 1, "seed": 0})}
    new = check.normalize({"a": 1, "seed": 5, "elapsed_seconds": 0.1})
    assert check.differences(ref, {"exit": 0, "output": new}) == []


def test_shuffled_corpus_runs_each_group_table_first():
    env_path = os.path.join(ROOT, "src")
    sys.path.insert(0, env_path)
    try:
        import workload
        corpus = workload.CorpusWorkload(0, None, smoke=False)
        items = corpus.setup()
    finally:
        sys.path.remove(env_path)
    for seed in range(5):
        order = corpus.shuffled(items, random.Random(seed))
        assert sorted(i.id for i in order) == sorted(i.id for i in items)
        seen = set()
        for item in order:
            group = item.id.split("/")[0]
            assert item.builds_table == (group not in seen)
            seen.add(group)


def test_refill_keeps_time_for_a_second_frontier_run(monkeypatch):
    import workload
    now, order = [0.0], []
    monkeypatch.setattr(workload, "clock", lambda: now[0])

    def item(item_id, cost):
        def call():
            now[0] += cost
            order.append(item_id)
            return 0, {"cost": cost}
        return workload.Item(item_id, call)

    items = [item("heavy", 10.0), item("frontier", 8.0), item("mid", 1.0),
             item("light", 0.1)]
    tally = workload.Tally()
    for it in items:
        tally.run(it, None, print)
    workload.refill(items, tally, None, print, deadline=36.0,
                    frontier="frontier")
    runs = {k: len(v) for k, v in tally.times.items()}
    assert now[0] <= 36.0
    # after the 19.1 s first pass, 10 s are kept for the frontier's second
    # run: the heavy item no longer fits, the light items fill the rest,
    # before and after that run
    assert runs["frontier"] == 2 and runs["heavy"] == 1
    second = len(order) - 1 - order[::-1].index("frontier")
    assert second > len(items) + 4
    assert set(order[len(items):second]) == {"light", "mid"}
    assert runs["light"] > runs["mid"] > 2
    assert tally.failed == 0


@pytest.mark.parametrize("speed", [1.0, 1.6])
def test_host_factor_cancels_a_slower_host(monkeypatch, speed):
    import hostspeed
    import workload
    now = [0.0]
    monkeypatch.setattr(workload, "clock", lambda: now[0])
    monkeypatch.setattr(hostspeed, "clock", lambda: now[0])

    def kernel():
        now[0] += speed * hostspeed.REFERENCE_S

    monkeypatch.setattr(hostspeed, "kernel", kernel)

    def item(item_id, cost):
        def call():
            now[0] += speed * cost
            return 0, {"cost": cost}
        return workload.Item(item_id, call)

    costs = {"heavy": 4.0, "mid": 0.5, "light": 0.05}
    items = [item(k, v) for k, v in costs.items()]
    tally = workload.Tally(hostspeed.HostMeter())
    for it in items:
        tally.run(it, None, print)
    workload.refill(items, tally, None, print, deadline=20.0,
                    frontier="heavy")
    meter = tally.meter
    assert now[0] <= 20.0
    # the kernel took its share of the item time, within one call
    assert 0 <= meter.kernel_s - meter.share * meter.work_s \
        <= speed * hostspeed.REFERENCE_S
    assert meter.factor() == pytest.approx(speed)
    for k, v in tally.host_times().items():
        assert v == pytest.approx([costs[k]] * len(v))
