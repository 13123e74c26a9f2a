"""The benchmark's tracer (perfbench/spans.py) wraps sepdepth functions by
name; this checks that every name it lists still exists, that a small run
reaches every traced layer, and that uninstalling restores the originals."""

import importlib
import importlib.util
import json
import os

from sepdepth.cli import main

SPANS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _target(modname, path):
    mod = importlib.import_module(f"sepdepth.{modname}")
    if "." in path:
        cls, attr = path.split(".")
        return vars(getattr(mod, cls))[attr]
    return getattr(mod, path)


def test_tracer_reaches_every_layer_and_uninstalls(tmp_path, capsys):
    spans = _load_spans()
    names = [t for targets in spans.TARGETS.values() for t in targets]
    before = {t: _target(*t) for t in names}
    files = {
        "g": {"name": "S3", "degree": 3,
              "generators": [[1, 0, 2], [1, 2, 0]]},
        "h": {"name": "S2", "generators": [[1, 0, 2]]},
        "a": {"name": "T2", "matrix_size": 2,
              "basis": [[["1", "0"], ["0", "0"]], [["0", "1"], ["0", "0"]],
                        [["0", "0"], ["0", "1"]]]},
        "b": {"matrices": [[["1", "0"], ["0", "1"]],
                           [["0", "1"], ["0", "0"]]]},
    }
    for key, spec in files.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(spec))
    path = {key: str(tmp_path / f"{key}.json") for key in files}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(_target(*t) is not before[t] for t in names)
        assert main(["analyze", path["g"], path["h"]]) == 0
        assert main(["corpus", "--corpus-filter", "S3/*"]) == 0
        assert main(["findim-demo", path["a"], path["b"]]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert all(_target(*t) is before[t] for t in names)
    from sepdepth import findim, linalg
    assert findim.rref is linalg.rref
    reached = {tracer._names[rec[0]] for rec in tracer.spans}
    assert reached == set(spans.TARGETS)
    metrics = tracer.layer_metrics()
    assert metrics["linalg.echelon_add_calls"] > 0
    assert metrics["linalg.dense_calls"] > 0
