import json
import os
from fractions import Fraction

import pytest

from findim_oracles import fixture_specs
from sepdepth.cli import SpecError, _frac, main

S3_GROUP = {"name": "S3", "degree": 3,
            "generators": [[1, 0, 2], [1, 2, 0]]}
S2_SUBGROUP = {"name": "S2", "generators": [[1, 0, 2]]}


@pytest.fixture
def s3_files(tmp_path):
    g = tmp_path / "g.json"
    h = tmp_path / "h.json"
    g.write_text(json.dumps(S3_GROUP))
    h.write_text(json.dumps(S2_SUBGROUP))
    return str(g), str(h)


def test_analyze_json(s3_files, capsys):
    g, h = s3_files
    assert main(["analyze", g, h]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["group"] == "S3" and out["subgroup"] == "S2"
    assert out["min_depth"] == 3
    assert out["min_h_depth"] == 5
    assert out["inclusion_matrix"] == [[1, 0, 1], [0, 1, 1]]
    assert out["unique_separable"] is False
    assert set(out["agreements"].values()) == {"AGREE"}
    assert "elapsed" not in out and "timing" not in out


def test_analyze_tsv(s3_files, capsys):
    g, h = s3_files
    assert main(["analyze", g, h, "--format", "tsv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    header = lines[0].split("\t")
    row = lines[1].split("\t")
    assert len(header) == len(row)
    assert row[header.index("group")] == "S3"
    assert row[header.index("min_depth")] == "3"


def test_analyze_stdin(s3_files, capsys, monkeypatch):
    import io
    _, h = s3_files
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(S3_GROUP)))
    assert main(["analyze", "-", h]) == 0
    assert json.loads(capsys.readouterr().out)["min_depth"] == 3


def test_analyze_matrix_only(s3_files, capsys):
    g, h = s3_files
    assert main(["analyze", g, h, "--matrix-only"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["min_depth"] == 3
    assert out["full_in_t"] is None


def test_missing_file_exit_1(capsys):
    assert main(["analyze", "/nonexistent/g.json", "/nonexistent/h.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_json_exit_1(tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text('{"degree": 3,,}')
    assert main(["analyze", str(g), str(g)]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_bad_permutation_exit_1(tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"degree": 3, "generators": [[0, 0, 1]]}))
    h = tmp_path / "h.json"
    h.write_text(json.dumps(S2_SUBGROUP))
    assert main(["analyze", str(g), str(h)]) == 1
    assert "not a permutation" in capsys.readouterr().err


def test_cap_group_exit_2(s3_files, capsys):
    g, h = s3_files
    assert main(["analyze", g, h, "--cap-group", "4"]) == 2
    assert "cap exceeded" in capsys.readouterr().err


def test_cap_group_message_names_no_order(s3_files, capsys):
    """The group search stops at the element past the cap, before |G| is
    known, so the message says only that the order exceeds the cap: S3
    (order 6) under caps 0 and 4 names neither 1, 2 nor 5 as its order."""
    g, h = s3_files
    for cap in (0, 4):
        assert main(["analyze", g, h, "--cap-group", str(cap)]) == 2
        assert capsys.readouterr().err == (
            f"cap exceeded: group order exceeds cap {cap}\n")


def test_corpus_honours_cap_group(capsys, monkeypatch):
    """corpus exits 2 when a selected pair's group is over the group cap,
    from the flag or from SEPDEPTH_CAP_GROUP, and prints no report."""
    assert main(["corpus", "--cap-group", "10",
                 "--corpus-filter", "S5/full"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "cap exceeded: group order = 120 exceeds cap 10\n"
    monkeypatch.setenv("SEPDEPTH_CAP_GROUP", "10")
    assert main(["corpus", "--corpus-filter", "S5/full"]) == 2
    assert capsys.readouterr().err == err
    assert main(["corpus", "--corpus-filter", "S3/full"]) == 0


# what the linear cap skips: the separability solve and both fullness tests
LINEAR_SIDE = ("casimir_dim", "unique_separable", "separability_kind",
               "full_in_t", "full_in_u")


def test_cap_linear_env(s3_files, capsys, monkeypatch):
    """A pair over the linear cap names it once in caps_hit, leaves the
    solve and both fullness tests null, reports its matrix side as an
    uncapped run does, and exits 0."""
    g, h = s3_files
    assert main(["analyze", g, h]) == 0
    full = json.loads(capsys.readouterr().out)
    monkeypatch.setenv("SEPDEPTH_CAP_LINEAR", "2")
    assert main(["analyze", g, h]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["caps_hit"] == ["dim(A tensor_B A) = 18 exceeds cap 2"]
    assert all(out[k] is None for k in LINEAR_SIDE)
    assert all(full[k] is not None for k in LINEAR_SIDE)
    # the matrix-side results survive the cap
    assert out["min_depth"] == 3
    for key in set(full) - set(LINEAR_SIDE) - {"caps_hit", "agreements"}:
        assert out[key] == full[key], key
    skipped = {"property_s_vs_unique_separable", "unique_implies_depth1"}
    assert {k for k, v in out["agreements"].items()
            if v == "SKIPPED(cap)"} == skipped
    assert {k: v for k, v in out["agreements"].items() if k not in skipped} \
        == {k: v for k, v in full["agreements"].items() if k not in skipped}


def test_cap_linear_bounds_only_the_tensor_square(tmp_path, s3_files,
                                                   capsys, monkeypatch):
    """The one linear cap is on dim(A tensor_B A) = |G|*[G:H]: S3 > S3
    has a tensor square of dimension 6, so a cap of 35 (under |G|^2 = 36)
    skips nothing, and E is full in U."""
    g, _ = s3_files
    h = tmp_path / "s3.json"
    h.write_text(json.dumps({"name": "S3",
                             "generators": S3_GROUP["generators"]}))
    monkeypatch.setenv("SEPDEPTH_CAP_LINEAR", "35")
    assert main(["analyze", g, str(h)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["caps_hit"] == []
    assert out["full_in_u"] is True
    assert out["full_in_t"] is True
    assert out["casimir_dim"] == 3


def test_large_pair_hits_the_linear_cap_at_the_default(tmp_path, capsys,
                                                       monkeypatch):
    """C7 < S7 at the default caps: the tensor square (5040 * 720) is over
    the linear cap, the only cap named, and analyze exits 0."""
    monkeypatch.delenv("SEPDEPTH_CAP_LINEAR", raising=False)
    monkeypatch.delenv("SEPDEPTH_CAP_GROUP", raising=False)
    cycle = [1, 2, 3, 4, 5, 6, 0]
    g = tmp_path / "s7.json"
    h = tmp_path / "c7.json"
    g.write_text(json.dumps({"name": "S7", "degree": 7,
                             "generators": [[1, 0, 2, 3, 4, 5, 6], cycle]}))
    h.write_text(json.dumps({"name": "C7", "generators": [cycle]}))
    assert main(["analyze", str(g), str(h)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["caps_hit"] == ["dim(A tensor_B A) = 3628800 exceeds cap 4096"]
    assert all(out[k] is None for k in LINEAR_SIDE)
    assert out["min_depth"] is not None


def test_corpus_filtered_tsv(capsys):
    assert main(["corpus", "--corpus-filter", "Q8/*",
                 "--format", "tsv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1].startswith("# pairs=")
    assert "disagree=0" in lines[-1]
    assert len(lines) >= 3   # header + at least trivial/full + summary


def test_corpus_filtered_json(capsys):
    assert main(["corpus", "--corpus-filter", "S3/*"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["summary"]["disagree"] == 0
    assert out["summary"]["pairs"] == len(out["reports"]) == 4
    names = {r["subgroup"] for r in out["reports"]}
    assert "1" in names and "full" in names


def test_findim_demo_fixtures(capsys):
    assert main(["findim-demo", "--fixture", "structural"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dimension"] == 9
    assert out["radical_dim"] == 5
    assert out["separable"] is False
    assert out["radical_criterion"] == "not-applicable"
    assert out["witness"] is None

    assert main(["findim-demo", "--fixture", "triangular3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["separable"] is True
    assert out["radical_criterion"] == "separable"
    assert out["witness"] is not None

    assert main(["findim-demo", "--fixture", "monoid2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dimension"] == 4 and out["separable"] is True


def test_findim_demo_unknown_fixture(capsys):
    assert main(["findim-demo", "--fixture", "nope"]) == 1
    assert "unknown fixture" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["triangularx", "monoid0", "structural2",
                                  "triangular0", "jordan0",
                                  "triangular" + "9" * 5000],
                         ids=lambda name: name[:12])
def test_findim_demo_malformed_fixture_exit_1(capsys, name):
    assert main(["findim-demo", "--fixture", name]) == 1
    assert "unknown fixture" in capsys.readouterr().err


def test_findim_demo_spec_files(tmp_path, capsys):
    alg = {
        "name": "T2",
        "matrix_size": 2,
        "basis": [[["1", "0"], ["0", "0"]],
                  [["0", "1"], ["0", "0"]],
                  [["0", "0"], ["0", "1"]]],
    }
    sub = {"matrices": [[["1", "0"], ["0", "1"]],
                        [["0", "1"], ["0", "0"]]]}
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(alg))
    b.write_text(json.dumps(sub))
    assert main(["findim-demo", str(a), str(b)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dimension"] == 3 and out["sub_dimension"] == 2
    assert out["separable"] is True


def test_findim_demo_structure_constants(tmp_path, capsys):
    # Q[x]/(x^2): structure constants over basis {1, x}
    alg = {
        "name": "dual-numbers",
        "structure": [[["1", "0"], ["0", "1"]],
                      [["0", "1"], ["0", "0"]]],
        "unit": ["1", "0"],
    }
    sub = {"vectors": [["1", "0"]]}
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(alg))
    b.write_text(json.dumps(sub))
    assert main(["findim-demo", str(a), str(b)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["radical_dim"] == 1
    assert out["separable"] is False
    assert out["radical_criterion"] == "inseparable"


def test_findim_demo_bad_structure_exit_1(tmp_path, capsys):
    alg = {
        "structure": [[["1", "0"], ["0", "1"]],
                      [["0", "1"], ["1", "0"]]],
        "unit": ["0", "1"],
    }
    a = tmp_path / "a.json"
    a.write_text(json.dumps(alg))
    b = tmp_path / "b.json"
    b.write_text(json.dumps({"vectors": [["1", "0"]]}))
    assert main(["findim-demo", str(a), str(b)]) == 1
    assert "error:" in capsys.readouterr().err


def test_findim_demo_ragged_structure_exit_1(tmp_path, capsys):
    """A product vector of the wrong length is rejected, not read as a
    sparse product with a coordinate outside the algebra."""
    alg = {"structure": [[["1", "0", "0"], ["0", "1"]],
                         [["0", "1"], ["0", "0"]]],
           "unit": ["1", "0"]}
    a = tmp_path / "a.json"
    a.write_text(json.dumps(alg))
    b = tmp_path / "b.json"
    b.write_text(json.dumps({"vectors": [["1", "0"]]}))
    assert main(["findim-demo", str(a), str(b)]) == 1
    assert "n x n x n cube" in _one_line_error(capsys)


@pytest.mark.parametrize("argv, message", [
    (["findim-demo", "--fixture", "triangular3", "--cap-linear", "10"],
     "unrecognized arguments: --cap-linear"),
    (["analyze", "g.json"], "required: subgroup"),
    (["corpus", "--format", "xml"], "invalid choice"),
    (["nosuch"], "invalid choice"),
    ([], "required: command"),
])
def test_usage_error_exit_1(capsys, argv, message):
    """A usage error exits 1 with one error line, not argparse's 2, which
    is the cap's code; --help still exits 0."""
    assert main(argv) == 1
    assert message in _one_line_error(capsys)
    with pytest.raises(SystemExit) as exc:
        main(["findim-demo", "--help"])
    assert exc.value.code == 0
    assert "--fixture" in capsys.readouterr().out


def test_findim_demo_missing_args(capsys):
    assert main(["findim-demo"]) == 1
    assert "need --fixture" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--fixture", "triangular3", "/nonexistent/a.json",
      "/nonexistent/b.json"], "--fixture takes no ALGEBRA or SUBALGEBRA"),
    (["--fixture", "triangular3", "10"],
     "--fixture takes no ALGEBRA or SUBALGEBRA"),
    (["--fixture", "triangular3", "--cap-linear", "10"],
     "unrecognized arguments: --cap-linear"),
])
def test_findim_demo_fixture_with_spec_files_exit_1(capsys, argv, message):
    """--fixture together with positional spec files is a usage error: no
    report, exit 1 and one error line, whichever files are named."""
    assert main(["findim-demo"] + argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err


def _one_line_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


@pytest.mark.parametrize("spec, message", [
    ({"generators": []}, "non-empty"),
    ({"generators": 5}, "non-empty"),
    ({"generators": [["a", 1, 2]]}, "not a permutation"),
    ({"generator_indices": []}, "non-empty"),
    ({"generator_indices": [-1]}, "generator index"),
    ({"generator_indices": [6]}, "generator index"),
    ({"generator_indices": ["x"]}, "generator index"),
    ({"generator_indices": [0.5]}, "generator index must be an integer"),
    ({"generator_indices": 1}, "'generator_indices' must be a list"),
    (5, "subgroup spec must be a JSON object"),
    ([[1, 0, 2]], "subgroup spec must be a JSON object"),
    ({"generators": [[True, False, 2]]}, "not a permutation"),
    ({"name": 5, "generators": [[1, 0, 2]]}, "'name' must be a string"),
    ({"name": ["H"], "generator_indices": [1]}, "'name' must be a string"),
])
def test_bad_subgroup_spec_exit_1(s3_files, tmp_path, capsys, spec, message):
    g, _ = s3_files
    h = tmp_path / "h.json"
    h.write_text(json.dumps(spec))
    assert main(["analyze", g, str(h)]) == 1
    assert message in _one_line_error(capsys)


def test_matrix_spec_without_basis_exit_1(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"matrix_size": 2}))
    b = tmp_path / "b.json"
    b.write_text(json.dumps({"vectors": [["1"]]}))
    assert main(["findim-demo", str(a), str(b)]) == 1
    assert "'basis'" in _one_line_error(capsys)


def test_group_spec_not_an_object_exit_1(s3_files, tmp_path, capsys):
    _, h = s3_files
    g = tmp_path / "g.json"
    g.write_text("5")
    assert main(["analyze", str(g), h]) == 1
    assert "group spec must be a JSON object" in _one_line_error(capsys)


@pytest.mark.parametrize("name", [3, None, ["S3"]])
def test_group_spec_name_not_a_string_exit_1(s3_files, tmp_path, capsys,
                                             name):
    _, h = s3_files
    g = tmp_path / "g.json"
    g.write_text(json.dumps(dict(S3_GROUP, name=name)))
    assert main(["analyze", str(g), h]) == 1
    assert "'name' must be a string" in _one_line_error(capsys)


# Q[x]/(x^2) by structure constants over the basis {1, x}
DUAL_NUMBERS = {"structure": [[["1", "0"], ["0", "1"]],
                              [["0", "1"], ["0", "0"]]],
                "unit": ["1", "0"]}
T2_SPEC = {"matrix_size": 2,
           "basis": [[["1", "0"], ["0", "0"]], [["0", "1"], ["0", "0"]],
                     [["0", "0"], ["0", "1"]]]}


@pytest.mark.parametrize("alg, sub, message", [
    (T2_SPEC, 5, "subalgebra spec must be a JSON object"),
    (5, {"vectors": [["1"]]}, "algebra spec must be a JSON object"),
    ({"matrix_size": 2, "basis": [5]}, {"vectors": [["1"]]},
     "matrix is not 2x2"),
    ({"matrix_size": 2.0, "basis": []}, {"vectors": [["1"]]},
     "'matrix_size' must be an integer"),
    (T2_SPEC, {"matrices": [5]}, "matrix is not 2x2"),
    (T2_SPEC, {"vectors": [5]}, "subalgebra vector must be a list"),
    (dict(T2_SPEC, name=5), {"vectors": [["1"]]}, "'name' must be a string"),
    (dict(T2_SPEC, labels=5), {"vectors": [["1"]]},
     "'labels' must be a list"),
    (dict(T2_SPEC, labels=["a", "b"]), {"vectors": [["1"]]},
     "'labels' must be 3 strings"),
    (dict(T2_SPEC, labels=["a", "b", 3]), {"vectors": [["1"]]},
     "'labels' must be 3 strings"),
    (dict(DUAL_NUMBERS, name={"n": 1}), {"vectors": [["1", "0"]]},
     "'name' must be a string"),
    (dict(DUAL_NUMBERS, labels="1x"), {"vectors": [["1", "0"]]},
     "'labels' must be a list"),
    (dict(DUAL_NUMBERS, labels=["1", "x", "x2"]), {"vectors": [["1", "0"]]},
     "'labels' must be 2 strings"),
    # a zero-dimensional algebra is no input
    ({"structure": [], "unit": []}, {"vectors": []},
     "algebra dimension must be >= 1: 'structure' is empty"),
    ({"matrix_size": 0, "basis": []}, {"vectors": []},
     "'matrix_size' must be >= 1, got 0"),
    ({"matrix_size": -1, "basis": []}, {"vectors": []},
     "'matrix_size' must be >= 1, got -1"),
    ({"matrix_size": 2, "basis": []}, {"vectors": []},
     "algebra dimension must be >= 1: 'basis' is empty"),
    # a JSON boolean is not a rational
    (dict(DUAL_NUMBERS, structure=[[[True, "0"], ["0", "1"]],
                                   [["0", "1"], ["0", "0"]]]),
     {"vectors": [["1", "0"]]}, "bad rational True"),
    (dict(DUAL_NUMBERS, unit=[True, "0"]), {"vectors": [["1", "0"]]},
     "bad rational True"),
    (dict(T2_SPEC, basis=[[[True, "0"], ["0", "0"]]] + T2_SPEC["basis"][1:]),
     {"vectors": [["1", "0", "1"]]}, "bad rational True"),
    (DUAL_NUMBERS, {"vectors": [[True, "0"]]}, "bad rational True"),
    (T2_SPEC, {"matrices": [[["1", "0"], ["0", True]]]},
     "bad rational True"),
])
def test_findim_demo_malformed_spec_exit_1(tmp_path, capsys, alg, sub,
                                           message):
    a = tmp_path / "a.json"
    a.write_text(json.dumps(alg))
    b = tmp_path / "b.json"
    b.write_text(json.dumps(sub))
    assert main(["findim-demo", str(a), str(b)]) == 1
    assert message in _one_line_error(capsys)


@pytest.mark.parametrize("entry, value", [
    ("0", 0), ("1", 1), ("1/2", Fraction(1, 2)), ("2/2", 1),
    (True, "bad rational True: not a number"),
    ("x", "bad rational 'x': Invalid literal for Fraction: 'x'"),
])
def test_spec_rationals(entry, value):
    """A spec entry parses to an int when integral, else a Fraction; a
    boolean or a bad string fails with its one-line message."""
    if isinstance(value, str):
        with pytest.raises(SpecError) as exc:
            _frac(entry)
        assert str(exc.value) == value
    else:
        got = _frac(entry)
        assert got == value and type(got) is type(value)


def test_findim_demo_cap_linear_env_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("SEPDEPTH_CAP_LINEAR", "10")
    assert main(["findim-demo", "--fixture", "triangular3"]) == 2
    assert "cap exceeded" in capsys.readouterr().err


def test_findim_demo_checks_the_cap_before_the_radical(capsys, monkeypatch):
    """An input over the cap exits 2 without computing any radical."""
    from sepdepth import findim

    def radical(alg):
        raise AssertionError("radical computed before the cap check")

    monkeypatch.setattr(findim, "radical", radical)
    monkeypatch.setenv("SEPDEPTH_CAP_LINEAR", "10")
    assert main(["findim-demo", "--fixture", "triangular3"]) == 2
    assert "cap exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("name, builder, square, cap", [
    ("triangular40", "upper_triangular_algebra", 820 ** 2, None),
    ("jordan40", "upper_triangular_algebra", 820 ** 2, None),
    ("monoid3000", "monoid_algebra", 6000 ** 2, None),
    ("structural", "structural_matrix_example", 81, "80"),
])
def test_findim_demo_checks_a_fixture_cap_before_the_build(
        capsys, monkeypatch, name, builder, square, cap):
    """A fixture over the cap exits 2 with the message the tensor square
    raises, without building the algebra: its dimension is known in
    closed form."""
    from sepdepth import findim

    def build(*args):
        raise AssertionError("fixture built before the cap check")

    monkeypatch.setattr(findim, builder, build)
    if cap is None:
        monkeypatch.delenv("SEPDEPTH_CAP_LINEAR", raising=False)
        cap = "4096"
    else:
        monkeypatch.setenv("SEPDEPTH_CAP_LINEAR", cap)
    assert main(["findim-demo", "--fixture", name]) == 2
    assert capsys.readouterr().err == (
        f"cap exceeded: dim(A tensor A) = {square} exceeds cap {cap}\n")


def test_findim_demo_fixture_at_the_cap_is_built(capsys, monkeypatch):
    """dim(T_3)^2 = 36 is not over a cap of 36."""
    monkeypatch.setenv("SEPDEPTH_CAP_LINEAR", "36")
    assert main(["findim-demo", "--fixture", "triangular3"]) == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 6


@pytest.mark.parametrize("argv, env, message", [
    (["--cap-linear", "-5"], {},
     "argument --cap-linear must be a nonnegative integer, got -5"),
    (["--cap-group", "-1"], {},
     "argument --cap-group must be a nonnegative integer, got -1"),
    ([], {"SEPDEPTH_CAP_LINEAR": "-3"}, "environment variable "
     "SEPDEPTH_CAP_LINEAR must be a nonnegative integer, got -3"),
    ([], {"SEPDEPTH_CAP_GROUP": "-3"}, "environment variable "
     "SEPDEPTH_CAP_GROUP must be a nonnegative integer, got -3"),
    # the flag is read before the variable, so a negative flag is refused
    # where the variable holds a valid cap
    (["--cap-group", "-2"], {"SEPDEPTH_CAP_GROUP": "100"},
     "argument --cap-group must be a nonnegative integer, got -2"),
])
def test_negative_cap_is_a_usage_error(s3_files, capsys, monkeypatch, argv,
                                       env, message):
    """A negative cap, from a flag or from SEPDEPTH_CAP_*, exits 1 with one
    error line and prints no report, in analyze and in corpus."""
    monkeypatch.delenv("SEPDEPTH_CAP_LINEAR", raising=False)
    monkeypatch.delenv("SEPDEPTH_CAP_GROUP", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    g, h = s3_files
    for command in (["analyze", g, h], ["corpus", "--corpus-filter", "S3/*"]):
        assert main(command + argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_findim_demo_negative_cap_env_is_a_usage_error(capsys, monkeypatch):
    """findim-demo refuses a negative SEPDEPTH_CAP_LINEAR with exit 1 and
    one error line, before any fixture is built."""
    monkeypatch.setenv("SEPDEPTH_CAP_LINEAR", "-3")
    assert main(["findim-demo", "--fixture", "triangular3"]) == 1
    assert _one_line_error(capsys) == (
        "error: environment variable SEPDEPTH_CAP_LINEAR must be a "
        "nonnegative integer, got -3")


def test_cap_zero_is_valid(s3_files, capsys, monkeypatch):
    """A cap of 0 is a cap: the linear one is named in caps_hit (exit 0),
    the group one exits 2, and findim-demo's exits 2."""
    g, h = s3_files
    assert main(["analyze", g, h, "--cap-linear", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["caps_hit"] == [
        "dim(A tensor_B A) = 18 exceeds cap 0"]
    assert main(["analyze", g, h, "--cap-group", "0"]) == 2
    assert capsys.readouterr().err.startswith("cap exceeded:")
    monkeypatch.setenv("SEPDEPTH_CAP_LINEAR", "0")
    assert main(["findim-demo", "--fixture", "triangular3"]) == 2
    assert capsys.readouterr().err == (
        "cap exceeded: dim(A tensor A) = 36 exceeds cap 0\n")


# b0 is the unit, b1*b1 = b2, b2*b2 = b0: (b1 b1) b2 = b0 but b1 (b1 b2) = 0
NON_ASSOCIATIVE = {
    "structure": [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                  [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]],
                  [["0", "0", "1"], ["0", "0", "0"], ["1", "0", "0"]]],
    "unit": ["1", "0", "0"],
}


def test_non_associative_rejected_under_optimize(tmp_path):
    import os
    import subprocess
    import sys

    import sepdepth
    a = tmp_path / "a.json"
    a.write_text(json.dumps(NON_ASSOCIATIVE))
    b = tmp_path / "b.json"
    b.write_text(json.dumps({"vectors": [["1", "0", "0"]]}))
    src = os.path.dirname(os.path.dirname(sepdepth.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-m", "sepdepth.cli",
                           "findim-demo", str(a), str(b)],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.strip().splitlines() == [
        "error: structure constants not associative at basis triple "
        "(1, 1, 2)"]


def test_no_assert_in_package_source():
    """Checks written as assert vanish under python -O; src has none."""
    import ast
    import pathlib

    import sepdepth
    files = sorted(pathlib.Path(sepdepth.__file__).parent.glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        asserts = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Assert)]
        assert not asserts, f"{path.name}: assert at lines {asserts}"


def test_package_imports_only_the_standard_library():
    """The runtime is standard-library only: every import in src is
    relative or names a standard-library module."""
    import ast
    import pathlib
    import sys

    import sepdepth
    files = sorted(pathlib.Path(sepdepth.__file__).parent.glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, \
                    f"{path.name}:{node.lineno} imports {name}"


FIXTURE_OUTPUTS = os.path.join(os.path.dirname(__file__), "data",
                               "findim_fixtures.json")


def test_findim_demo_fixture_output_unchanged(capsys):
    """findim-demo --fixture prints byte for byte what the dense
    regular-representation code printed (recorded in tests/data)."""
    with open(FIXTURE_OUTPUTS) as fh:
        expected = json.load(fh)
    assert len(expected) == 13
    for name, text in sorted(expected.items()):
        assert main(["findim-demo", "--fixture", name]) == 0
        assert capsys.readouterr().out == text, name


SPEC_REPORTS = os.path.join(os.path.dirname(__file__), "data",
                            "findim_spec_reports.json")


def test_findim_demo_spec_output_unchanged(tmp_path, capsys):
    """findim-demo on JSON specs with permuted bases, matrix and
    structure-constant ones, prints byte for byte the reports recorded in
    tests/data, witness strings included (monoid4's hold 1/4 and 5/4)."""
    with open(SPEC_REPORTS) as fh:
        expected = json.load(fh)
    assert sorted(expected) == [f"{item}.{order}" for item in (
        "jordan4", "monoid4", "structural", "triangular4") for order in (0, 1)]
    for name, case in sorted(expected.items()):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(case["algebra"]))
        b.write_text(json.dumps(case["subalgebra"]))
        assert main(["findim-demo", str(a), str(b)]) == 0
        assert capsys.readouterr().out == case["output"], name


MATRIX_REPORTS = os.path.join(os.path.dirname(__file__), "data",
                              "matrix_reports.json")


def test_analyze_matrix_only_large_groups_unchanged(tmp_path, capsys):
    """analyze --matrix-only on A5<S5, S5<S6 and S6<S7 prints byte for
    byte the reports recorded in tests/data, so the character tables of
    groups of order 120 to 5040 are pinned."""
    with open(MATRIX_REPORTS) as fh:
        expected = json.load(fh)
    assert sorted(expected) == ["A5<S5", "S5<S6", "S6<S7"]
    for name, case in sorted(expected.items()):
        g, h = tmp_path / "g.json", tmp_path / "h.json"
        g.write_text(json.dumps(case["group"]))
        h.write_text(json.dumps(case["subgroup"]))
        assert main(["analyze", str(g), str(h), "--matrix-only"]) == 0
        assert capsys.readouterr().out == case["output"], name


@pytest.mark.parametrize("name", ["triangular3", "triangular4", "triangular5",
                                  "jordan3", "jordan4", "jordan5",
                                  "structural"])
def test_findim_demo_matrix_specs_print_the_fixture_output(tmp_path, capsys,
                                                           name):
    """The JSON matrix-spec route, the one the benchmark drives, prints
    byte for byte what the built-in fixture prints."""
    alg, sub = fixture_specs(name)
    a = tmp_path / "a.json"
    a.write_text(json.dumps(alg))
    b = tmp_path / "b.json"
    b.write_text(json.dumps(sub))
    assert main(["findim-demo", "--fixture", name]) == 0
    expected = capsys.readouterr().out
    assert main(["findim-demo", str(a), str(b)]) == 0
    assert capsys.readouterr().out == expected


def test_findim_demo_computes_radical_of_a_once(monkeypatch, capsys):
    from sepdepth import findim
    seen = []
    original = findim.radical

    def counting(alg):
        seen.append(alg.name)
        return original(alg)

    monkeypatch.setattr(findim, "radical", counting)
    assert main(["findim-demo", "--fixture", "triangular3"]) == 0
    capsys.readouterr()
    # J(A) once; the other call is J(B), on the subalgebra "sub"
    assert sorted(seen) == ["T3", "sub"]
