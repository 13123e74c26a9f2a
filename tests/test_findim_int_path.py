"""findim's checks on the integer path.

Integer data reaches the echelon as ``int`` in the ideal, nilpotency and
witness checks; a basis whose unit is not integral keeps its Fractions
and its verdicts; and the radical criterion, which compares J(B) with
J(A) before it tests J(B) for an ideal, gives the verdicts of the
ideal-first order."""

import json
import os
from fractions import Fraction

import pytest

from findim_oracles import fixture_specs, ideal_first_verdict
from sepdepth import findim
from sepdepth.cli import (_fixture, algebra_from_spec, main,
                          subalgebra_from_spec)
from sepdepth.findim import (AlgebraInclusion, StructureConstantAlgebra,
                             _sub_radical, is_separable_extension,
                             matrix_algebra, prop_rad_check, radical)
from sepdepth.groupalg import DEFAULT_LINEAR_CAP
from sepdepth.linalg import SparseEchelon

SPEC_REPORTS = os.path.join(os.path.dirname(__file__), "data",
                            "findim_spec_reports.json")

CHECKS = ("_check_nilpotent_ideal", "_is_ideal",
          "verify_separability_witness")


def _all_int(values):
    return all(type(x) is int for x in values)


def _spec_pair(name):
    """(A, B) from JSON specs, as findim-demo reads them: the permuted
    triangular4 and monoid4 specs recorded in tests/data, T_6 from the
    matrix-unit spec."""
    if name == "triangular6":
        alg, sub = fixture_specs(name)
    else:
        with open(SPEC_REPORTS) as fh:
            case = json.load(fh)[f"{name}.1"]
        alg, sub = case["algebra"], case["subalgebra"]
    A = algebra_from_spec(alg)
    return A, subalgebra_from_spec(A, sub)


def _record_checks(monkeypatch):
    """Per check in CHECKS, the vectors it hands to SparseEchelon.add or
    .contains, and the products A.multiply returns inside the witness
    check."""
    inside, seen, products = [], {name: [] for name in CHECKS}, []
    for name in CHECKS:
        def check(*args, _original=getattr(findim, name), _name=name):
            inside.append(_name)
            try:
                return _original(*args)
            finally:
                inside.pop()
        monkeypatch.setattr(findim, name, check)
    for method in ("add", "contains"):
        def recorded(self, vec, _original=getattr(SparseEchelon, method)):
            if inside:
                seen[inside[-1]].append(vec)
            return _original(self, vec)
        monkeypatch.setattr(SparseEchelon, method, recorded)
    multiply = StructureConstantAlgebra.multiply

    def recorded_multiply(self, u, v):
        out = multiply(self, u, v)
        if "verify_separability_witness" in inside:
            products.append(out)
        return out
    monkeypatch.setattr(StructureConstantAlgebra, "multiply",
                        recorded_multiply)
    return seen, products


@pytest.mark.parametrize("name", ["triangular4", "triangular6", "monoid4"])
def test_checks_run_on_ints(monkeypatch, name):
    A, inc = _spec_pair(name)
    assert _all_int(A.unit)
    seen, products = _record_checks(monkeypatch)
    separable, witness = is_separable_extension(A, inc)
    assert separable
    assert prop_rad_check(A, inc, radical(A)) == "separable"
    for check in ("_check_nilpotent_ideal", "_is_ideal"):
        assert seen[check] and all(_all_int(v.values())
                                   for v in seen[check]), check
    # every b_i b_j the witness check takes through multiply is int
    assert products and all(map(_all_int, products))
    # its residuals are int unless the witness itself has fractional
    # coefficients, as monoid4's has (1/4 and 5/4)
    integral = all(Fraction(c).denominator == 1 for c in witness)
    assert integral == (name != "monoid4")
    residuals = seen["verify_separability_witness"]
    assert residuals
    if integral:
        assert all(_all_int(v.values()) for v in residuals)


def test_echelon_gets_no_empty_vector(monkeypatch):
    """On the T6 matrix spec the solve, the radical and its checks hand
    SparseEchelon.add no empty vector: zero products in the nilpotency
    power-up, empty rows of the separability system and zero rows of the
    dense routines are left out before the echelon."""
    A, inc = _spec_pair("triangular6")
    added, add = [], SparseEchelon.add

    def recorded(self, vec):
        added.append(vec)
        return add(self, vec)
    monkeypatch.setattr(SparseEchelon, "add", recorded)
    assert is_separable_extension(A, inc)[0]
    assert prop_rad_check(A, inc, radical(A)) == "separable"
    assert added and all(added)


def _identity_spec(m, scale):
    return [[str(scale) if r == c else "0" for c in range(m)]
            for r in range(m)]


@pytest.mark.parametrize("name, sub, verdict", [
    ("triangular4", "fixture", "separable"),
    ("triangular4", "ground field", "inseparable"),
    ("jordan4", "fixture", "not-applicable"),
])
def test_a_non_integral_unit_keeps_its_fraction_and_verdicts(
        tmp_path, capsys, name, sub, verdict):
    """T_4 on a basis whose first element is 2*1 in place of e11, so its
    unit is (1/2, 0, ..., 0), reports what T_4 on the matrix units does,
    apart from the witness coordinates."""
    alg, sub_spec = fixture_specs(name)
    m = alg["matrix_size"]
    if sub == "ground field":
        sub_spec = {"matrices": [_identity_spec(m, 1)]}
    scaled = dict(alg, basis=[_identity_spec(m, 2)] + alg["basis"][1:],
                  labels=["2*1"] + alg["labels"][1:])
    A = algebra_from_spec(scaled)
    assert A.unit[0] == Fraction(1, 2) and type(A.unit[0]) is Fraction
    reports = []
    for spec in (alg, scaled):
        (tmp_path / "a.json").write_text(json.dumps(spec))
        (tmp_path / "b.json").write_text(json.dumps(sub_spec))
        assert main(["findim-demo", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json")]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    plain, rescaled = reports
    assert plain["radical_criterion"] == verdict
    assert (plain.pop("witness") is None) == (rescaled.pop("witness") is None)
    assert plain == rescaled


def _fixture_pairs():
    names = ([f"triangular{n}" for n in range(1, 6)]
             + [f"jordan{n}" for n in range(1, 6)] + ["structural"]
             + [f"monoid{n}" for n in range(1, 5)])
    for name in names:
        A, inc = _fixture(name, DEFAULT_LINEAR_CAP)
        yield name, A, inc
        yield f"{name} over k1", A, AlgebraInclusion(A, [list(A.unit)])
    M2 = matrix_algebra(2)
    yield "M2 over k1", M2, AlgebraInclusion(M2, [list(M2.unit)])


def test_radical_criterion_tests_equality_first(monkeypatch):
    """On every built-in fixture, and on each over its ground field,
    prop_rad_check gives one verdict with and without J(A) handed in, the
    verdict of the ideal-first order; the ideal test on A runs exactly
    when J(B) differs from J(A).  All three verdicts occur."""
    ideal_tests = []
    is_ideal = findim._is_ideal

    def recorded(alg, basis):
        ideal_tests.append(alg)
        return is_ideal(alg, basis)
    monkeypatch.setattr(findim, "_is_ideal", recorded)
    verdicts = set()
    for name, A, inc in _fixture_pairs():
        JA = radical(A)
        del ideal_tests[:]
        verdict = prop_rad_check(A, inc, JA)
        tested_on_A = any(alg is A for alg in ideal_tests)
        assert tested_on_A == (_sub_radical(A, inc) != JA), name
        assert verdict == prop_rad_check(A, inc), name
        assert verdict == ideal_first_verdict(A, inc), name
        verdicts.add(verdict)
    assert verdicts == {"separable", "inseparable", "not-applicable"}
