"""Command-line front end.

Subcommands:

* ``analyze`` — invariants of one group/subgroup pair given as JSON specs.
* ``corpus`` — run the built-in verification corpus and report agreement.
* ``findim-demo`` — radical/separability report for a structure-constant
  algebra extension, from JSON specs or a named built-in fixture.

Exit codes: 0 success, 1 parse/validation error (a command-line usage
error included, such as a negative cap from ``--cap-group``,
``--cap-linear`` or a ``SEPDEPTH_CAP_*`` variable; a cap of 0 is valid),
2 cap exceeded (the group cap, or the linear cap in ``findim-demo``;
``analyze`` and ``corpus`` report the linear cap in ``caps_hit``), 3
cross-criterion disagreement.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from . import findim
from .analyze import analyze_pair, report_tsv_header, report_tsv_row
from .chartable import character_table_mod_p, common_prime
from .corpus import corpus_pairs
from .errors import CapExceeded, InvalidAlgebra, SepdepthError
from .groupalg import DEFAULT_LINEAR_CAP
from .linalg import to_sparse
from .permgroup import DEFAULT_GROUP_CAP, FiniteGroup, Permutation, Subgroup

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CAP = 2
EXIT_DISAGREE = 3


class SpecError(SepdepthError):
    """Bad input spec (maps to exit code 1)."""


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with one line, not argparse's 2 (the cap's)."""

    def error(self, message):
        raise SpecError(message)


# ---------------------------------------------------------------------------
# spec parsing


def _load_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: line {exc.lineno} column {exc.colno}: "
                        f"{exc.msg}") from exc
    except OSError as exc:
        raise SpecError(f"{path}: {exc.strerror}") from exc


_KINDS = {dict: "a JSON object", int: "an integer", list: "a list",
          str: "a string"}


def _typed(x, kind, what):
    """x if it is of the JSON kind (dict, int, list or str), else a
    SpecError; floats, strings and booleans are not cast to int."""
    if not isinstance(x, kind) or isinstance(x, bool):
        raise SpecError(f"{what} must be {_KINDS[kind]}, got {x!r}")
    return x


def _perm_from_images(images, degree):
    if (not isinstance(images, list) or len(images) != degree
            or not all(type(x) is int for x in images)
            or set(images) != set(range(degree))):
        raise SpecError(f"not a permutation of 0..{degree - 1}: {images}")
    return Permutation(tuple(images))


def _perms(gen_lists, degree):
    if not isinstance(gen_lists, list) or not gen_lists:
        raise SpecError("'generators' must be a non-empty list")
    return [_perm_from_images(g, degree) for g in gen_lists]


def group_from_spec(spec, cap):
    _typed(spec, dict, "group spec")
    try:
        degree = _typed(spec["degree"], int, "degree")
        gen_lists = spec["generators"]
    except KeyError as exc:
        raise SpecError(f"group spec needs 'degree' and 'generators': {exc}")
    if degree < 1:
        raise SpecError("degree must be >= 1")
    gens = _perms(gen_lists, degree)
    return FiniteGroup(gens, name=_typed(spec.get("name", "G"), str, "'name'"),
                       cap=cap)


def subgroup_from_spec(G, spec):
    _typed(spec, dict, "subgroup spec")
    if "generators" in spec:
        return G.subgroup(_perms(spec["generators"], G.degree),
                          name=_typed(spec.get("name", "H"), str, "'name'"))
    if "generator_indices" in spec:
        idx = [_typed(i, int, "generator index") for i in
               _typed(spec["generator_indices"], list, "'generator_indices'")]
        if not idx:
            raise SpecError("'generator_indices' must be non-empty")
        bad = [i for i in idx if not 0 <= i < G.order]
        if bad:
            raise SpecError(f"generator index {bad[0]} not in "
                            f"0..{G.order - 1}")
        return Subgroup(G, idx,
                        name=_typed(spec.get("name", "H"), str, "'name'"))
    raise SpecError("subgroup spec needs 'generators' or 'generator_indices'")


def _frac(x):
    """A spec's rational entry: an int when it is integral, which keeps
    integer input on the echelon's fraction-free path.  A JSON boolean is
    not a rational, though Python's Fraction takes it for 0 or 1.  The
    strings "0" and "1", most entries of a structure-constant spec, skip
    Fraction's parser."""
    if x == "0" or x == "1":
        return int(x)
    if isinstance(x, bool):
        raise SpecError(f"bad rational {x!r}: not a number")
    try:
        f = Fraction(x)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise SpecError(f"bad rational {x!r}: {exc}")
    return f.numerator if f.denominator == 1 else f


def algebra_from_spec(spec):
    """Structure-constant algebra from JSON.

    Either explicit structure constants ('structure' + 'unit') or the
    matrix shorthand ('matrix_size' + 'basis' of matrices with rational
    string entries).
    """
    _typed(spec, dict, "algebra spec")
    name = _typed(spec.get("name", ""), str, "'name'")
    if "matrix_size" in spec:
        if "basis" not in spec:
            raise SpecError("matrix spec needs an integer 'matrix_size' "
                            "and a 'basis' list")
        m = _typed(spec["matrix_size"], int, "'matrix_size'")
        if m < 1:
            raise SpecError(f"'matrix_size' must be >= 1, got {m}")
        mats = [{(i, j): x for i, row in enumerate(_matrix(mat, m))
                 for j, x in enumerate(row) if x}
                for mat in _typed(spec["basis"], list, "'basis'")]
        if not mats:
            raise SpecError("algebra dimension must be >= 1: 'basis' is empty")
        return findim._matrix_span_algebra(m, mats, name=name,
                                           labels=_labels(spec, len(mats)))
    try:
        cube = [[[_frac(c) for c in vec] for vec in row]
                for row in spec["structure"]]
        unit = [_frac(c) for c in spec["unit"]]
    except (KeyError, TypeError) as exc:
        raise SpecError(f"algebra spec needs 'structure' and 'unit': {exc}")
    n = len(cube)
    if not n:
        raise SpecError("algebra dimension must be >= 1: 'structure' is "
                        "empty")
    if (any(len(row) != n or any(len(vec) != n for vec in row)
            for row in cube) or len(unit) != n):
        raise SpecError("structure constants must form an n x n x n cube")
    A = findim.StructureConstantAlgebra(
        dimension=n, table=[[to_sparse(vec) for vec in row] for row in cube],
        unit=unit, labels=_labels(spec, n), name=name)
    A.check_associative_and_unital()
    return A


def _labels(spec, dim):
    """The spec's basis labels: absent, or one string per basis element."""
    if "labels" not in spec:
        return []
    labels = _typed(spec["labels"], list, "'labels'")
    if len(labels) != dim or not all(isinstance(x, str) for x in labels):
        raise SpecError(f"'labels' must be {dim} strings, one per basis "
                        f"element, got {labels!r}")
    return labels


def _matrix(mat, m):
    """An m x m matrix spec as rows of rationals (see _frac)."""
    if (not isinstance(mat, list) or len(mat) != m
            or not all(isinstance(r, list) and len(r) == m for r in mat)):
        raise SpecError(f"matrix is not {m}x{m}: {mat!r}")
    return [[_frac(x) for x in row] for row in mat]


def subalgebra_from_spec(A, spec):
    _typed(spec, dict, "subalgebra spec")
    if "matrices" in spec:
        m = getattr(A, "embedding_size", None)
        if m is None:
            raise SpecError("'matrices' shorthand needs a matrix ambient")
        try:
            vectors = [A.flat_coords([x for row in _matrix(mat, m)
                                      for x in row])
                       for mat in _typed(spec["matrices"], list, "'matrices'")]
        except InvalidAlgebra:
            raise SpecError("subalgebra matrix outside the ambient span")
    elif "vectors" in spec:
        vectors = [[_frac(c) for c in _typed(v, list, "subalgebra vector")]
                   for v in _typed(spec["vectors"], list, "'vectors'")]
        if any(len(v) != A.dimension for v in vectors):
            raise SpecError(f"vectors must have length {A.dimension}")
    else:
        raise SpecError("subalgebra spec needs 'vectors' or 'matrices'")
    try:
        return findim.AlgebraInclusion(A, vectors)
    except (ValueError, SepdepthError) as exc:
        raise SpecError(f"invalid subalgebra: {exc}")


# ---------------------------------------------------------------------------
# built-in findim fixtures


def _fixture(name, cap):
    """The named built-in pair (A, B).  Each fixture's dim(A) is known in
    closed form, so the cap on dim(A (x) A) is checked before any build."""
    kind = name.rstrip("0123456789")
    size = name[len(kind):]
    try:
        n = int(size) if size else (1 if kind == "monoid" else 3)
    except ValueError:  # more digits than int() converts: no fixture
        n = 0
    if name == "structural":
        dim = 9
    elif n >= 1 and kind in ("triangular", "jordan"):
        dim = n * (n + 1) // 2
    elif n >= 1 and kind == "monoid":
        dim = 2 * n
    else:
        raise SpecError(f"unknown fixture {name!r}; try triangular3, "
                        "jordan3, structural, monoid2")
    if dim * dim > cap:
        raise CapExceeded("dim(A tensor A)", dim * dim, cap)
    if kind == "structural":
        return findim.structural_matrix_example()
    if kind == "monoid":
        M, e = findim.monoid_algebra(n)
        return M, findim.monoid_nilpotent_part_subalgebra(M, e)
    A = findim.upper_triangular_algebra(n)
    sub = (findim.strict_upper_subalgebra if kind == "triangular"
           else findim.jordan_subalgebra)
    return A, sub(A, n)


# ---------------------------------------------------------------------------
# subcommands


def _emit_json(obj):
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def cmd_analyze(args):
    G = group_from_spec(_load_json(args.group), args.cap_group)
    H = subgroup_from_spec(G, _load_json(args.subgroup))
    rep = analyze_pair(G, H, seed=args.seed, cap_linear=args.cap_linear,
                       matrix_only=args.matrix_only)
    if args.format == "tsv":
        print(report_tsv_header())
        print(report_tsv_row(rep))
    else:
        _emit_json(rep.to_json_dict())
    return EXIT_DISAGREE if rep.disagreements else EXIT_OK


def cmd_corpus(args):
    reports = []
    tables = {}
    for name, G, H in corpus_pairs(args.corpus_filter):
        if G.order > args.cap_group:
            raise CapExceeded("group order", G.order, args.cap_group)
        if G.name not in tables:
            prime = common_prime(G, G)
            tables[G.name] = character_table_mod_p(G, prime=prime,
                                                   seed=args.seed)
        rep = analyze_pair(G, H, seed=args.seed, cap_linear=args.cap_linear,
                           matrix_only=args.matrix_only,
                           table_g=tables[G.name])
        reports.append(rep)
    agree = sum(v == "AGREE" for r in reports
                for v in r.agreements.values())
    disagree = sum(v == "DISAGREE" for r in reports
                   for v in r.agreements.values())
    if args.format == "tsv":
        print(report_tsv_header())
        for rep in reports:
            print(report_tsv_row(rep))
        print(f"# pairs={len(reports)} agree={agree} disagree={disagree}")
    else:
        _emit_json({
            "reports": [r.to_json_dict() for r in reports],
            "summary": {"pairs": len(reports),
                        "agree": agree, "disagree": disagree},
        })
    return EXIT_DISAGREE if disagree else EXIT_OK


def cmd_findim_demo(args):
    if args.fixture:
        if args.algebra or args.subalgebra:
            raise SpecError("--fixture takes no ALGEBRA or SUBALGEBRA files")
        A, inc = _fixture(args.fixture, args.cap_linear)
    else:
        if not args.algebra or not args.subalgebra:
            raise SpecError("need --fixture or ALGEBRA and SUBALGEBRA files")
        A = algebra_from_spec(_load_json(args.algebra))
        inc = subalgebra_from_spec(A, _load_json(args.subalgebra))
    # a spec's cap on dim(A (x) A) is checked here, before J(A) is computed
    separable, witness = findim.is_separable_extension(A, inc,
                                                       cap=args.cap_linear)
    rad = findim.radical(A)
    rad_verdict = findim.prop_rad_check(A, inc, rad)
    report = {
        "algebra": A.name or "A",
        "dimension": A.dimension,
        "sub_dimension": inc.sub_dimension,
        "radical_dim": len(rad),
        "separable": separable,
        "radical_criterion": rad_verdict,
        "witness": ([str(c) for c in witness]
                    if witness is not None else None),
    }
    _emit_json(report)
    if (rad_verdict != "not-applicable"
            and (rad_verdict == "separable") != separable):
        return EXIT_DISAGREE
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _env_int(name, default):
    val = os.environ.get(name)
    if val is None:
        return default
    try:
        return int(val)
    except ValueError:
        raise SpecError(f"environment variable {name} must be an integer, "
                        f"got {val!r}")


def _cap(value, flag, env, default):
    """A cap from its flag's value, else from the environment variable
    env, else the default.  A negative cap is a usage error; 0 is a cap."""
    source = f"argument {flag}"
    if value is None:
        value, source = _env_int(env, default), f"environment variable {env}"
    if value < 0:
        raise SpecError(f"{source} must be a nonnegative integer, "
                        f"got {value}")
    return value


def build_parser():
    parser = _Parser(
        prog="sepdepth",
        description="Separability, depth and H-depth invariants of finite "
                    "group-algebra and structure-constant extensions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0,
                       help="seed recorded in the report; the character "
                            "tables do not depend on it")
        p.add_argument("--cap-group", type=int, default=None,
                       help="max group order (env SEPDEPTH_CAP_GROUP)")
        p.add_argument("--cap-linear", type=int, default=None,
                       help="max dim(A (x)_B A) = |G|*[G:H]; a pair over "
                            "it reports its matrix side and names the cap "
                            "in caps_hit (env SEPDEPTH_CAP_LINEAR)")
        p.add_argument("--matrix-only", action="store_true",
                       help="skip the tensor-square linear algebra")
        p.add_argument("--format", choices=("json", "tsv"), default="json")

    pa = sub.add_parser("analyze", help="analyze one group/subgroup pair")
    pa.add_argument("group", help="group spec JSON file, or - for stdin")
    pa.add_argument("subgroup", help="subgroup spec JSON file")
    common(pa)
    pa.set_defaults(func=cmd_analyze)

    pc = sub.add_parser("corpus", help="run the built-in corpus")
    pc.add_argument("--corpus-filter", default=None, metavar="GLOB",
                    help="only pairs whose group/subgroup name matches")
    common(pc)
    pc.set_defaults(func=cmd_corpus)

    pf = sub.add_parser("findim-demo",
                        help="separability of a finite-dimensional "
                             "algebra extension")
    pf.add_argument("algebra", nargs="?", help="algebra spec JSON file")
    pf.add_argument("subalgebra", nargs="?", help="subalgebra spec JSON")
    pf.add_argument("--fixture", default=None,
                    help="built-in example: triangular<n>, jordan<n>, "
                         "structural, monoid<n>")
    pf.set_defaults(func=cmd_findim_demo, cap_linear=None)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if hasattr(args, "cap_group"):
            args.cap_group = _cap(args.cap_group, "--cap-group",
                                  "SEPDEPTH_CAP_GROUP", DEFAULT_GROUP_CAP)
        args.cap_linear = _cap(args.cap_linear, "--cap-linear",
                               "SEPDEPTH_CAP_LINEAR", DEFAULT_LINEAR_CAP)
        return args.func(args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except SepdepthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
