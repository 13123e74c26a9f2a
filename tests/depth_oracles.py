"""Reference routines for the depth side, for tests only.

The big-integer scan below is the oracle for ``sepdepth.depth``'s boolean
row masks: it forms S = M M^t and T = M^t M with its own products, takes
full integer powers and compares zero patterns, and shares no code with
the package.
"""

from operator import mul


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zero_pattern(m):
    """Boolean matrix, True where the entry is zero."""
    return tuple(tuple(x == 0 for x in row) for row in m)


def _stable_exponent(step, start, M):
    """Least n >= 0 with step^n start and step^(n+1) start sharing a zero
    pattern, by big-integer powers."""
    power = start
    for n in range(len(M) * len(M[0]) + 2):
        nxt = mat_mul(step, power)
        if zero_pattern(power) == zero_pattern(nxt):
            return n
        power = nxt
    raise AssertionError("oracle depth scan failed to stabilize")


def depths_by_powers(M):
    """(S, T, odd depth, even depth, H-depth, depth) of a nonnegative
    integer matrix M by big-integer powers of S and T."""
    Mt = transpose(M)
    S, T = mat_mul(M, Mt), mat_mul(Mt, M)
    odd = 2 * _stable_exponent(S, identity_matrix(len(S)), M) + 1
    even = 2 * _stable_exponent(S, M, M) + 2
    h = 2 * _stable_exponent(T, identity_matrix(len(T)), M) + 1
    return S, T, odd, even, h, min(odd, even)


def depth_report_json(rep):
    """A DepthReport as a JSON-ready dict, matrices as lists of lists."""
    return {
        "inclusion_matrix": [list(r) for r in rep.matrix],
        "S": [list(r) for r in rep.S],
        "T": [list(r) for r in rep.T],
        "min_odd_depth": rep.min_odd_depth,
        "min_even_depth": rep.min_even_depth,
        "min_h_depth": rep.min_h_depth,
        "min_depth": rep.min_depth,
        "even_rule_derived": rep.even_rule_derived,
    }
