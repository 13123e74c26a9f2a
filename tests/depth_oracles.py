"""Reference routines for the depth side, for tests only."""


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
