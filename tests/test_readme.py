"""The README's library quickstart runs, and its commented results hold.

The README's one `python` block is run statement by statement.  Each
statement that ends in a comment names its result there; CHECKS holds one
check per such comment, keyed by the comment's text, and a comment without
a check (or a check without a comment) fails the test.  A statement's
result is its value, or for an assignment the value it assigns.
"""

import ast
import io
import math
import re
import tokenize
from pathlib import Path

import evcalc as ev

README = Path(__file__).resolve().parent.parent / "README.md"

CHECKS = {
    "BeliefInterval(bel=0.75, pl=1.0)": lambda v, ns: repr(v) == "BeliefInterval(bel=0.75, pl=1.0)",
    "finite (ln 2, 0)": lambda v, ns: v == ev.EvidenceWeights.finite(math.log(2), 0.0),
    "same as combining twice": lambda v, ns: v == ev.combine_interval(ns["a"], ns["a"]),
    "[6/11, 7/11]": lambda v, ns: (v.l, v.u) == (6 / 11, 7 / 11),
    "0.6": lambda v, ns: v == 0.6,
    "the same fi": lambda v, ns: v == ns["fi"],
    "combine_lu: counts (12, 20)": lambda v, ns: (  # the rule's u is one ulp below 13/21
        math.isclose(v.l, 12 / 21, rel_tol=1e-15) and math.isclose(v.u, 13 / 21, rel_tol=1e-15)
    ),
    "the point absorbs fi": lambda v, ns: v == ev.FrequencyInterval.point(0.51),
    "ConflictReport(0.51, 0.99)": lambda v, ns: v == ev.ConflictReport(0.51, 0.99),
    "bel=pl=1.0 but l,u near 0.7": lambda v, ns: (
        v.ds_bel == v.ds_pl == 1.0 and abs(v.lu_l - 0.7) < 1e-3 and abs(v.lu_u - 0.7) < 1e-3
    ),
    "gaps against the analytic limits": lambda v, ns: (
        isinstance(v, ev.LimitReport) and v.bel_gap_to_prediction == 0.0 and v.lower_gap_to_q < 1e-3
    ),
}


def quickstart() -> str:
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 1
    return blocks[0]


def commented_statements(source: str):
    """(statement, comment) for each top-level statement; comment is the text
    after the '#' that ends the statement's last line, or None."""
    comments = {
        tok.start[0]: tok.string.lstrip("#").strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    return [(stmt, comments.get(stmt.end_lineno)) for stmt in ast.parse(source).body]


def test_the_quickstart_runs_and_its_commented_results_hold():
    namespace = {}
    checked = set()
    for stmt, comment in commented_statements(quickstart()):
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), README.name, "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), README.name, "exec"), namespace)
            value = namespace[stmt.targets[0].id] if isinstance(stmt, ast.Assign) else None
        if comment is None:
            continue
        assert comment in CHECKS, f"no check for the README comment {comment!r}"
        assert CHECKS[comment](value, namespace), f"{ast.unparse(stmt)}  # {comment}: got {value!r}"
        checked.add(comment)
    assert checked == set(CHECKS)

