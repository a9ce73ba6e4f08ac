"""The verdict vocabulary of bklab-report/1: one table per estimator in
``bklab.report``, and no other module spelling a verdict word itself."""

import ast
import enum
from pathlib import Path

import pytest

from bklab import report
from bklab.distributions import moment_xg, parse_dist_spec
from bklab.functions import (
    GridSpec,
    doubling_ratio_sup,
    exponential,
    power,
)
from bklab.lastexit import estimate_series
from bklab.report import DIVERGENT, FINITE, Verdict, emit

# (table, kind, word): the serialized words of bklab-report/1.
WORDS = [
    ("MOMENT", "finite", "finite"),
    ("MOMENT", "divergent", "divergence-evidence"),
    ("SERIES", "finite", "converging-evidence"),
    ("SERIES", "divergent", "diverging-evidence"),
    ("SERIES", None, "inconclusive"),
    ("LAST_EXIT", "finite", "finite-evidence"),
    ("LAST_EXIT", "divergent", "divergent-evidence"),
    ("DOUBLING", "finite", "bounded-consistent"),
    ("DOUBLING", "divergent", "unbounded-growth-detected"),
    ("MODERATION", "finite", "moderate-consistent"),
    ("MODERATION", "divergent", "non-moderate-evidence"),
]

SRC = Path(__file__).resolve().parents[1] / "src" / "bklab"


@pytest.mark.parametrize("table, kind, word", WORDS)
def test_table_word_and_kind(table, kind, word):
    verdict = getattr(report, table)[kind]
    assert type(verdict) is Verdict
    assert str(verdict) == word and verdict.kind == kind


@pytest.mark.parametrize("table", sorted({t for t, _, _ in WORDS}))
def test_tables_hold_no_other_kind(table):
    assert set(getattr(report, table)) == {k for t, k, _ in WORDS if t == table}


def test_verdict_is_a_plain_str():
    v = report.SERIES[DIVERGENT]
    assert isinstance(v, str) and not isinstance(v, enum.Enum)
    assert v == "diverging-evidence" and hash(v) == hash("diverging-evidence")
    assert str(v) == format(v) == f"{v}" == "diverging-evidence"
    assert type(str(v)) is str
    assert emit({"v": v}) == b'{\n  "v": "diverging-evidence"\n}\n'
    payload = {"csv_header": ["v"], "csv_rows": [[v]]}
    assert emit(payload, "csv") == b"v\ndiverging-evidence\n"


def _string_literals(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.lineno, node.value


def test_only_report_spells_verdict_words():
    words = {w for _, _, w in WORDS}
    found = [
        f"{path.name}:{line}: {value!r}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "report.py"
        for line, value in _string_literals(path)
        if value in words
    ]
    assert not found, "verdict words outside report.py:\n" + "\n".join(found)


def test_estimators_return_table_verdicts():
    g = power(1)
    assert moment_xg(parse_dist_spec("rademacher"), g).verdict is report.MOMENT[FINITE]
    pareto = moment_xg(parse_dist_spec("pareto2:beta=1.5"), g)
    assert pareto.verdict is report.MOMENT[DIVERGENT]
    series = estimate_series(parse_dist_spec("rademacher"), g, 1.0, 30)
    assert series.verdict is report.SERIES[series.verdict.kind]
    grid = GridSpec(1e-2, 1e2, 41)
    assert doubling_ratio_sup(exponential(1.0), grid).verdict is report.DOUBLING[DIVERGENT]
    assert doubling_ratio_sup(power(2), grid).verdict is report.DOUBLING[FINITE]
