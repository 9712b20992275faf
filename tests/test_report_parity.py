"""The report parity rule: exact for strings, integers and verdicts,
|a - b| <= 1e-12 + 1e-9 |a| for floats."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import report_parity

ROOT = Path(__file__).resolve().parents[1]

SUMMARY = {
    "scenario": "demo",
    "report": {
        "verdict": "certified_at_scale",
        "ladder": [{"kernel_dim": 15, "sigma_min": 0.5, "ok": True},
                   {"kernel_dim": 31, "sigma_min": 0.25, "ok": True}],
    },
}
TABLE = [["n", "residual"], ["-2", "2.0e-14"], ["-1", "1.5"]]


def _tree(root, summary=SUMMARY, table=TABLE):
    (root / "demo").mkdir(parents=True)
    (root / "demo" / "summary.json").write_text(json.dumps(summary, indent=2),
                                                encoding="utf-8")
    lines = "".join(",".join(row) + "\n" for row in table)
    (root / "demo" / "table.csv").write_text(lines, encoding="utf-8")
    return root


def _moved(path, value):
    summary = copy.deepcopy(SUMMARY)
    *keys, last = path
    node = summary
    for key in keys:
        node = node[key]
    node[last] = value
    return summary


def test_equal_trees_pass(tmp_path):
    parity = report_parity.compare_trees(_tree(tmp_path / "a"), _tree(tmp_path / "b"))
    assert parity.ok and parity.drift == {}


def test_float_drift_inside_the_rule_passes_and_is_reported(tmp_path, capsys):
    summary = _moved(("report", "ladder", 1, "sigma_min"), 0.25 * (1 + 5e-10))
    table = [TABLE[0], ["-2", "9.0e-13"], TABLE[2]]
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b", summary, table)
    parity = report_parity.compare_trees(a, b)
    assert parity.ok
    assert set(parity.drift) == {"demo/summary.json:$.report.ladder[].sigma_min",
                                 "demo/table.csv:residual"}
    assert parity.drift["demo/table.csv:residual"].max_abs == pytest.approx(8.8e-13)
    assert report_parity.main([str(a), str(b)]) == 0
    assert "demo/table.csv:residual" in capsys.readouterr().out


@pytest.mark.parametrize("summary, table", [
    (_moved(("report", "ladder", 0, "sigma_min"), 0.5 * (1 + 5e-9)), TABLE),
    (SUMMARY, [TABLE[0], ["-2", "2.0e-11"], TABLE[2]]),
], ids=["json-float", "csv-float"])
def test_float_drift_beyond_the_rule_fails(summary, table, tmp_path):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b", summary, table)
    assert not report_parity.compare_trees(a, b).ok
    assert report_parity.main([str(a), str(b)]) == 1


@pytest.mark.parametrize("summary, table", [
    (_moved(("report", "ladder", 0, "kernel_dim"), 16), TABLE),
    (_moved(("report", "verdict"), "falsified"), TABLE),
    (_moved(("report", "ladder", 1, "ok"), False), TABLE),
    (_moved(("report", "ladder", 1, "kernel_dim"), 31.0), TABLE),
    (SUMMARY, [TABLE[0], ["-3", "2.0e-14"], TABLE[2]]),
], ids=["integer", "verdict", "boolean", "integer-as-float", "csv-integer"])
def test_changed_integer_or_verdict_fails(summary, table, tmp_path):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b", summary, table)
    assert not report_parity.compare_trees(a, b).ok


def test_a_file_in_only_one_tree_fails(tmp_path):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    (b / "demo" / "extra.csv").write_text("x\n1\n", encoding="utf-8")
    assert not report_parity.compare_trees(a, b).ok


def test_blas_thread_count_moves_reports_only_within_the_rule(tmp_path):
    # the scenarios whose reports carry BLAS-dependent floats, at registry
    # defaults; a thread count may change the last digits of a float, never
    # a count or a verdict
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "univcert.cli",
                        "--scenario", "thm32-adjoint-certify",
                        "--scenario", "cor34-heller", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        trees.append(out)
    parity = report_parity.compare_trees(*trees)
    assert parity.ok, parity.violations
    assert len(list(trees[0].rglob("*.*"))) == 4
