"""Summary math of the A/B benchmark driver (``benchmarks/ab_perfbench.py``)
on canned result lines; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "ab_perfbench.py"
_SPEC = importlib.util.spec_from_file_location("ab_perfbench", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

SPECS = [
    {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
    {"name": "latency_mean_ms", "unit": "ms", "better": "lower", "bound": 0.24},
    {"name": "ok_ratio", "unit": "ratio", "better": "higher", "bound": 0.01},
]


def _line(jobs, latency, ok=1.0) -> str:
    metrics = {"jobs_per_s": {"value": jobs, "unit": "1/s"},
               "latency_mean_ms": {"value": latency, "unit": "ms"},
               "ok_ratio": {"value": ok, "unit": "ratio"}}
    return json.dumps({"correct": ok == 1.0, "attempted": 10, "failed": 0,
                       "metrics": metrics})


def _pairs(parent, change):
    out = []
    for p, c in zip(parent, change):
        stdout_p = "env {}\ncompile-ladder: 3 passes\n" + _line(*p) + "\n"
        stdout_c = "noise line\n" + _line(*c) + "\n\n"
        values = [
            {k: m["value"] for k, m in ab.parse_result(s)["metrics"].items()}
            for s in (stdout_p, stdout_c)
        ]
        out.append(tuple(values))
    return out


def test_medians_iqr_and_wins():
    parent = [(4.0, 250.0), (4.4, 230.0), (4.2, 240.0), (4.6, 220.0), (4.3, 260.0)]
    change = [(6.0, 170.0), (6.2, 160.0), (4.1, 250.0), (6.4, 150.0), (6.1, 165.0)]
    rows = {r["name"]: r for r in ab.summarize(_pairs(parent, change), SPECS)}
    jobs = rows["jobs_per_s"]
    assert jobs["parent_median"] == 4.3 and jobs["change_median"] == 6.1
    # Linear-interpolated quartiles of 4.0, 4.2, 4.3, 4.4, 4.6: 4.2 and 4.4.
    assert jobs["parent_iqr"] == pytest.approx(0.2)
    assert jobs["change_iqr"] == pytest.approx(6.2 - 6.0)
    assert (jobs["wins"], jobs["losses"], jobs["pairs"]) == (4, 1, 5)
    assert jobs["delta"] == pytest.approx(1.8 / 4.3)
    assert not jobs["unresolved"]
    latency = rows["latency_mean_ms"]
    # Lower is better: a falling latency is a win and a positive delta.
    assert latency["parent_median"] == 240.0 and latency["change_median"] == 165.0
    assert latency["delta"] == pytest.approx(75.0 / 240.0)
    assert (latency["wins"], latency["losses"]) == (4, 1)
    ok = rows["ok_ratio"]
    assert (ok["wins"], ok["losses"], ok["delta"]) == (0, 0, 0.0)  # ties count for neither


def test_wide_parent_spread_is_unresolved():
    parent = [(2.0, 100.0), (4.0, 100.0), (6.0, 100.0), (8.0, 100.0)]
    change = [(5.0, 100.0)] * 4
    rows = {r["name"]: r for r in ab.summarize(_pairs(parent, change), SPECS)}
    # IQR 3.0 over median 5.0 is 0.6, above the 0.24 bound.
    assert rows["jobs_per_s"]["parent_iqr"] == pytest.approx(3.0)
    assert rows["jobs_per_s"]["unresolved"]
    assert not rows["latency_mean_ms"]["unresolved"]


def test_format_names_every_metric_and_marks_unresolved():
    parent = [(2.0, 100.0), (8.0, 120.0)]
    change = [(5.0, 90.0), (5.0, 80.0)]
    text = ab.format_rows(ab.summarize(_pairs(parent, change), SPECS))
    for spec in SPECS:
        assert spec["name"] in text
    assert "unresolved" in text.splitlines()[1]


def test_seed_range_and_empty_output():
    assert ab.seed_range("31-34") == [31, 32, 33, 34]
    assert ab.seed_range("7") == [7]
    with pytest.raises(ValueError):
        ab.parse_result("\n\n")
