"""The benchmark's own tests: ``python3 -m pytest perfbench -q`` from the root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import anticommute_pairwise, masks_from_label  # noqa: E402
from tracing import Recorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_masks_from_label():
    assert masks_from_label("I") == (0, 0)
    assert masks_from_label("X3Y2Z0") == (0b1100, 0b0101)
    with pytest.raises(ValueError):
        masks_from_label("X3Q1")


def test_spec_names_runnable_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == ["compile-ladder", "serve-mixed"]


def test_anticommutation_check():
    jw2 = [masks_from_label(s) for s in ("X0", "Y0", "Z0X1", "Z0Y1")]
    assert anticommute_pairwise(jw2) is None
    assert "commute" in anticommute_pairwise(jw2[:2] + [masks_from_label("X1"), jw2[3]])
    assert "identity" in anticommute_pairwise([(0, 0), (1, 0)])
    assert anticommute_pairwise(jw2[:3]) is not None


def test_nested_spans_yield_self_time():
    rec = Recorder()
    with rec.span("outer"):
        time.sleep(0.02)
        with rec.span("inner"):
            time.sleep(0.03)
    self_s = rec.self_times()
    outer = next(s for s in rec.spans if s.name == "outer")
    assert self_s["inner"] == pytest.approx(0.03, abs=0.02)
    assert self_s["outer"] + self_s["inner"] == pytest.approx(outer.end - outer.start)
    assert next(s for s in rec.spans if s.name == "inner").parent == "outer"


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", ["compile-ladder", "serve-mixed", "map-syk"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "map-syk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
