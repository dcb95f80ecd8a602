"""Record ``expected.json``: the quality figures every benchmark job is checked
against.  Run once, from the repository root, on the commit whose outputs are
taken as correct, and review the diff by hand::

    python3 perfbench/record_expected.py

SYK Pauli weights depend only on which terms are present, not on the random
couplings; the script checks that over the recorded seeds and stores one
weight per mode count.  Routed CNOT count and depth also depend on the
couplings, so they are stored per seed for ``SEEDS``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
OUT = Path(__file__).with_name("expected.json")
ARCH = "sycamore"
SEEDS = range(0, 100)
FIXED = ("H2O_sto3g", "neutrino:4x2F", "hubbard:4x4", "hubbard:2x2")
#: SYK mode counts compiled per seed (ladder and smoke ladder), both kinds.
ROUTED_N = (6, 10)
#: SYK mode counts only mapped (map-syk, serve-mixed), with the seeds tried.
MAPPED_N = {12: range(0, 16), 16: range(0, 4)}


def _compile(case: str, kind: str) -> dict:
    from repro.compile import CompilationPipeline
    from repro.sources import build_case

    m = CompilationPipeline(service=None).compile_one(build_case(case), kind, ARCH)
    return {"pauli_weight": m.pauli_weight, "routed_cx": m.routed_cx,
            "routed_depth": m.routed_depth}


def _map_weight(case: str) -> int:
    from repro.service import MappingService, MappingSpec
    from repro.sources import build_case

    h = build_case(case)
    result = MappingService(use_disk=False).get_or_compile(h, MappingSpec(kind="hatt"))
    return int(result.mapping.map(h).pauli_weight())


def _task(task: tuple) -> tuple:
    what, case, kind = task
    if what == "compile":
        return task, _compile(case, kind)
    return task, {"pauli_weight": _map_weight(case)}


def _init(src: str, cache: str) -> None:
    os.environ["REPRO_CACHE_DIR"] = cache
    sys.path.insert(0, src)


def main() -> None:
    src = str(ROOT / "src")
    tasks = [("compile", case, kind) for case in FIXED for kind in ("hatt", "jw")]
    tasks += [("compile", f"random:syk:n={n},seed={s}", kind)
              for n in ROUTED_N for s in SEEDS for kind in ("hatt", "jw")]
    tasks += [("map", f"random:syk:n={n},seed={s}", "hatt")
              for n, seeds in MAPPED_N.items() for s in seeds]
    # Map jobs report QubitOperator.pauli_weight(); compile jobs the table sum.
    tasks += [("map", f"random:syk:n={n},seed=0", "hatt") for n in ROUTED_N]
    tasks += [("map", case, "hatt") for case in FIXED]

    with tempfile.TemporaryDirectory(dir=ROOT) as cache:
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(2, initializer=_init, initargs=(src, cache)) as pool:
            results = pool.map(_task, tasks, chunksize=1)

    values: dict[str, dict] = {}
    family: dict[str, set] = {}
    for (what, case, kind), got in results:
        if case.startswith("random:syk:"):
            n = case.split("n=")[1].split(",")[0]
            family.setdefault(f"random:syk:n={n}|{kind}", set()).add(got["pauli_weight"])
            if what == "compile":
                values[f"{case}|{kind}"] = {k: got[k] for k in ("routed_cx", "routed_depth")}
        else:
            prior = values.setdefault(f"{case}|{kind}", got)
            if prior["pauli_weight"] != got["pauli_weight"]:
                raise SystemExit(f"{case}|{kind}: map and compile weights differ")
    for key, weights in family.items():
        if len(weights) != 1:
            raise SystemExit(f"{key}: weight depends on the seed: {sorted(weights)}")
        values[key] = {"pauli_weight": weights.pop()}

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True, check=False).stdout.strip() or "unknown"
    doc = {
        "recorded_at_commit": commit,
        "architecture": ARCH,
        "routed_seeds": [SEEDS.start, SEEDS.stop - 1],
        "values": dict(sorted(values.items())),
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(values)} records to {OUT}")


if __name__ == "__main__":
    main()
