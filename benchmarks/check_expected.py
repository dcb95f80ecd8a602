"""Compile every (case, kind) pair that ``perfbench/expected.json`` records
routed figures for, and compare each against the record.

The record holds the Pauli weight, routed CNOT count and routed depth of
the four fixed cases and of SYK n=6 and n=10 for every recorded seed, both
kinds (408 pairs).  The comparison is ``perfbench/checks.py::Expected``,
the one the benchmark's own output checks use.  The file is only read,
never written: re-recording it is ``perfbench/record_expected.py``'s job.
Run from any directory (about 25 s on one core)::

    python benchmarks/check_expected.py

Prints one line per mismatch and a ``matched/total`` summary; exits 1 on
any mismatch.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from checks import Expected  # noqa: E402
from repro.compile import CompilationPipeline  # noqa: E402
from repro.sources import build_case  # noqa: E402


def main() -> int:
    expected = Expected()
    arch = expected.doc["architecture"]
    pairs = [key.split("|") for key, want in expected.values.items() if "routed_cx" in want]
    failed = 0
    for case, kind in pairs:
        m = CompilationPipeline(service=None).compile_one(build_case(case), kind, arch)
        got = {"pauli_weight": m.pauli_weight, "routed_cx": m.routed_cx,
               "routed_depth": m.routed_depth}
        problems = expected.compare(case, kind, got)
        failed += bool(problems)
        for line in problems:
            print(line)
    print(f"{len(pairs) - failed}/{len(pairs)} compiled (case, kind) pairs match expected.json")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
