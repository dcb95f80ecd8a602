"""Output checks that do not trust the code under test.

* ``anticommute_pairwise`` checks the Majorana algebra of a mapping from the
  bare x/z bit masks of its 2N Pauli strings.
* ``Expected`` holds per-case quality figures recorded once from the seed
  commit (``expected.json``, written by ``record_expected.py``).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

EXPECTED_FILE = Path(__file__).with_name("expected.json")

_LABEL = re.compile(r"([XYZ])(\d+)")
_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_SYK = re.compile(r"^random:syk:n=(\d+),seed=(-?\d+)$")


def masks_from_label(label: str) -> tuple[int, int]:
    """x/z masks of a compact label such as ``X3Y2Z0`` (``I`` is identity)."""
    x = z = 0
    if label != "I":
        parsed = _LABEL.findall(label)
        if "".join(op + q for op, q in parsed) != label:
            raise ValueError(f"bad Pauli label {label!r}")
        for op, qubit in parsed:
            xb, zb = _BITS[op]
            x |= xb << int(qubit)
            z |= zb << int(qubit)
    return x, z


def anticommute_pairwise(masks: list[tuple[int, int]]) -> str | None:
    """None when all 2N strings pairwise anticommute, else the first bad pair."""
    if len(masks) % 2 or not masks:
        return f"{len(masks)} Majorana strings, expected an even non-zero count"
    for i, (xi, zi) in enumerate(masks):
        if xi == 0 and zi == 0:
            return f"string {i} is the identity"
        for j in range(i + 1, len(masks)):
            xj, zj = masks[j]
            if ((xi & zj) ^ (zi & xj)).bit_count() % 2 == 0:
                return f"strings {i} and {j} commute"
    return None


def mapping_masks(mapping) -> list[tuple[int, int]]:
    return [(s.x, s.z) for s in mapping.strings]


class Expected:
    """Recorded quality figures, keyed ``"<case>|<kind>"``.

    SYK weights depend only on the term structure, so they are stored per
    mode count (``random:syk:n=10|hatt``); routed counts also depend on the
    couplings and are stored per seed for the recorded seed range.
    """

    def __init__(self, path: Path = EXPECTED_FILE):
        self.doc = json.loads(path.read_text(encoding="utf-8"))
        self.values = self.doc["values"]

    def lookup(self, case: str, kind: str) -> dict | None:
        exact = self.values.get(f"{case}|{kind}")
        m = _SYK.match(case)
        if m is None:
            return exact
        family = self.values.get(f"random:syk:n={m.group(1)}|{kind}")
        if family is None:
            return None
        return {**family, **(exact or {})}

    def compare(self, case: str, kind: str, got: dict) -> list[str]:
        """Mismatches between ``got`` and the record; fields not recorded are
        skipped, a case with no record at all is an error."""
        want = self.lookup(case, kind)
        if want is None:
            return [f"{case}|{kind}: no expected record"]
        return [
            f"{case}|{kind}: {key} = {got[key]}, expected {want[key]}"
            for key in got
            if key in want and got[key] != want[key]
        ]
