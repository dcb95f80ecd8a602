"""Source-build layer: cold molecular builds on the batched integral engine.

A cold electronic case (empty integral cache) runs S, T, V and the ERIs,
the RHF, the MO transform and the operator assembly; the integrals were
about 90% of it on the scalar McMurchie–Davidson engine.  For each molecule
this times that build twice, alternating: once on the package's batched
kernels and once with the scalar engine of ``tests/reference/integrals.py``
patched into the SCF, and asserts that the two give bit-identical
integrals and Hamiltonians.  The ERI tensor alone is timed the same way.

``REPRO_BENCH_SMOKE=1`` (the CI smoke step) runs H2 and LiH once each.  A
default run takes H2, LiH, H2O, BeH2 and CH4, three times each (medians),
and also rewrites the committed repo-root ``BENCH_integrals.json`` with the
commit, CPU count and numpy version.
"""

import contextlib
import os
import subprocess
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import reference.integrals as oracle
from repro.analysis import format_table, write_bench_json, write_result
from repro.chem import build_basis, integrals, molecule
from repro.chem import scf as scf_module
from repro.models import electronic

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("0", "", "false")
MOLECULES = ["H2", "LiH"] if SMOKE else ["H2", "LiH", "H2O", "BeH2", "CH4"]
REPEATS = 1 if SMOKE else 3

#: Floor on the cold-build speedup at the largest molecule of the run (a
#: scalar-to-batched regression of this size cannot hide in host noise).
MIN_SPEEDUP = 2.0

JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_integrals.json"


def _commit() -> str | None:
    """The checked-out commit, with ``-dirty`` when the tree has edits."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _oracle_engine():
    """Patch the scalar engine into the SCF's integral calls."""
    return mock.patch.multiple(
        scf_module,
        overlap_and_core=lambda basis, atoms: (
            oracle.overlap_matrix(basis), oracle.core_hamiltonian(basis, atoms)
        ),
        eri_tensor=oracle.eri_tensor,
    )


def _cold_build(case: str):
    """``electronic_case(case)`` on an empty integral cache: (seconds, case)."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        electronic, "_CACHE_DIR", Path(tmp)
    ):
        start = time.perf_counter()
        built = electronic.electronic_case(case)
        return time.perf_counter() - start, built


def _term_bits(built) -> list:
    return sorted(
        (term, complex(c).real.hex(), complex(c).imag.hex())
        for term, c in built.hamiltonian.terms()
    )


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _assert_integrals_identical(name: str, basis, charges) -> None:
    for fn, args in (
        ("overlap_matrix", (basis,)),
        ("kinetic_matrix", (basis,)),
        ("nuclear_attraction_matrix", (basis, charges)),
    ):
        assert _same(getattr(integrals, fn)(*args), getattr(oracle, fn)(*args)), (name, fn)


def _measure(name: str) -> dict:
    mol = molecule(name)
    basis = build_basis(mol.atoms)
    case = f"{name}_sto3g"
    build = {"batched": [], "oracle": []}
    eri = {"batched": [], "oracle": []}
    built, tensors = {}, {}
    engines = {
        "oracle": (_oracle_engine, oracle.eri_tensor),
        "batched": (contextlib.nullcontext, integrals.eri_tensor),
    }
    for _ in range(REPEATS):
        for engine, (patch, kernel) in engines.items():
            with patch():
                seconds, built[engine] = _cold_build(case)
            build[engine].append(seconds)
            start = time.perf_counter()
            tensors[engine] = kernel(basis)
            eri[engine].append(time.perf_counter() - start)
    assert _same(tensors["batched"], tensors["oracle"]), name
    _assert_integrals_identical(name, basis, mol.charges)
    assert _term_bits(built["batched"]) == _term_bits(built["oracle"]), name
    assert built["batched"].scf_energy == built["oracle"].scf_energy, name
    med = {k: float(np.median(v)) for k, v in build.items()}
    med_eri = {k: float(np.median(v)) for k, v in eri.items()}
    return {
        "n_basis": len(basis),
        "cold_build_s": {k: round(v, 4) for k, v in med.items()},
        "eri_s": {k: round(v, 4) for k, v in med_eri.items()},
        "cold_build_speedup": round(med["oracle"] / med["batched"], 2),
        "eri_speedup": round(med_eri["oracle"] / med_eri["batched"], 2),
    }


@pytest.fixture(scope="module")
def integrals_bench():
    results = {name: _measure(name) for name in MOLECULES}
    rows = [
        [
            name,
            r["n_basis"],
            r["cold_build_s"]["oracle"],
            r["cold_build_s"]["batched"],
            f"{r['cold_build_speedup']:.1f}x",
            r["eri_s"]["oracle"],
            r["eri_s"]["batched"],
            f"{r['eri_speedup']:.1f}x",
        ]
        for name, r in results.items()
    ]
    content = format_table(
        f"cold molecular build, STO-3G (medians of {REPEATS}, seconds)",
        ["molecule", "functions", "build oracle", "build batched", "speedup",
         "ERI oracle", "ERI batched", "ERI speedup"],
        rows,
    )
    write_result("integrals", content)
    payload = {
        "workload": "electronic_case(<molecule>_sto3g) on an empty integral cache",
        "smoke": SMOKE,
        "repeats": REPEATS,
        "commit": _commit(),
        "cpu_count": os.cpu_count(),
        "numpy_version": np.__version__,
        "molecules": results,
        "min_speedup_floor": MIN_SPEEDUP,
    }
    write_bench_json("integrals", payload, JSON_PATH, refresh_committed=not SMOKE)
    return results


def test_cold_build_speedup_floor(integrals_bench):
    top = integrals_bench[MOLECULES[-1]]
    assert top["cold_build_speedup"] >= MIN_SPEEDUP, top


def test_json_written(integrals_bench):
    from repro.analysis.tables import results_dir

    assert (results_dir() / "integrals.json").exists()
