"""The PauliTable mapping kernel against its scalar oracle on the bulk path.

Times ``map_majorana_operator`` and the per-term loop of
``tests/reference/mapping.py`` on the cached electronic-structure
Hamiltonians (NH and BeH2), checks the results agree exactly, and asserts
the table kernel delivers the expected speedup.
Results go to benchmarks/results/pauli_table.txt.

Set ``REPRO_BENCH_SMOKE=1`` (as the CI smoke step does) to run a toy-size
variant: correctness plus a loose speed floor on H2 only, finishing in
seconds on a cold cache.
"""

import os
import time

import pytest

from conftest import full_run
from reference.mapping import scalar_map_majorana_operator
from repro.analysis import format_table, write_result
from repro.fermion import MajoranaOperator
from repro.mappings import balanced_ternary_tree, jordan_wigner
from repro.mappings.apply import map_majorana_operator
from repro.models.electronic import electronic_case

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("0", "", "false")

if SMOKE:
    CASES = ["H2_sto3g"]
elif full_run():
    CASES = ["NH_sto3g", "BeH2_sto3g", "H2O_sto3g", "CH4_sto3g"]
else:
    CASES = ["NH_sto3g", "BeH2_sto3g"]

#: Acceptance floor for the table kernel.  The paper-size cases must clear
#: 5x; the toy smoke case only guards against gross regressions (at 15 terms
#: the kernel and the scalar loop are expected to tie).
MIN_SPEEDUP = 5.0 if not SMOKE else 0.2
REPEATS = 15


def _best(fn, repeats=REPEATS):
    """Best-of-N wall time — robust against scheduler noise."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def speedup_rows():
    rows = []
    for name in CASES:
        case = electronic_case(name)
        majorana = MajoranaOperator.from_fermion_operator(case.hamiltonian)
        mapping = jordan_wigner(case.n_modes)
        scalar = scalar_map_majorana_operator(majorana, mapping.strings, mapping.n_qubits)
        table = map_majorana_operator(majorana, mapping.packed_table, mapping.n_qubits)
        assert table == scalar, f"kernel/reference mismatch on {name}"
        t_scalar = _best(
            lambda: scalar_map_majorana_operator(
                majorana, mapping.strings, mapping.n_qubits
            )
        )
        t_table = _best(
            lambda: map_majorana_operator(
                majorana, mapping.packed_table, mapping.n_qubits
            )
        )
        rows.append(
            [
                name,
                case.n_modes,
                len(majorana),
                f"{t_scalar * 1e3:.3f}",
                f"{t_table * 1e3:.3f}",
                f"{t_scalar / t_table:.1f}x",
            ]
        )
    content = format_table(
        "PauliTable kernel - map_majorana_operator (JW mapping, best of "
        f"{REPEATS})",
        ["case", "modes", "terms", "scalar ms", "table ms", "speedup"],
        rows,
    )
    write_result("pauli_table", content)
    print()
    print(content)
    return rows


def test_backends_agree_on_btt(speedup_rows):
    """Cross-check a second mapping family end to end."""
    case = electronic_case(CASES[0])
    majorana = MajoranaOperator.from_fermion_operator(case.hamiltonian)
    mapping = balanced_ternary_tree(case.n_modes)
    assert map_majorana_operator(
        majorana, mapping.packed_table, mapping.n_qubits
    ) == scalar_map_majorana_operator(majorana, mapping.strings, mapping.n_qubits)


def test_table_backend_speedup(speedup_rows):
    """The table kernel clears the acceptance floor on every case."""
    for name, _, _, _, _, speedup in speedup_rows:
        assert float(speedup.rstrip("x")) >= MIN_SPEEDUP, (
            f"{name}: table kernel only {speedup} over scalar "
            f"(floor {MIN_SPEEDUP}x)"
        )


def test_bench_table_backend(benchmark, speedup_rows):
    """pytest-benchmark timing of the vectorized path itself."""
    case = electronic_case(CASES[0])
    majorana = MajoranaOperator.from_fermion_operator(case.hamiltonian)
    mapping = jordan_wigner(case.n_modes)
    majorana.packed_terms()  # warm the plan, as in the sweep workload
    benchmark(
        lambda: map_majorana_operator(
            majorana, mapping.packed_table, mapping.n_qubits
        )
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
