"""Paper Table I: electronic-structure models.

Reproduces Pauli weight / CNOT count / circuit depth for JW, BK, BTT,
Fermihedral (smallest case only — exactly where the paper's FH also stops
scaling) and HATT.  Prints a paper-vs-measured table and writes it to
benchmarks/results/table1.txt; the pytest-benchmark timings cover the HATT
compilation itself.
"""

import pytest

from conftest import full_run
from reference.hatt import scalar_hatt_mapping
from repro.analysis import (
    TABLE1_PAULI_WEIGHT,
    compare_mappings,
    format_table,
    write_result,
)
from repro.fermihedral import fermihedral_mapping
from repro.hatt import hatt_mapping
from repro.models.electronic import electronic_case

CASES = ["H2_sto3g", "LiH_sto3g_frz", "LiH_sto3g", "H2O_sto3g"]
if full_run():
    CASES += ["CH4_sto3g", "O2_sto3g", "NaF_sto3g", "CO2_sto3g"]

# Circuit compilation is the slow half; skip it for the very large cases.
COMPILE_LIMIT_MODES = 20


@pytest.fixture(scope="module")
def table1():
    rows = []
    for name in CASES:
        case = electronic_case(name)
        compile_circuit = case.n_modes <= COMPILE_LIMIT_MODES
        reports = compare_mappings(
            case.hamiltonian, case.n_modes, compile_circuit=compile_circuit
        )
        fh_label = "--"
        if case.n_modes <= 4:
            fh = fermihedral_mapping(
                case.hamiltonian, n_modes=case.n_modes, time_limit=60
            )
            fh_label = fh.label
        paper = TABLE1_PAULI_WEIGHT.get(name)
        rows.append(
            [
                name,
                case.n_modes,
                reports["JW"].pauli_weight,
                reports["BK"].pauli_weight,
                reports["BTT"].pauli_weight,
                fh_label,
                reports["HATT"].pauli_weight,
                "/".join("--" if v is None else str(v) for v in paper) if paper else "-",
                reports["HATT"].cx_count or "-",
                reports["JW"].cx_count or "-",
                reports["HATT"].depth or "-",
                reports["JW"].depth or "-",
            ]
        )
    content = format_table(
        "Table I - electronic structure (Pauli weight; paper column = "
        "JW/BK/BTT/FH/HATT)",
        ["case", "modes", "JW", "BK", "BTT", "FH", "HATT", "paper",
         "HATT cx", "JW cx", "HATT depth", "JW depth"],
        rows,
    )
    write_result("table1_electronic", content)
    return rows


def test_table1_shape(table1):
    """HATT beats or ties every constructive baseline on each molecule."""
    for row in table1:
        name, _, jw, bk, btt, _, hatt = row[:7]
        assert hatt <= min(jw, bk, btt) * 1.02, name


@pytest.mark.parametrize("name", CASES[:3])
@pytest.mark.parametrize(
    "mapper", [hatt_mapping, scalar_hatt_mapping], ids=["vector", "scalar"]
)
def test_bench_hatt_construction(benchmark, name, mapper, table1):
    case = electronic_case(name)
    benchmark.pedantic(
        lambda: mapper(case.hamiltonian, n_modes=case.n_modes),
        rounds=3,
        iterations=1,
    )


def test_table1_backends_agree_end_to_end(table1):
    """The kernels and the scalar scan yield the same mapping on a real molecule."""
    case = electronic_case(CASES[0])
    vec = hatt_mapping(case.hamiltonian, n_modes=case.n_modes)
    sca = scalar_hatt_mapping(case.hamiltonian, n_modes=case.n_modes)
    assert vec.strings == sca.strings
    assert vec.construction.trace == sca.construction.trace


def test_bench_full_pipeline_h2(benchmark, table1):
    case = electronic_case("H2_sto3g")

    def pipeline():
        m = hatt_mapping(case.hamiltonian, n_modes=case.n_modes)
        return m.map(case.hamiltonian).pauli_weight()

    assert benchmark(pipeline) == 32  # paper Table I
