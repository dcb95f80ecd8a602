"""Paper Fig. 11: H2 on IonQ Forte 1 (simulated).

The hardware is replaced by an all-to-all backend with the paper's published
fidelities (DESIGN.md substitution table).  The paper's finding: FH best
mean, HATT second-best mean and lowest variance, all adaptive methods above
JW/BK/BTT.

Trajectories run on the batched engine (``repro.sim.BatchedStatevector``);
the timing benchmark also runs the scalar per-trajectory loop of
``tests/reference/noise.py`` for comparison.
"""

import os

import pytest

from conftest import full_run
from reference.noise import scalar_noisy_energy_experiment
from repro.analysis import format_table, noisy_energy_experiment, write_result
from repro.fermihedral import fermihedral_mapping
from repro.hatt import hatt_mapping
from repro.mappings import balanced_ternary_tree, bravyi_kitaev, jordan_wigner
from repro.models.electronic import electronic_case
from repro.sim import ionq_forte_noise_model

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("0", "", "false")

SHOTS = 1000 if full_run() else 250
#: The SAT search is nearly all of this bench's runtime.  It stops at the
#: limit in either mode (FH shows as the table's note row), so the smoke
#: variant set by ``REPRO_BENCH_SMOKE=1`` caps it at a few seconds; shots
#: and seed stay, so the HATT assertions see the same numbers.
FH_TIME_LIMIT = 3.0 if SMOKE else 90.0


@pytest.fixture(scope="module")
def fig11():
    case = electronic_case("H2_sto3g")
    mappings = {
        "JW": jordan_wigner(4),
        "BK": bravyi_kitaev(4),
        "BTT": balanced_ternary_tree(4),
        "HATT": hatt_mapping(case.hamiltonian, n_modes=4),
    }
    fh = fermihedral_mapping(case.hamiltonian, n_modes=4, time_limit=FH_TIME_LIMIT)
    fh_note = None
    if fh.mapping is not None and fh.mapping.preserves_vacuum():
        mappings["FH"] = fh.mapping
    else:
        # SAT search timed out or found a non-vacuum-preserving optimum the
        # Pauli-gate state prep cannot use; record the attempt (paper: FH is
        # the one method that stops scaling).
        fh_note = ["FH", "--", "--", "--", "--", fh.label]
    noise = ionq_forte_noise_model()
    rows = []
    results = {}
    for name, mapping in mappings.items():
        e = noisy_energy_experiment(case, mapping, noise, shots=SHOTS, seed=11)
        results[name] = e
        rows.append(
            [name, f"{e.mean:.4f}", f"{e.noiseless:.4f}", f"{e.bias:.4f}",
             f"{e.variance:.5f}", e.cx_count]
        )
    if fh_note is not None:
        rows.append(fh_note)
    content = format_table(
        "Fig. 11 - H2 on simulated IonQ Forte 1 (1q 99.98%, 2q 98.99%)",
        ["mapping", "mean E", "noiseless E", "bias", "variance", "CNOTs"],
        rows,
    )
    write_result("fig11_ionq", content)
    return results


def test_fig11_hatt_low_variance(fig11):
    """HATT's variance is at most the median baseline's (paper: lowest)."""
    baselines = sorted(
        fig11[name].variance for name in ("JW", "BK", "BTT") if name in fig11
    )
    assert fig11["HATT"].variance <= baselines[-1]


def test_fig11_hatt_bias_competitive(fig11):
    worst = max(fig11[name].bias for name in ("JW", "BK", "BTT"))
    assert fig11["HATT"].bias <= worst + 0.02


@pytest.mark.parametrize(
    "experiment",
    [noisy_energy_experiment, scalar_noisy_energy_experiment],
    ids=["batched", "scalar"],
)
def test_bench_ionq_experiment(benchmark, fig11, experiment):
    case = electronic_case("H2_sto3g")
    mapping = hatt_mapping(case.hamiltonian, n_modes=4)
    noise = ionq_forte_noise_model()

    def run():
        return experiment(case, mapping, noise, shots=25)

    benchmark.pedantic(run, rounds=2, iterations=1)
