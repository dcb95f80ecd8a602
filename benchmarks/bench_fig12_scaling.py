"""Paper Fig. 12: compilation-time scalability on HF = Σ_i M_i.

Fermihedral's SAT search hits an exponential wall while both HATT variants
scale polynomially, with the Alg.-3 caching giving a consistent speedup
(the paper measures 59.73% at the top end).  We time construction by both
engines (the packed-bitmask kernels of ``HattConstruction`` vs the scalar
scan of ``tests/reference/hatt.py``), fit the log-log slopes, and assert the
kernels' speedup floor at the largest size.

Set ``REPRO_BENCH_SMOKE=1`` (as the CI smoke step does) for a toy-size run
that still enforces the ≥5x vector-over-scalar floor at its largest size.
Timings plus fitted slopes are also written to the committed repo-root
``BENCH_fig12.json`` (uploaded as a CI artifact).
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import full_run
from reference.hatt import ScalarHattConstruction
from repro.analysis import format_table, write_bench_json, write_result
from repro.fermion import MajoranaOperator
from repro.fermihedral import fermihedral_mapping
from repro.hatt import HattConstruction

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("0", "", "false")

if SMOKE:
    # Top size 48 keeps the smoke run in seconds while leaving the kernels a
    # comfortable margin over the 5x floor on slow CI runners.
    HATT_SIZES = [8, 16, 24, 48]
    FH_SIZES = [1]
elif full_run():
    HATT_SIZES = [4, 8, 12, 16, 20, 28, 36, 48, 64]
    FH_SIZES = [1, 2, 3]
else:
    # Top size 48 in every mode: the speedup floor is asserted at the top
    # size, and N=48 leaves it a comfortable margin (N=36 measures only
    # ~5-6x — too close to the floor for a load-sensitive hard assert).
    HATT_SIZES = [4, 8, 12, 16, 20, 28, 36, 48]
    FH_SIZES = [1, 2]
FH_TIME_LIMIT = 120.0 if full_run() else 20.0

#: Acceptance floor: vector construction must beat scalar by this factor at
#: the largest benchmarked size (CI enforces it in smoke mode).
MIN_SPEEDUP = 5.0

JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_fig12.json"


def majorana_sum(n: int) -> MajoranaOperator:
    h = MajoranaOperator.zero()
    for i in range(2 * n):
        h = h + MajoranaOperator.single(i)
    return h


def _time_construction(h, n, vacuum, engine, repeats=3):
    """Best-of-N wall time of ``engine(...).run()`` alone."""
    best = float("inf")
    for _ in range(repeats):
        c = engine(h, n, vacuum=vacuum)
        start = time.perf_counter()
        c.run()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def fig12():
    rows = []
    times = {
        "HATT": [],
        "HATT scalar": [],
        "HATT (unopt)": [],
        "HATT (unopt) scalar": [],
    }
    for n in HATT_SIZES:
        h = majorana_sum(n)
        repeats = 3 if (SMOKE or n <= 48) else 1
        t_vec = _time_construction(h, n, True, HattConstruction, repeats)
        t_sca = _time_construction(h, n, True, ScalarHattConstruction, repeats)
        t_vec_u = _time_construction(h, n, False, HattConstruction, repeats)
        t_sca_u = _time_construction(h, n, False, ScalarHattConstruction, repeats)
        times["HATT"].append((n, t_vec))
        times["HATT scalar"].append((n, t_sca))
        times["HATT (unopt)"].append((n, t_vec_u))
        times["HATT (unopt) scalar"].append((n, t_sca_u))
        rows.append([
            n,
            f"{t_vec:.4f}",
            f"{t_sca:.4f}",
            f"{t_sca / t_vec:.1f}x",
            f"{t_vec_u:.4f}",
            f"{t_sca_u / t_vec_u:.1f}x",
            "--",
        ])
    for n in FH_SIZES:
        h = majorana_sum(n)
        result = fermihedral_mapping(h, n_modes=n, time_limit=FH_TIME_LIMIT)
        label = f"{result.solve_time:.2f}{'' if result.optimal else ' (timeout)'}"
        rows.append([n, "-", "-", "-", "-", "-", label])

    # Log-log slope estimates (paper: O(N^3) vs O(N^4)).
    slopes = {}
    for name, points in times.items():
        ns = np.log([p[0] for p in points])
        ts = np.log([max(p[1], 1e-6) for p in points])
        slopes[name] = float(np.polyfit(ns, ts, 1)[0])
    n_top = HATT_SIZES[-1]
    speedups = {
        "vacuum": times["HATT scalar"][-1][1] / times["HATT"][-1][1],
        "free": times["HATT (unopt) scalar"][-1][1] / times["HATT (unopt)"][-1][1],
    }
    footer = (
        f"fitted log-log slopes: HATT ~ N^{slopes['HATT']:.2f} "
        f"(scalar ~ N^{slopes['HATT scalar']:.2f}), "
        f"HATT(unopt) ~ N^{slopes['HATT (unopt)']:.2f} "
        "(paper: N^3 vs N^4; FH exponential)\n"
        f"vector-over-scalar construction speedup at N={n_top}: "
        f"{speedups['vacuum']:.1f}x (vacuum), {speedups['free']:.1f}x (free); "
        f"floor {MIN_SPEEDUP:.0f}x"
    )
    content = format_table(
        "Fig. 12 - construction time on HF = sum_i M_i (seconds)",
        ["modes", "HATT", "HATT scalar", "speedup", "HATT unopt",
         "unopt speedup", "Fermihedral"],
        rows,
    ) + "\n" + footer
    write_result("fig12_scaling", content)
    payload = {
        "workload": "HF = sum_i M_i",
        "smoke": SMOKE,
        "full": full_run(),
        "sizes": HATT_SIZES,
        "timings_s": {name: points for name, points in times.items()},
        "slopes": slopes,
        "speedup_at_top": {"n": n_top, **{k: round(v, 2) for k, v in speedups.items()}},
        "min_speedup_floor": MIN_SPEEDUP,
    }
    write_bench_json("fig12_scaling", payload, JSON_PATH, refresh_committed=not SMOKE)
    return times, slopes, speedups


def test_fig12_backends_identical_trace():
    """Cheap cross-check riding along in CI smoke: same trace, same tree."""
    n = HATT_SIZES[0]
    h = majorana_sum(n)
    for vacuum in (True, False):
        vec = HattConstruction(h, n, vacuum=vacuum)
        t_vec = vec.run()
        sca = ScalarHattConstruction(h, n, vacuum=vacuum)
        t_sca = sca.run()
        assert vec.trace == sca.trace
        assert t_vec.strings_by_leaf_index() == t_sca.strings_by_leaf_index()


def test_fig12_vector_speedup_floor(fig12):
    """The kernels clear the acceptance floor at the top size."""
    _, _, speedups = fig12
    assert speedups["vacuum"] >= MIN_SPEEDUP, speedups
    # The free scan is the asymptotically heavier kernel; hold it to the
    # same floor so a regression in either path fails loudly.
    assert speedups["free"] >= MIN_SPEEDUP, speedups


def test_fig12_json_written(fig12):
    assert JSON_PATH.exists()


def test_fig12_unopt_slower_at_scale(fig12):
    times, _, _ = fig12
    # At the largest common size the unopt variant must not be faster.
    n, t_opt = times["HATT"][-1]
    _, t_unopt = times["HATT (unopt)"][-1]
    assert t_unopt >= t_opt * 0.9, (n, t_opt, t_unopt)


def test_fig12_polynomial_slopes(fig12):
    """Both variants scale polynomially; unopt has the steeper slope."""
    _, slopes, _ = fig12
    assert slopes["HATT"] < 5.0
    assert slopes["HATT (unopt)"] <= slopes["HATT"] + 3.0


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize(
    "engine", [HattConstruction, ScalarHattConstruction], ids=["vector", "scalar"]
)
def test_bench_hatt_scaling(benchmark, n, engine, fig12):
    h = majorana_sum(n)
    benchmark.pedantic(
        lambda: engine(h, n).run(),
        rounds=3,
        iterations=1,
    )


def test_bench_fermihedral_n2(benchmark):
    h = majorana_sum(2)
    benchmark.pedantic(
        lambda: fermihedral_mapping(h, n_modes=2, time_limit=30),
        rounds=1,
        iterations=1,
    )
