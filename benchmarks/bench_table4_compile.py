"""Paper Table IV: architecture-aware compilation via the hardware pipeline.

JW / BK / BTT / HATT / HATT-arch single-Trotter-step circuits synthesized
with the mutual-support ladder pass, peephole-optimized, and routed onto the
four coupling-graph stand-ins (Manhattan, Montreal, Sycamore, IonQ Forte)
with the SABRE-lite router.  ``hatt-arch`` grows the tree against the same
coupling graph it is routed onto (distance-biased candidate selection) and
carries the pipeline's portfolio guard, so its routed CNOTs and depth are
bounded above by plain HATT's per architecture — asserted below.  Supersedes the old ``bench_table4_tetris`` harness:
it sweeps every mapping kind, records SWAP counts, cross-checks the router
against its scalar oracle, and enforces the router's speedup floor.

Paper-claim checks, honestly scoped:

* On the collective-neutrino cases (§V-B2, all-to-all interactions — the
  paper's flagship for HATT) routed HATT beats JW and BK on **every**
  architecture; this is asserted per-architecture, in smoke mode too.
* On the electronic-structure subset our router is weaker than Tetris on
  HATT's less regular ladders (heavy-hex rows suit JW's linear chains), so
  only an aggregate bound is asserted there (see EXPERIMENTS.md note in
  the old harness).

Router speedup: each SWAP decision of ``route_circuit`` is one batched
integer kernel whose cost is independent of the lookahead horizon, while
the scalar reference (``tests/reference/routing.py``) scans every window
position per candidate.  The
floor is asserted at the deep-horizon configuration (lookahead=1024) on
the largest case, where that structural difference is the measurement —
both engines emit bit-identical circuits at every horizon.

Peephole scaling guard: ``to_cx_u3`` runs each pass as one sweep, so its
time on nested palindromes (``w·w⁻¹``, which cancel from the middle out)
grows linearly with the gate count; repeated whole-circuit sweeps would
peel one layer per sweep and grow quadratically.

Emission guard: Trotter synthesis emits only the gates that survive the
first cancellation sweep (up to a 10% margin), so its cost tracks the
surviving CNOTs rather than the full term-by-term ladders.

Set ``REPRO_BENCH_SMOKE=1`` (the CI smoke step) for a toy-size run that
still exercises every assertion.  Results are written to the committed
repo-root ``BENCH_table4.json`` on canonical runs.
"""

import os
import random
import time
from pathlib import Path

import pytest

from conftest import full_run
from reference.routing import scalar_route_circuit
from repro.analysis import write_bench_json, write_result
from repro.circuits import (
    Circuit,
    cancel_adjacent,
    route_circuit,
    to_cx_u3,
    trotter_circuit,
)
from repro.compile import ARCHITECTURES, CompilationPipeline, CompileOptions
from repro.sources import build_case
from repro.service import MappingSpec, compile_mapping

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("0", "", "false")

NEUTRINO_CASES = ["neutrino:2x2F"]
if SMOKE:
    CASES = ["H2_sto3g"] + NEUTRINO_CASES
    SPEEDUP_CASE = "H2O_sto3g"
    SPEEDUP_REPEATS = 1
elif full_run():
    NEUTRINO_CASES += ["neutrino:3x2F", "neutrino:4x2F"]
    CASES = ["H2_sto3g", "H2_631g", "LiH_sto3g_frz", "hubbard:2x3",
             "H2O_sto3g"] + NEUTRINO_CASES
    SPEEDUP_CASE = "H2O_sto3g"
    SPEEDUP_REPEATS = 3
else:
    NEUTRINO_CASES += ["neutrino:3x2F"]
    CASES = ["H2_sto3g", "LiH_sto3g_frz", "hubbard:2x3", "H2O_sto3g"] + NEUTRINO_CASES
    SPEEDUP_CASE = "H2O_sto3g"
    SPEEDUP_REPEATS = 3

KINDS = ("jw", "bk", "btt", "hatt", "hatt-arch")

#: Acceptance floor: the vector router must beat the scalar reference by
#: this factor on the largest case at the deep-horizon configuration.
MIN_SPEEDUP = 3.0

#: Deep-horizon routing configuration for the speedup measurement (the
#: vector engine's decision cost is flat in the horizon; the scalar
#: reference's is linear).
DEEP_LOOKAHEAD = 1024

#: Electronic aggregate bound: routed HATT within this factor of routed JW
#: summed over every (electronic case, architecture) pair.
ELECTRONIC_AGGREGATE = 1.15

JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_table4.json"

#: Peephole scaling guard: ``to_cx_u3`` time on nested palindromes of 4n
#: gates over n gates must stay below this ratio (linear is ~4x, repeated
#: whole-circuit sweeps ~16x).
PALINDROME_GATES = 4000
MAX_PEEPHOLE_SCALING = 8.0

#: Emission guard: Trotter synthesis skips the junction gates the first
#: cancellation deletes, so the emitted list may exceed the cancelled one by
#: at most this factor (full term-by-term emission: 2.26 on H2O/JW).
MAX_EMITTED_PER_SURVIVOR = 1.10


@pytest.fixture(scope="module")
def table4():
    pipeline = CompilationPipeline()
    reports = {}
    for case in CASES:
        reports[case] = pipeline.sweep(build_case(case), kinds=KINDS, case=case)
    content = "\n\n".join(reports[case].table() for case in CASES)
    write_result("table4_compile", content)
    return reports


@pytest.fixture(scope="module")
def speedup():
    """Deep-horizon routing time, vector vs scalar, on the largest case."""
    h = build_case(SPEEDUP_CASE)
    mapping = compile_mapping(h, MappingSpec(kind="jw", n_modes=h.n_modes))
    circuit = to_cx_u3(trotter_circuit(mapping.map(h), order="mutual"))
    from repro.circuits import architecture

    graph = architecture("manhattan")
    times = {}
    routed = {}
    for engine, route in (("vector", route_circuit), ("scalar", scalar_route_circuit)):
        best = float("inf")
        for _ in range(SPEEDUP_REPEATS):
            start = time.perf_counter()
            routed[engine] = route(circuit, graph, lookahead=DEEP_LOOKAHEAD)
            best = min(best, time.perf_counter() - start)
        times[engine] = best
    return circuit, routed, times


def test_table4_emits_all_metrics(table4):
    for case, report in table4.items():
        for arch in ARCHITECTURES:
            for kind in KINDS:
                m = report.metrics[arch][kind]
                assert m.routed_cx > 0 and m.routed_depth > 0, (case, arch, kind)
                assert m.routed_swaps >= 0
                assert m.n_physical >= m.n_qubits


def test_table4_no_swaps_on_all_to_all(table4):
    for report in table4.values():
        for m in report.metrics["ionq_forte"].values():
            assert m.routed_swaps == 0


def test_table4_hatt_wins_on_neutrino(table4):
    """§V-B2 flagship: routed HATT ≤ JW and BK on every architecture."""
    for case in NEUTRINO_CASES:
        for arch, per_kind in table4[case].metrics.items():
            hatt = per_kind["hatt"].routed_cx
            assert hatt <= per_kind["jw"].routed_cx, (case, arch)
            assert hatt <= per_kind["bk"].routed_cx, (case, arch)


def test_table4_hatt_arch_never_worse_than_hatt(table4):
    """The hatt-arch portfolio guarantee: on every (case, architecture) the
    architecture-adaptive row routes with no more CNOTs *and* no more depth
    than plain HATT (the guard falls back to the plain tree otherwise)."""
    for case, report in table4.items():
        for arch, per_kind in report.metrics.items():
            adaptive, plain = per_kind["hatt-arch"], per_kind["hatt"]
            assert adaptive.routed_cx <= plain.routed_cx, (case, arch)
            assert adaptive.routed_depth <= plain.routed_depth, (case, arch)


def test_table4_electronic_aggregate(table4):
    """Electronic subset: HATT's aggregate routed CNOTs stay within the
    honesty bound of JW's (our SABRE-lite router favors JW's linear
    ladders on heavy-hex; Tetris would close this gap)."""
    electronic = [c for c in CASES if c not in NEUTRINO_CASES]
    jw_total = hatt_total = 0
    for case in electronic:
        for per_kind in table4[case].metrics.values():
            jw_total += per_kind["jw"].routed_cx
            hatt_total += per_kind["hatt"].routed_cx
    assert hatt_total <= jw_total * ELECTRONIC_AGGREGATE, (hatt_total, jw_total)


def test_router_backends_bit_identical(table4):
    """The router and its scalar oracle produce identical gate sequences at
    several horizons."""
    from repro.circuits import architecture

    case = CASES[0]
    h = build_case(case)
    mapping = compile_mapping(h, MappingSpec(kind="hatt", n_modes=h.n_modes))
    circuit = to_cx_u3(trotter_circuit(mapping.map(h), order="mutual"))
    for arch in ARCHITECTURES:
        graph = architecture(arch)
        for lookahead in (4, 64, 256, DEEP_LOOKAHEAD):
            vec = route_circuit(circuit, graph, lookahead=lookahead)
            sca = scalar_route_circuit(circuit, graph, lookahead=lookahead)
            assert vec.circuit.gates == sca.circuit.gates, (arch, lookahead)
            assert vec.final_layout == sca.final_layout, (arch, lookahead)


@pytest.fixture(scope="module")
def bench_json(table4, speedup):
    """Write the benchmark payload (runs regardless of assertion outcomes)."""
    circuit, routed, times = speedup
    ratio = times["scalar"] / times["vector"]
    payload = {
        "smoke": SMOKE,
        "full": full_run(),
        "cases": CASES,
        "kinds": list(KINDS),
        "architectures": list(ARCHITECTURES),
        "options": {
            "term_order": CompileOptions().term_order,
            "lookahead": CompileOptions().lookahead,
        },
        "metrics": {
            case: {
                arch: {
                    kind: {
                        "pauli_weight": m.pauli_weight,
                        "logical_cx": m.logical_cx,
                        "routed_cx": m.routed_cx,
                        "routed_swaps": m.routed_swaps,
                        "routed_depth": m.routed_depth,
                    }
                    for kind, m in per_arch.items()
                }
                for arch, per_arch in table4[case].metrics.items()
            }
            for case in CASES
        },
        "router_speedup": {
            "case": SPEEDUP_CASE,
            "architecture": "manhattan",
            "lookahead": DEEP_LOOKAHEAD,
            "n_gates": len(circuit),
            "vector_s": round(times["vector"], 4),
            "scalar_s": round(times["scalar"], 4),
            "speedup": round(ratio, 2),
            "min_floor": MIN_SPEEDUP,
        },
    }
    path = write_bench_json(
        "table4_compile", payload, JSON_PATH, refresh_committed=not SMOKE
    )
    return path, payload


def test_routing_speedup_floor(speedup, bench_json):
    circuit, routed, times = speedup
    assert routed["vector"].circuit.gates == routed["scalar"].circuit.gates
    assert times["scalar"] / times["vector"] >= MIN_SPEEDUP, times


def test_table4_json_written(bench_json):
    import json

    path, payload = bench_json
    data = json.loads(path.read_text())
    assert data["router_speedup"]["case"] == SPEEDUP_CASE
    assert data["metrics"] == payload["metrics"]
    if not SMOKE:
        # Canonical runs also refresh the committed repo-root artifact.
        assert JSON_PATH.exists()


def _nested_palindrome(n_gates: int, n_qubits: int = 4, seed: int = 7) -> Circuit:
    """``w·w⁻¹`` for a random ``w`` of ``n_gates / 2`` gates."""
    rng = random.Random(seed)
    names = ["h", "x", "s", "sdg", "t", "tdg", "rz", "cx", "cz", "swap"]
    half = Circuit(n_qubits)
    for _ in range(n_gates // 2):
        name = rng.choice(names)
        if name in ("cx", "cz", "swap"):
            half.add(name, *rng.sample(range(n_qubits), 2))
        elif name == "rz":
            half.add(name, rng.randrange(n_qubits), params=(rng.uniform(-3, 3),))
        else:
            half.add(name, rng.randrange(n_qubits))
    return half.compose(half.inverse())


def test_peephole_scales_linearly():
    times = []
    for n_gates in (PALINDROME_GATES, 4 * PALINDROME_GATES):
        circuit = _nested_palindrome(n_gates)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            out = to_cx_u3(circuit)
            best = min(best, time.perf_counter() - start)
        assert len(out) == 0, n_gates
        times.append(best)
    assert times[1] / times[0] < MAX_PEEPHOLE_SCALING, times


def test_emission_tracks_surviving_gates():
    h = build_case(SPEEDUP_CASE)
    mapping = compile_mapping(h, MappingSpec(kind="jw", n_modes=h.n_modes))
    emitted = trotter_circuit(mapping.map(h), order="mutual")
    survivors = len(cancel_adjacent(emitted))
    assert len(emitted) <= MAX_EMITTED_PER_SURVIVOR * survivors, (len(emitted), survivors)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_bench_routing(benchmark, arch, table4):
    from repro.circuits import architecture

    h = build_case("H2_sto3g")
    mapping = compile_mapping(h, MappingSpec(kind="jw", n_modes=h.n_modes))
    circ = to_cx_u3(trotter_circuit(mapping.map(h), order="mutual"))
    graph = architecture(arch)
    benchmark.pedantic(lambda: route_circuit(circ, graph), rounds=3, iterations=1)
