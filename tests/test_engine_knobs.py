"""Each kernel has one engine; its scalar oracle lives in ``tests/reference/``.

The construction, routing, mapping and simulation entry points once took a
``backend=`` argument that picked between a kernel and a bit-identical
reference.  The references are test oracles now, so no entry point may
accept an engine selector again, and the packages export no engine lists.
"""

import ast
import inspect
from pathlib import Path

import pytest

import repro.circuits
import repro.circuits.routing
import repro.hatt
import repro.hatt.construction
from repro.analysis import noisy_energy_experiment
from repro.circuits import Circuit, montreal, route_circuit
from repro.fermion import MajoranaOperator
from repro.hatt import HattConstruction, hatt_mapping
from repro.mappings import jordan_wigner
from repro.mappings.apply import map_majorana_operator
from repro.models.electronic import electronic_case
from repro.paulis import QubitOperator
from repro.sim import NoiseModel, Statevector, noisy_expectations


def test_no_entry_point_takes_an_engine_selector():
    z1 = QubitOperator.from_label_dict({"Z": 1.0})
    h2 = electronic_case("H2_sto3g")
    calls = {
        HattConstruction: lambda **kw: HattConstruction(MajoranaOperator.zero(), 2, **kw),
        hatt_mapping: lambda **kw: hatt_mapping(MajoranaOperator.zero(), n_modes=2, **kw),
        route_circuit: lambda **kw: route_circuit(Circuit(2), montreal(), **kw),
        map_majorana_operator: lambda **kw: map_majorana_operator(
            MajoranaOperator.zero(), jordan_wigner(1).strings, 1, **kw
        ),
        noisy_expectations: lambda **kw: noisy_expectations(
            Circuit(1), z1, NoiseModel(), shots=1, **kw
        ),
        noisy_energy_experiment: lambda **kw: noisy_energy_experiment(
            h2, jordan_wigner(4), NoiseModel(), shots=1, **kw
        ),
        Statevector.expectation: lambda **kw: Statevector(1).expectation(z1, **kw),
    }
    for entry, call in calls.items():
        assert "backend" not in inspect.signature(entry).parameters, entry
        call()  # the same call without the keyword works
        with pytest.raises(TypeError, match="backend"):
            call(backend="scalar")
    for module in (repro.hatt, repro.hatt.construction):
        assert not hasattr(module, "BACKENDS"), module
        assert "BACKENDS" not in module.__all__
    for module in (repro.circuits, repro.circuits.routing):
        assert not hasattr(module, "ROUTER_BACKENDS"), module
        assert "ROUTER_BACKENDS" not in module.__all__


def test_no_package_module_imports_the_oracles():
    """``tests/reference`` is test-only: a ``src`` module importing it would
    work under pytest (which puts ``tests/`` on the path) and fail installed."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "reference" for name in names):
                offenders.append(f"{path.relative_to(src)}:{node.lineno}")
    assert not offenders
