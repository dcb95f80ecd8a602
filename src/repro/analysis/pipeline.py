"""The paper's evaluation pipeline, mapping-agnostic.

For a fermionic Hamiltonian and a fermion-to-qubit mapping, produce the
metrics of Tables I–III: qubit-Hamiltonian Pauli weight, and CNOT count /
circuit depth of the compiled single-Trotter-step evolution circuit in the
{CX, U3} basis.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..circuits import grouped_evolution_circuit, to_cx_u3, trotter_circuit
from ..fermion import FermionOperator, MajoranaOperator
from ..mappings import (
    FermionQubitMapping,
    balanced_ternary_tree,
    bravyi_kitaev,
    jordan_wigner,
    parity_mapping,
)

__all__ = [
    "MappingReport",
    "evaluate_mapping",
    "standard_mappings",
    "compare_mappings",
    "BASELINE_NAMES",
    "COMPARE_KINDS",
]

BASELINE_NAMES = ("JW", "BK", "BTT")


@dataclass
class MappingReport:
    """Metrics of one (Hamiltonian, mapping) pair."""

    mapping: str
    n_modes: int
    pauli_weight: int
    n_terms: int
    max_weight: int = 0
    mean_weight: float = 0.0
    cx_count: int | None = None
    u3_count: int | None = None
    depth: int | None = None

    def row(self) -> list:
        return [
            self.mapping,
            self.pauli_weight,
            self.cx_count if self.cx_count is not None else "-",
            self.depth if self.depth is not None else "-",
        ]

    def to_dict(self) -> dict:
        """JSON-shaped form (CLI ``--json`` output, cached evaluation reports)."""
        return {
            "mapping": self.mapping,
            "n_modes": self.n_modes,
            "pauli_weight": self.pauli_weight,
            "n_terms": self.n_terms,
            "max_weight": self.max_weight,
            "mean_weight": self.mean_weight,
            "cx_count": self.cx_count,
            "u3_count": self.u3_count,
            "depth": self.depth,
        }


def evaluate_mapping(
    hamiltonian: FermionOperator | MajoranaOperator,
    mapping: FermionQubitMapping,
    compile_circuit: bool = True,
    synthesis: str = "naive",
    time: float = 1.0,
    term_order: str = "lexicographic",
) -> MappingReport:
    """Map, optionally synthesize one Trotter step, optimize, and measure.

    ``synthesis``: ``"naive"`` (per-term ladders + peephole — the paper's
    Paulihedral/Qiskit-L3 stand-in) or ``"grouped"`` (simultaneous
    diagonalization — the Rustiq stand-in).

    ``term_order`` is forwarded to :func:`~repro.circuits.trotter_circuit`
    for the naive synthesis; ``"mutual"`` aligns adjacent CNOT ladders on
    their mutual support, cutting CNOTs below the lexicographic default
    (the hardware pipeline's setting — see :mod:`repro.compile`).
    """
    hq = mapping.map(hamiltonian)
    weights = hq.to_table()[0].weights()  # the mapped operator's own table
    report = MappingReport(
        mapping=mapping.name,
        n_modes=mapping.n_modes,
        pauli_weight=int(weights.sum()),
        n_terms=len(hq),
        max_weight=int(weights.max(initial=0)),
        mean_weight=float(weights.mean()) if len(weights) else 0.0,
    )
    if compile_circuit:
        if synthesis == "naive":
            circuit = trotter_circuit(hq, time=time, order=term_order)
        elif synthesis == "grouped":
            circuit = grouped_evolution_circuit(hq, time=time)
        else:
            raise ValueError(f"unknown synthesis {synthesis!r}")
        compiled = to_cx_u3(circuit)
        report.cx_count = compiled.cx_count
        report.u3_count = compiled.u3_count
        report.depth = compiled.depth()
    return report


def standard_mappings(
    n_modes: int, include_parity: bool = False
) -> dict[str, FermionQubitMapping]:
    """The paper's constructive baselines."""
    out = {
        "JW": jordan_wigner(n_modes),
        "BK": bravyi_kitaev(n_modes),
        "BTT": balanced_ternary_tree(n_modes),
    }
    if include_parity:
        out["Parity"] = parity_mapping(n_modes)
    return out


#: Display name → service mapping kind, in table row order.  The CLI's
#: prewarm step reuses this so the pooled compiles always match the set the
#: comparison evaluates.
COMPARE_KINDS = {"JW": "jw", "BK": "bk", "BTT": "btt", "HATT": "hatt"}


def compare_mappings(
    hamiltonian: FermionOperator | MajoranaOperator,
    n_modes: int,
    compile_circuit: bool = True,
    synthesis: str = "naive",
    include_unopt: bool = False,
    service: "object | None" = None,
    term_order: str = "lexicographic",
    arch: str | None = None,
    arch_weight: float | None = None,
) -> dict[str, MappingReport]:
    """Evaluate JW/BK/BTT/HATT (and optionally HATT-unopt) on one Hamiltonian.

    ``arch`` (an architecture name from :mod:`repro.circuits.architectures`)
    adds a ``HATT-arch`` row: the tree grown with candidate selection biased
    by routed distance on that coupling graph (blend tuned by
    ``arch_weight``).  Note these logical metrics need not improve — the
    biased tree pays off after routing (see ``repro compile``).

    ``service`` (a :class:`repro.service.MappingService`) routes every
    compile through the compilation cache: warm fingerprints load stored
    artifacts instead of recompiling, and fresh compiles are persisted for
    the next caller.  Reports are identical either way (cached mappings are
    bit-identical to fresh compiles).
    """
    if arch is None and arch_weight is not None:
        raise ValueError("arch_weight needs an arch")
    from ..service import MappingSpec, compile_mapping

    names = dict(COMPARE_KINDS)
    if include_unopt:
        names["HATT-unopt"] = "hatt-unopt"
    specs = {
        name: MappingSpec(kind=kind, n_modes=n_modes) for name, kind in names.items()
    }
    if arch is not None:
        specs["HATT-arch"] = MappingSpec(
            kind="hatt-arch", n_modes=n_modes, arch=arch, arch_weight=arch_weight
        )
    mappings = {
        name: (
            compile_mapping(hamiltonian, spec)
            if service is None
            else service.get_or_compile(hamiltonian, spec).mapping
        )
        for name, spec in specs.items()
    }
    return {
        name: evaluate_mapping(
            hamiltonian,
            m,
            compile_circuit=compile_circuit,
            synthesis=synthesis,
            term_order=term_order,
        )
        for name, m in mappings.items()
    }
