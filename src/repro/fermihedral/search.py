"""Weight-minimizing search over the Fermihedral encoding.

Linear-descent strategy (each bound gets a fresh solver — the encoding is
small at the mode counts where SAT is feasible at all): start from the best
constructive upper bound, repeatedly demand strictly smaller weight until
UNSAT (optimal) or the time budget runs out (approximate — the paper marks
such results with '*').
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..fermion import FermionOperator, MajoranaOperator
from ..fermion.majorana import majorana_form
from ..mappings.base import FermionQubitMapping
from .encoding import MappingEncoding
from .sat import SAT, UNKNOWN, UNSAT, Solver

__all__ = ["fermihedral_mapping", "FermihedralResult"]


@dataclass
class FermihedralResult:
    """Outcome of the SAT search."""

    mapping: FermionQubitMapping | None
    weight: int | None  # Hamiltonian Pauli weight of `mapping`
    optimal: bool  # proved optimal (paper: plain number vs '*')
    timed_out: bool
    solve_time: float

    @property
    def label(self) -> str:
        """Table annotation: '123', '123*', or '--'."""
        if self.mapping is None:
            return "--"
        return f"{self.weight}{'' if self.optimal else '*'}"


def fermihedral_mapping(
    hamiltonian: FermionOperator | MajoranaOperator,
    n_modes: int | None = None,
    time_limit: float = 60.0,
    upper_bound: int | None = None,
) -> FermihedralResult:
    """SAT-search the minimum-Pauli-weight mapping for ``hamiltonian``.

    ``upper_bound``: a known achievable weight (e.g. from HATT); the search
    starts just below it.  Practical only for N ≲ 4 — exactly the paper's
    observation that exhaustive search does not scale (Fig. 12).
    """
    majorana = majorana_form(hamiltonian)
    if n_modes is None:
        n_modes = majorana.n_modes
    terms = majorana.support_terms()
    start = time.monotonic()
    deadline = start + time_limit

    best_strings = None
    best_weight = None
    optimal = False
    timed_out = False

    if upper_bound is None:
        # Constructive warm start keeps the first SAT call easy.
        from ..hatt import hatt_mapping

        hatt = hatt_mapping(majorana, n_modes=n_modes, vacuum=False)
        ub = hatt.map(majorana).pauli_weight()
    else:
        ub = upper_bound

    bound = ub - 1
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            timed_out = True
            break
        enc = MappingEncoding(n_modes, terms)
        enc.add_validity_constraints()
        enc.add_weight_bound(bound)
        status = enc.solver.solve(time_limit=remaining)
        if status == UNKNOWN:
            timed_out = True
            break
        if status == UNSAT:
            optimal = True
            break
        strings = enc.decode()
        # Recompute the true weight: the model may beat the bound.
        from ..mappings.apply import map_majorana_operator

        weight = map_majorana_operator(majorana, strings, n_modes).pauli_weight()
        best_strings, best_weight = strings, weight
        bound = min(bound, weight) - 1
        if bound < 0:
            optimal = True
            break

    mapping = None
    if best_strings is not None:
        mapping = FermionQubitMapping(best_strings, name="FH")
    elif optimal:
        # The constructive upper bound itself was optimal; re-derive it so the
        # caller still gets a mapping.  (UNSAT at ub-1 proves ub optimal.)
        from ..hatt import hatt_mapping

        if upper_bound is None:
            hatt = hatt_mapping(majorana, n_modes=n_modes, vacuum=False)
            mapping = FermionQubitMapping(list(hatt.strings), name="FH")
            best_weight = ub
        else:
            mapping, best_weight = None, upper_bound
    return FermihedralResult(
        mapping=mapping,
        weight=best_weight,
        optimal=optimal and not timed_out,
        timed_out=timed_out,
        solve_time=time.monotonic() - start,
    )
