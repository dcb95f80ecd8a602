"""Built-in generator sources: Hubbard lattices, neutrino systems, chemistry.

These wrap the existing ``repro.models`` generators behind the
:class:`HamiltonianSource` protocol and widen their grammar with the
parameter tails the redesign calls for (open/periodic boundary and
spin-ordering Hubbard variants, tunable neutrino coupling).
"""

from __future__ import annotations

import re

from ..fermion import FermionOperator
from ..models.hubbard import fermi_hubbard
from ..models.neutrino import collective_neutrino
from .base import HamiltonianSource, format_number, format_params, parse_params
from .registry import register_source

__all__ = ["HubbardSource", "NeutrinoSource", "ElectronicSource"]

_GEOMETRY_RE = re.compile(r"^(\d+)\s*[x×]\s*(\d+)$")
_NEUTRINO_RE = re.compile(r"^(\d+)\s*[x×]\s*(\d+)\s*F$", re.IGNORECASE)


def _fnum(name: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"source parameter {name}={value!r} is not a number") from None


class HubbardSource(HamiltonianSource):
    """``hubbard:<AxB>[,t=..,u=..,bc=open|periodic,ordering=interleaved|blocked]``.

    The bare geometry keeps the paper's Table II convention (``a×b`` →
    ``b`` rows × ``a`` columns, periodic wrap along dimensions longer
    than 2, spin-interleaved modes) so ``hubbard:2x3`` still names the
    exact Hamiltonian it always did; the parameter tail opens the 2D
    open-boundary and spin-blocked variants.
    """

    family = "hubbard"
    identity_version = 1

    def __init__(self, spec: str):
        body = spec.partition(":")[2]
        geometry, _, tail = body.partition(",")
        m = _GEOMETRY_RE.match(geometry.strip())
        if not m:
            raise ValueError(
                f"cannot parse Hubbard geometry {geometry!r} in spec {spec!r}; "
                "expected <cols>x<rows> like 2x3"
            )
        self.a, self.b = int(m.group(1)), int(m.group(2))
        if self.a < 1 or self.b < 1:
            raise ValueError(f"Hubbard lattice dimensions must be positive in {spec!r}")
        params = parse_params(tail, allowed=("t", "u", "bc", "ordering"))
        self.t = _fnum("t", params.get("t", "1"))
        self.u = _fnum("u", params.get("u", "4"))
        self.bc = params.get("bc", "periodic")
        if self.bc not in ("open", "periodic"):
            raise ValueError(f"Hubbard bc must be open|periodic, got {self.bc!r}")
        self.ordering = params.get("ordering", "interleaved")
        if self.ordering not in ("interleaved", "blocked"):
            raise ValueError(
                f"Hubbard ordering must be interleaved|blocked, got {self.ordering!r}"
            )
        tail_params: dict[str, object] = {}
        if self.t != 1.0:
            tail_params["t"] = format_number(self.t)
        if self.u != 4.0:
            tail_params["u"] = format_number(self.u)
        if self.bc != "periodic":
            tail_params["bc"] = self.bc
        if self.ordering != "interleaved":
            tail_params["ordering"] = self.ordering
        super().__init__(f"hubbard:{self.a}x{self.b}{format_params(tail_params)}")

    @property
    def n_modes(self) -> int:
        return 2 * self.a * self.b

    def _build(self) -> FermionOperator:
        return fermi_hubbard(
            rows=self.b,
            cols=self.a,
            t=self.t,
            u=self.u,
            periodic=self.bc == "periodic",
            ordering=self.ordering,
        )

    def describe(self) -> dict:
        doc = super().describe()
        doc.update(
            geometry=f"{self.a}x{self.b}", t=self.t, u=self.u,
            bc=self.bc, ordering=self.ordering,
        )
        return doc


class NeutrinoSource(HamiltonianSource):
    """``neutrino:<NxFF>[,mu=..]`` — collective oscillations, 2·N·F modes."""

    family = "neutrino"
    identity_version = 1

    def __init__(self, spec: str):
        body = spec.partition(":")[2]
        label, _, tail = body.partition(",")
        m = _NEUTRINO_RE.match(label.strip())
        if not m:
            raise ValueError(
                f"cannot parse neutrino label {label!r} in spec {spec!r}; "
                "expected <momenta>x<flavors>F like 3x2F"
            )
        self.n_momenta, self.n_flavors = int(m.group(1)), int(m.group(2))
        if self.n_momenta < 1 or self.n_flavors < 1:
            raise ValueError(f"neutrino system dimensions must be positive in {spec!r}")
        params = parse_params(tail, allowed=("mu",))
        self.mu = _fnum("mu", params.get("mu", "0.1"))
        tail_params: dict[str, object] = {}
        if self.mu != 0.1:
            tail_params["mu"] = format_number(self.mu)
        super().__init__(
            f"neutrino:{self.n_momenta}x{self.n_flavors}F{format_params(tail_params)}"
        )

    @property
    def n_modes(self) -> int:
        return 2 * self.n_momenta * self.n_flavors

    def _build(self) -> FermionOperator:
        return collective_neutrino(self.n_momenta, self.n_flavors, mu=self.mu)

    def describe(self) -> dict:
        doc = super().describe()
        doc.update(
            n_momenta=self.n_momenta, n_flavors=self.n_flavors, mu=self.mu
        )
        return doc


class ElectronicSource(HamiltonianSource):
    """``electronic:<name>`` (or a bare ``<name>``) — paper chemistry cases."""

    family = "electronic"
    identity_version = 1

    def __init__(self, spec: str):
        from ..models.electronic import electronic_case_names

        name = spec.partition(":")[2].strip()
        if name not in electronic_case_names():
            known = ", ".join(electronic_case_names())
            raise ValueError(f"unknown electronic case {name!r}; known: {known}")
        self.name = name
        super().__init__(f"electronic:{name}")

    @property
    def n_modes(self) -> int:
        from ..models.electronic import case_integrals

        return 2 * case_integrals(self.name)[0].shape[0]

    def _build(self) -> FermionOperator:
        from ..models.electronic import electronic_case

        return electronic_case(self.name).hamiltonian

    def describe(self) -> dict:
        doc = super().describe()
        doc["name"] = self.name
        return doc


def _register_builtin() -> None:
    register_source(
        "hubbard",
        HubbardSource,
        description="Fermi-Hubbard model on an AxB lattice (paper Table II)",
        grammar="hubbard:<AxB>[,t=<f>,u=<f>,bc=open|periodic,ordering=interleaved|blocked]",
        examples=("hubbard:2x3", "hubbard:3x3,bc=open,u=8"),
    )
    register_source(
        "neutrino",
        NeutrinoSource,
        description="collective neutrino oscillations, N momenta x F flavors "
        "(paper Table III)",
        grammar="neutrino:<NxFF>[,mu=<f>]",
        examples=("neutrino:2x2F", "neutrino:3x2F,mu=0.05"),
    )
    register_source(
        "electronic",
        ElectronicSource,
        description="built-in electronic-structure cases (paper Table I); "
        "the bare case name is accepted as an alias",
        grammar="electronic:<name> | <name>",
        examples=("electronic:H2_sto3g", "LiH_sto3g_frz"),
    )


_register_builtin()
