"""End-to-end hardware compilation: Hamiltonian × mapping × architecture.

``CompilationPipeline`` produces routed-circuit metrics (CNOT count, SWAP
count, depth) for any mapping kind on any of the paper's four target
architectures, reproducing a Table IV analogue.  Three layers of reuse keep
full sweeps fast:

* mappings come from the :class:`~repro.service.MappingService`
  (memory LRU → disk → compile) when a service is attached;
* each architecture's coupling graph is instantiated once per pipeline, so
  the all-pairs distance matrix and adjacency tables cached on the graph by
  :mod:`repro.circuits.routing` are shared across the whole sweep;
* routed metrics go through the service's ``circuits`` cache — the same
  memory LRU → disk (the store's ``circuits/`` namespace) → compute policy,
  single-flighted — keyed by operator × mapping fingerprint × architecture ×
  compile options, so a repeated sweep never re-routes.

The pipeline takes a :class:`~repro.sources.HamiltonianSource` or a built
operator.  With a service, both fingerprints of a source with an identity
come from the service's alias cache, and its operator is built only when a
mapping or a circuit must be compiled.

Routing always runs the router's default (vector) engine; its bit-identical
scalar reference is a test oracle (``test_routing.py``, the Table IV bench),
not a pipeline option.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

from ..analysis.tables import format_table
from ..circuits import architecture, route_circuit, to_cx_u3, trotter_circuit
from ..circuits.evolution import TERM_ORDERS
from ..circuits.routing import DEFAULT_LOOKAHEAD
from ..obs.trace import current_trace_id, span
from ..sources.base import as_source
from ..service import (
    MappingSpec,
    compile_mapping,
    fingerprint_operator,
    fingerprint_request,
)

__all__ = [
    "ARCHITECTURES",
    "CIRCUIT_SCHEMA",
    "CompileOptions",
    "RoutedMetrics",
    "SweepReport",
    "CompilationPipeline",
    "circuit_fingerprint",
]

#: The paper's Table IV targets, in display order.
ARCHITECTURES = ("manhattan", "montreal", "sycamore", "ionq_forte")

#: Default mapping kinds for a Table IV sweep, in display order.
DEFAULT_KINDS = ("jw", "bk", "btt", "hatt")

#: Bump when the routed-metrics artifact layout changes (old cache entries
#: become unreachable rather than silently wrong).
CIRCUIT_SCHEMA = 1


@dataclass(frozen=True)
class CompileOptions:
    """Synthesis + routing configuration (every field is cache-key material)."""

    term_order: str = "mutual"
    lookahead: int = DEFAULT_LOOKAHEAD
    trotter_time: float = 1.0
    trotter_steps: int = 1
    suzuki_order: int = 1

    def __post_init__(self):
        if self.term_order not in TERM_ORDERS:
            raise ValueError(
                f"unknown term order {self.term_order!r}; expected one of {TERM_ORDERS}"
            )
        if (
            not isinstance(self.lookahead, int)
            or isinstance(self.lookahead, bool)
            or self.lookahead < 0
        ):
            raise ValueError(
                f"lookahead must be 0 or a positive int, got {self.lookahead!r}"
            )

    def cache_payload(self) -> dict:
        """The options as fingerprint payload."""
        payload = asdict(self)
        payload["trotter_time"] = repr(self.trotter_time)
        return payload


def circuit_fingerprint(
    operator_fingerprint: str,
    mapping_fingerprint: str,
    arch: str,
    options: CompileOptions,
) -> str:
    """Content hash of one routed-circuit request.

    The operator fingerprint must be included separately: static mapping
    kinds (jw/bk/btt/parity) are deliberately keyed on ``(kind, n_modes)``
    alone at the mapping layer, but the routed circuit is synthesized from
    ``mapping.map(hamiltonian)`` — two same-width Hamiltonians must never
    share a circuit artifact.
    """
    blob = json.dumps(
        {
            "circuit_schema": CIRCUIT_SCHEMA,
            "operator": operator_fingerprint,
            "mapping": mapping_fingerprint,
            "architecture": arch,
            "options": options.cache_payload(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class RoutedMetrics:
    """Routed-circuit metrics of one (Hamiltonian, mapping, architecture)."""

    kind: str
    mapping: str
    architecture: str
    n_modes: int
    n_qubits: int
    n_physical: int
    pauli_weight: int
    logical_cx: int
    logical_depth: int
    routed_cx: int
    routed_swaps: int
    routed_depth: int
    routed_u3: int
    fingerprint: str = ""
    #: ``"computed"`` | ``"cache"`` — not part of the stored artifact.
    source: str = field(default="computed", compare=False)

    _PAYLOAD_KEYS = (
        "kind",
        "mapping",
        "architecture",
        "n_modes",
        "n_qubits",
        "n_physical",
        "pauli_weight",
        "logical_cx",
        "logical_depth",
        "routed_cx",
        "routed_swaps",
        "routed_depth",
        "routed_u3",
        "fingerprint",
    )

    def to_dict(self) -> dict:
        out = {key: getattr(self, key) for key in self._PAYLOAD_KEYS}
        out["source"] = self.source
        return out

    def artifact(self) -> dict:
        """The stored document (source is per-request, not content)."""
        doc = {key: getattr(self, key) for key in self._PAYLOAD_KEYS}
        doc["circuit_schema"] = CIRCUIT_SCHEMA
        return doc

    @classmethod
    def from_artifact(cls, doc: dict) -> "RoutedMetrics":
        if doc.get("circuit_schema") != CIRCUIT_SCHEMA:
            raise ValueError(f"unsupported circuit schema {doc.get('circuit_schema')!r}")
        return cls(**{key: doc[key] for key in cls._PAYLOAD_KEYS}, source="cache")

    def row(self) -> list:
        return [
            self.architecture,
            self.mapping,
            self.pauli_weight,
            self.logical_cx,
            self.routed_cx,
            self.routed_swaps,
            self.routed_depth,
        ]


@dataclass
class SweepReport:
    """All (kind × architecture) metrics of one Hamiltonian sweep."""

    case: str
    n_modes: int
    options: CompileOptions
    #: ``metrics[arch][kind]`` in sweep order.
    metrics: dict[str, dict[str, RoutedMetrics]]

    def rows(self) -> list[list]:
        return [m.row() for per_arch in self.metrics.values() for m in per_arch.values()]

    def table(self) -> str:
        headers = [
            "architecture",
            "mapping",
            "weight",
            "logical CX",
            "routed CX",
            "SWAPs",
            "depth",
        ]
        return format_table(
            f"{self.case} ({self.n_modes} modes) — routed single Trotter step "
            f"(order={self.options.term_order}, lookahead={self.options.lookahead})",
            headers,
            self.rows(),
        )

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "n_modes": self.n_modes,
            "options": asdict(self.options),
            "metrics": {
                arch: {kind: m.to_dict() for kind, m in per_arch.items()}
                for arch, per_arch in self.metrics.items()
            },
        }


class CompilationPipeline:
    """Compile Hamiltonians onto hardware architectures, with caching.

    Parameters
    ----------
    service:
        A :class:`repro.service.MappingService`; when given, mappings and
        routed metrics come from its ``mappings`` and ``circuits`` caches
        (memory, then its store if it has one).  ``None`` → compile
        everything fresh, keep nothing.
    options:
        Synthesis/routing configuration shared by every compile.
    arch_weight:
        Distance-penalty blend forwarded to any ``hatt-arch`` compile; the
        target architecture itself comes from ``compile_one``'s ``arch``
        (the tree is grown against the same graph it is routed onto).
    """

    def __init__(
        self,
        service=None,
        options: CompileOptions | None = None,
        arch_weight: float | None = None,
    ):
        self.service = service
        self.options = options if options is not None else CompileOptions()
        self.arch_weight = arch_weight
        self._graphs: dict[str, object] = {}
        self.stats = {"routed": 0, "circuit_hits": 0}

    # ------------------------------------------------------------------
    def graph(self, arch: str):
        """The architecture's coupling graph, shared across the pipeline so
        routing tables cached on it (distance matrix, adjacency) are reused."""
        g = self._graphs.get(arch)
        if g is None:
            g = self._graphs[arch] = architecture(arch)
        return g

    def _mapping(self, source, spec: MappingSpec):
        """``(mapping, fingerprint, mapped)``; ``mapped`` is the mapped
        Hamiltonian when the service just compiled (and so mapped) it."""
        if self.service is not None:
            result = self.service.get_or_compile(source, spec)
            return result.mapping, result.fingerprint, result.mapped
        h = source.build()
        return compile_mapping(h, spec), fingerprint_request(h, spec), None

    def _operator_fingerprint(self, source) -> str:
        if self.service is None:
            return fingerprint_operator(source.build())
        return self.service.alias(source, None, lambda: fingerprint_operator(source.build()))

    # ------------------------------------------------------------------
    def compile_one(
        self,
        hamiltonian,
        kind: str,
        arch: str,
        n_modes: int | None = None,
    ) -> RoutedMetrics:
        """Metrics for one mapping kind routed onto one architecture.

        ``hamiltonian`` is a :class:`~repro.sources.HamiltonianSource` or a
        built operator.  With a service, a source with an identity whose
        routed circuit is cached is served without building its operator.

        For ``hatt-arch`` the routing architecture doubles as the
        construction target, so the mapping fingerprint — and hence the
        ``mappings/v1`` entry — is distinct per architecture.
        """
        source = as_source(hamiltonian)
        spec = MappingSpec(
            kind=kind,
            n_modes=n_modes,
            arch=arch if kind == "hatt-arch" else None,
            arch_weight=self.arch_weight if kind == "hatt-arch" else None,
        )
        # Stage spans land on the active trace (if any) and on the service's
        # registry, next to the service's own spans nested inside them.
        registry = self.service.registry if self.service is not None else None
        with span("construction", registry=registry):
            mapping, mapping_fp, mapped = self._mapping(source, spec)
        n = mapping.n_modes
        fp = circuit_fingerprint(
            self._operator_fingerprint(source), mapping_fp, arch, self.options
        )

        def route() -> RoutedMetrics:
            opts = self.options
            with span("mapping_apply", registry=registry):
                hq = mapped if mapped is not None else mapping.map(source.build())
                table, _ = hq.to_table()
                pauli_weight = int(table.weights().sum())
            with span("ordering", registry=registry):
                logical = to_cx_u3(
                    trotter_circuit(
                        hq,
                        time=opts.trotter_time,
                        steps=opts.trotter_steps,
                        order=opts.term_order,
                        suzuki_order=opts.suzuki_order,
                    )
                )
            graph = self.graph(arch)
            with span("routing", registry=registry):
                routed = route_circuit(logical, graph, lookahead=opts.lookahead)
                final = to_cx_u3(routed.circuit)
            metrics = RoutedMetrics(
                kind=kind,
                mapping=mapping.name,
                architecture=arch,
                n_modes=n,
                n_qubits=hq.n,
                n_physical=graph.number_of_nodes(),
                pauli_weight=pauli_weight,
                logical_cx=logical.cx_count,
                logical_depth=logical.depth(),
                routed_cx=final.cx_count,
                routed_swaps=routed.swap_count,
                routed_depth=final.depth(),
                routed_u3=final.u3_count,
                fingerprint=fp,
            )
            self.stats["routed"] += 1
            if kind == "hatt-arch":
                metrics = self._arch_guard(source, metrics, arch, n)
            return metrics

        if self.service is None:
            return route()

        def load() -> RoutedMetrics | None:
            doc = self.service.store.get_circuit_report(fp)
            return None if doc is None else RoutedMetrics.from_artifact(doc)

        def save(metrics: RoutedMetrics) -> None:
            doc = metrics.artifact()
            trace_id = current_trace_id()
            if trace_id:
                # Provenance breadcrumb; from_artifact ignores non-payload keys.
                doc["trace_id"] = trace_id
            self.service.store.put_circuit_report(fp, doc)

        disk = (load, save) if self.service.store is not None else (None, None)
        metrics, tier = self.service.circuits.get_or_compute(fp, route, *disk)
        if tier is None:
            return metrics
        self.stats["circuit_hits"] += 1
        return replace(metrics, source="cache")

    def _arch_guard(
        self,
        source,
        candidate: RoutedMetrics,
        arch: str,
        n_modes: int,
    ) -> RoutedMetrics:
        """Portfolio guard (the Treespilation pattern): a ``hatt-arch`` row
        never routes worse than plain HATT on the same architecture.

        The biased tree is reported only when it is ≤ the plain tree on both
        routed CNOTs and depth; otherwise the plain tree's routed numbers are
        reported — and cached — under the ``hatt-arch`` circuit fingerprint,
        with the ``mapping`` column naming the tree that won.  The plain
        baseline is itself cache-shared with any ``hatt`` row of the sweep,
        so the guard costs at most one extra route per cold (case, arch).
        """
        baseline = self.compile_one(source, "hatt", arch, n_modes=n_modes)
        if (
            candidate.routed_cx <= baseline.routed_cx
            and candidate.routed_depth <= baseline.routed_depth
        ):
            return candidate
        return replace(
            baseline,
            kind="hatt-arch",
            fingerprint=candidate.fingerprint,
            source="computed",
        )

    def sweep(
        self,
        hamiltonian,
        kinds: tuple[str, ...] = DEFAULT_KINDS,
        architectures: tuple[str, ...] = ARCHITECTURES,
        case: str = "?",
        n_modes: int | None = None,
    ) -> SweepReport:
        """Table IV analogue: every mapping kind on every architecture
        (``hamiltonian`` is a source or a built operator)."""
        source = as_source(hamiltonian)
        n = n_modes if n_modes is not None else source.build().n_modes
        metrics: dict[str, dict[str, RoutedMetrics]] = {}
        for arch in architectures:
            metrics[arch] = {
                kind: self.compile_one(source, kind, arch, n_modes=n)
                for kind in kinds
            }
        return SweepReport(case=case, n_modes=n, options=self.options, metrics=metrics)

    def with_options(self, **overrides) -> "CompilationPipeline":
        """A pipeline sharing this one's service/graphs with tweaked options."""
        clone = CompilationPipeline(
            service=self.service,
            options=replace(self.options, **overrides),
            arch_weight=self.arch_weight,
        )
        clone._graphs = self._graphs
        return clone
