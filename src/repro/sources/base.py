"""The :class:`HamiltonianSource` protocol.

A source is one place Hamiltonians come from — a built-in generator, a
cached ``.npz``, an external integral file, a synthetic ensemble — behind
one interface the CLI, the batch orchestrator, and the serving layer all
consume:

``spec``
    The canonical URI-style string naming this exact Hamiltonian
    (``hubbard:2x3``, ``fcidump:path.fcid``, …).  Served requests carry
    the spec; batch planning resolves it once in the parent and ships the
    built operator to its workers.
``describe()``
    Cheap metadata (family, mode count, parameters) without building.
``build()``
    The full :class:`~repro.fermion.FermionOperator`, built once and cached
    on the source instance.
``identity()``
    A cheap name for the operator's content (a tuple of strings and
    numbers), or ``None``.  A
    source whose operator is a pure function of something it can read
    without building (its canonical spec; a file's bytes) opts in by
    setting ``identity_version`` on its class, and the compilation
    service then remembers the content fingerprints it produced under
    that name, so a repeated request neither builds nor fingerprints.
    The default is ``None``: a source that cannot vouch for its content
    is built and fingerprinted on every request.  Only the class that
    declares ``identity_version`` gets an identity; a subclass (which may
    override ``_build``) starts opted out again.

:class:`OperatorSource` wraps an operator that is already in memory, so
callers holding a built Hamiltonian use the same source-taking APIs; it
has no identity.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..fermion import FermionOperator

__all__ = [
    "HamiltonianSource",
    "OperatorSource",
    "as_source",
    "parse_params",
    "format_params",
    "format_number",
]


class HamiltonianSource(ABC):
    """One pluggable Hamiltonian frontend; see the module docstring."""

    #: Registry prefix family this source belongs to (``"hubbard"``, …).
    family: str = ""
    #: True when the terms live outside process memory (a file on disk, a
    #: seeded generator); ``describe()`` and ``repro sources`` report it.
    file_backed: bool = False
    #: Opt-in content identity (see :meth:`identity`): bump it whenever the
    #: operator a spec builds changes.  Read from the concrete class only.
    identity_version: int | None = None

    def __init__(self, spec: str):
        self.spec = spec
        self._built: FermionOperator | None = None

    # -- required surface ------------------------------------------------
    @property
    @abstractmethod
    def n_modes(self) -> int:
        """Mode count, known without building the operator."""

    @abstractmethod
    def _build(self) -> FermionOperator:
        """Materialize the operator (uncached; callers use :meth:`build`)."""

    # -- shared machinery ------------------------------------------------
    def build(self) -> FermionOperator:
        if self._built is None:
            self._built = self._build()
        return self._built

    def identity(self) -> tuple | None:
        """``(spec, class, version)`` when the concrete class declares
        ``identity_version``, else ``None``; see the module docstring."""
        cls = type(self)
        version = vars(cls).get("identity_version")
        if version is None:
            return None
        return (self.spec, f"{cls.__module__}.{cls.__qualname__}", version)

    def describe(self) -> dict:
        """Cheap metadata; subclasses extend with their parameters."""
        return {
            "spec": self.spec,
            "family": self.family,
            "file_backed": self.file_backed,
            "n_modes": self.n_modes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.spec!r})"


class OperatorSource(HamiltonianSource):
    """An operator already in memory, behind the source interface.

    It has no identity, so a service fed one fingerprints it every time,
    exactly as it fingerprints a bare operator.
    """

    family = "memory"

    def __init__(self, operator):
        super().__init__("memory:")
        self._built = operator

    @property
    def n_modes(self) -> int:
        return self._built.n_modes

    def _build(self):
        return self._built


def as_source(obj) -> HamiltonianSource:
    """``obj`` itself if it is a source, else an :class:`OperatorSource`."""
    return obj if isinstance(obj, HamiltonianSource) else OperatorSource(obj)


def parse_params(text: str, *, allowed: tuple[str, ...]) -> dict[str, str]:
    """Parse a ``k=v,k=v`` parameter tail, validating key names."""
    params: dict[str, str] = {}
    for part in filter(None, (p.strip() for p in text.split(","))):
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or not value.strip():
            raise ValueError(f"malformed source parameter {part!r}; expected key=value")
        if key not in allowed:
            raise ValueError(
                f"unknown source parameter {key!r}; allowed: {', '.join(allowed)}"
            )
        if key in params:
            raise ValueError(f"duplicate source parameter {key!r}")
        params[key] = value.strip()
    return params


def format_number(value: float) -> str:
    """Short ``%g`` text when it reads back as ``value``, else ``repr``.

    Canonical specs must name one Hamiltonian: ``%g`` alone keeps six
    digits, so ``u=4.0000001`` would print as ``u=4``.
    """
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def format_params(params: dict[str, object]) -> str:
    """Canonical ``,k=v`` tail (sorted keys; empty when no params)."""
    if not params:
        return ""
    return "," + ",".join(f"{k}={params[k]}" for k in sorted(params))
