"""Source registry: URI-style spec strings → :class:`HamiltonianSource`.

A spec is ``<prefix>:<rest>`` (``hubbard:2x3``, ``fcidump:path.fcid``,
``random:syk:n=24,seed=7``) or a bare electronic case name
(``H2_sto3g``), an alias for ``electronic:<name>``.  Third parties extend the grammar with
:func:`register_source` — see ``examples/custom_source.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..fermion import FermionOperator
from .base import HamiltonianSource

__all__ = [
    "SourceInfo",
    "register_source",
    "registered_prefixes",
    "resolve",
    "canonical_spec",
    "build_case",
    "source_catalog",
]


@dataclass(frozen=True)
class SourceInfo:
    """One registered spec family: factory plus human-facing metadata."""

    prefix: str
    factory: Callable[[str], HamiltonianSource]
    description: str
    grammar: str
    examples: tuple[str, ...] = ()
    file_backed: bool = False


_REGISTRY: dict[str, SourceInfo] = {}

#: Resolver for specs with no ``prefix:`` — the bare electronic-name alias.
_BARE_PREFIX = "electronic"


def register_source(
    prefix: str,
    factory: Callable[[str], HamiltonianSource],
    *,
    description: str,
    grammar: str,
    examples: tuple[str, ...] = (),
    file_backed: bool = False,
    replace: bool = False,
) -> None:
    """Register ``factory`` for specs starting with ``<prefix>:``.

    The factory receives the full spec string and returns a source.  Set
    ``replace=True`` to intentionally shadow an existing registration.
    """
    if not prefix or ":" in prefix or "," in prefix or prefix != prefix.strip():
        raise ValueError(f"invalid source prefix {prefix!r}")
    if prefix in _REGISTRY and not replace:
        raise ValueError(
            f"source prefix {prefix!r} already registered; pass replace=True to override"
        )
    _REGISTRY[prefix] = SourceInfo(
        prefix=prefix,
        factory=factory,
        description=description,
        grammar=grammar,
        examples=tuple(examples),
        file_backed=file_backed,
    )


def registered_prefixes() -> list[str]:
    return sorted(_REGISTRY)


def _unknown_spec_error(spec: str, resolver: str, detail: str) -> ValueError:
    prefixes = ", ".join(registered_prefixes()) or "<none>"
    return ValueError(
        f"unknown Hamiltonian source spec {spec!r}: {detail} "
        f"(attempted resolver: {resolver}; registered prefixes: {prefixes})"
    )


def resolve(spec: str) -> HamiltonianSource:
    """Resolve a spec string to a :class:`HamiltonianSource`.

    Raises :class:`ValueError` naming the spec, the resolver that was
    attempted, and the registered prefixes — so a typo like ``hubard:2x3``
    fails with the fix in the message instead of a stray ``KeyError``.
    """
    if not isinstance(spec, str):
        raise TypeError(f"source spec must be a string, got {type(spec).__name__}")
    spec = spec.strip()
    if not spec:
        raise _unknown_spec_error(spec, "<empty>", "empty spec")
    prefix, sep, _ = spec.partition(":")
    if sep:
        info = _REGISTRY.get(prefix)
        if info is None:
            raise _unknown_spec_error(
                spec, f"prefix {prefix!r}", f"no source is registered for prefix {prefix!r}"
            )
        return info.factory(spec)
    # Bare name: back-compat alias for built-in electronic cases.
    info = _REGISTRY.get(_BARE_PREFIX)
    if info is None:  # pragma: no cover - builtin registration is unconditional
        raise _unknown_spec_error(spec, "bare electronic name", "no electronic resolver")
    try:
        return info.factory(f"{_BARE_PREFIX}:{spec}")
    except ValueError as exc:
        raise _unknown_spec_error(
            spec,
            "bare electronic name",
            f"{exc}; prefix-less specs must name a built-in electronic case",
        ) from exc


def canonical_spec(spec: str) -> str:
    """The canonical form of ``spec`` (alias-free, parameters normalized).

    Two specs naming the same Hamiltonian canonicalize identically — e.g.
    ``H2_sto3g`` and ``electronic:H2_sto3g`` — which is what lets the serve
    layer coalesce them onto one in-flight compile.
    """
    return resolve(spec).spec


def build_case(spec: str | HamiltonianSource) -> FermionOperator:
    """Resolve ``spec`` (unless it already is a source) and build its operator."""
    source = spec if isinstance(spec, HamiltonianSource) else resolve(spec)
    return source.build()


def source_catalog() -> list[dict]:
    """Machine-readable registry listing for ``repro cases --json``."""
    return [
        {
            "prefix": info.prefix,
            "description": info.description,
            "grammar": info.grammar,
            "examples": list(info.examples),
            "file_backed": info.file_backed,
        }
        for _, info in sorted(_REGISTRY.items())
    ]
