"""Canonical Hamiltonian/mapping fingerprints (compilation-service cache keys).

A HATT compile is a pure function of the *physics* — the Hamiltonian's
Majorana form, the basis HATT's Algorithms 1–3 select over — and of the
mapping configuration (mapping kind, vacuum pairing, mode count).  Everything
else (term insertion order, ladder-operator ordering, floating point dust
below tolerance) must NOT change the result, so it must not change the cache
key either.  This module produces a hex SHA-256 digest with exactly those
invariances:

* **canonical** — the terms are read from the operator's memoized
  :func:`~repro.fermion.majorana.majorana_form`.  Majorana monomials form a
  basis, so any two representations of one operator (insertion order,
  normal-ordered or not, fermion or Majorana form) reach the same rows, and
  the rows are lexsorted before hashing;
* **coefficient-tolerant** — coefficients are snapped to the grid of ``tol``
  (default ``1e-12``, the algebra's own coefficient tolerance) and terms
  whose real and imaginary parts both snap to zero are dropped, so
  accumulation dust cannot fork the key; a non-finite coefficient raises
  ``ValueError``;
* **engine-free** — a spec names no construction engine: the package has
  one, and its scalar oracle in ``tests/reference/`` builds bit-identical
  trees (the property suite enforces this);
* **process-stable** — the digest is SHA-256 over little-endian arrays and a
  canonical JSON document, never Python's salted ``hash()``, so keys agree
  across interpreter runs and machines.

Static (Hamiltonian-independent) mappings — JW/BK/BTT/parity — are keyed on
``(kind, n_modes)`` alone: the same JW table serves every 8-mode problem, so
every 8-mode problem should hit the same artifact.

The architecture-adaptive ``hatt-arch`` kind additionally keys on the
coupling-graph name and the (grid-quantized) ``arch_weight`` blend: the same
Hamiltonian compiled against two different architectures yields two distinct
trees, so it must yield two distinct ``mappings/v1`` entries.

Fingerprinting a ``FermionOperator`` converts it, once: the Majorana form is
the memo that HATT construction and mapping apply read too, so a cold
request converts one time in all.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from ..circuits.architectures import ARCHITECTURE_NAMES
from ..fermion import FermionOperator, MajoranaOperator
from ..fermion.majorana import majorana_form
from ..hatt.construction import ARCH_WEIGHT_SCALE, DEFAULT_ARCH_WEIGHT
from ..paulis.table import DUST_TOLERANCE

__all__ = [
    "MappingSpec",
    "MAPPING_KINDS",
    "STATIC_KINDS",
    "ADAPTIVE_KINDS",
    "DEFAULT_TOLERANCE",
    "FINGERPRINT_SCHEMA",
    "fingerprint_operator",
    "fingerprint_request",
]

#: Bump when the canonical payload layout changes (old cache entries become
#: unreachable rather than silently wrong).
FINGERPRINT_SCHEMA = 2

#: Coefficient quantization grid: the algebra's own dust tolerance, so
#: "physically identical" and "hash-identical" agree.
DEFAULT_TOLERANCE = DUST_TOLERANCE

#: Mapping kinds whose output depends only on the mode count.
STATIC_KINDS = frozenset({"jw", "bk", "btt", "parity"})

#: Mapping kinds whose output depends on the Hamiltonian's term content.
ADAPTIVE_KINDS = frozenset({"hatt", "hatt-unopt", "hatt-arch"})

#: All compile-able mapping kinds, in CLI display order.
MAPPING_KINDS = ("jw", "bk", "btt", "parity", "hatt", "hatt-unopt", "hatt-arch")


@dataclass(frozen=True)
class MappingSpec:
    """A compile request's configuration half (the Hamiltonian is the other).

    Every field is cache-key material: ``kind``/``n_modes``, plus ``arch``
    and the quantized ``arch_weight`` for the architecture-adaptive
    ``hatt-arch`` kind.  ``n_modes=None`` means "infer from the
    Hamiltonian" — call :meth:`resolve` before fingerprinting or compiling.
    """

    kind: str
    n_modes: int | None = None
    arch: str | None = None
    arch_weight: float | None = None

    def __post_init__(self):
        if self.kind not in MAPPING_KINDS:
            raise ValueError(
                f"unknown mapping kind {self.kind!r}; expected one of {MAPPING_KINDS}"
            )
        if self.kind == "hatt-arch":
            if self.arch not in ARCHITECTURE_NAMES:
                raise ValueError(
                    f"hatt-arch needs arch from {ARCHITECTURE_NAMES}, "
                    f"got {self.arch!r}"
                )
            if self.arch_weight is not None:
                aw = float(self.arch_weight)
                if not math.isfinite(aw) or aw < 0:
                    raise ValueError(
                        f"arch_weight must be finite and >= 0, got {self.arch_weight!r}"
                    )
        elif self.arch is not None or self.arch_weight is not None:
            raise ValueError(f"arch/arch_weight only apply to hatt-arch, not {self.kind!r}")

    @property
    def vacuum(self) -> bool:
        return self.kind != "hatt-unopt"

    @property
    def hamiltonian_dependent(self) -> bool:
        return self.kind in ADAPTIVE_KINDS

    def resolve(self, hamiltonian: FermionOperator | MajoranaOperator) -> "MappingSpec":
        """Pin ``n_modes`` against a concrete Hamiltonian."""
        if self.n_modes is not None:
            return self
        return replace(self, n_modes=hamiltonian.n_modes)


def _terms_digest(op: FermionOperator | MajoranaOperator, tol: float) -> str:
    """Hex SHA-256 of ``majorana_form(op)``'s grid-snapped content.

    Each coefficient's parts snap to the float64 grid ``rint(c / tol)``
    (``+ 0.0`` folds ``-0.0`` into ``0.0``); rows whose parts both snap to
    zero are dropped, trailing all-zero mask words are trimmed (so the word
    count depends only on content), and the rows are lexsorted before the
    word count, masks and grids are hashed as little-endian bytes.
    Memoized as ``(tol, hex)`` on the Majorana form's ``_fingerprint_cache``,
    which every mutation clears.
    """
    form = majorana_form(op)
    cached = form._fingerprint_cache
    if cached is not None and cached[0] == tol:
        return cached[1]
    masks, coeffs = form.bitmasks()
    with np.errstate(over="ignore", invalid="ignore"):
        re_grid = np.rint(coeffs.real / tol) + 0.0
        im_grid = np.rint(coeffs.imag / tol) + 0.0
    if not (np.isfinite(re_grid).all() and np.isfinite(im_grid).all()):
        raise ValueError(
            f"cannot fingerprint non-finite coefficients (on the {tol!r} grid)"
        )
    keep = (re_grid != 0) | (im_grid != 0)
    masks, re_grid, im_grid = masks[keep], re_grid[keep], im_grid[keep]
    used = np.flatnonzero(masks.any(axis=0))
    n_words = int(used[-1]) + 1 if used.size else 0
    masks = masks[:, :n_words]
    # Monomials are distinct, so their masks alone order the rows.
    order = np.lexsort(masks.T[::-1]) if n_words else np.arange(len(masks))
    digest = hashlib.sha256(np.int64(n_words).astype("<i8").tobytes())
    digest.update(masks[order].astype("<u8").tobytes())
    digest.update(re_grid[order].astype("<f8").tobytes())
    digest.update(im_grid[order].astype("<f8").tobytes())
    hexdigest = digest.hexdigest()
    form._fingerprint_cache = (tol, hexdigest)
    return hexdigest


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def fingerprint_operator(
    op: FermionOperator | MajoranaOperator, tol: float = DEFAULT_TOLERANCE
) -> str:
    """Content hash of a Hamiltonian alone (no mapping config).

    A ``FermionOperator`` and its Majorana form share this key.
    """
    return _digest(
        {
            "fp_schema": FINGERPRINT_SCHEMA,
            "tol": repr(tol),
            "terms": _terms_digest(op, tol),
        }
    )


def _request_payload(spec: MappingSpec) -> dict:
    """The config half of a request payload (``spec`` must be resolved)."""
    payload: dict = {
        "fp_schema": FINGERPRINT_SCHEMA,
        "config": {
            "kind": spec.kind,
            "n_modes": spec.n_modes,
            "vacuum": spec.vacuum,
        },
    }
    if spec.kind == "hatt-arch":
        # The arch and the effective (quantized) blend are result-changing
        # config; the construction rounds arch_weight to the same grid, so
        # float dust inside one grid cell cannot fork the key.
        aw = DEFAULT_ARCH_WEIGHT if spec.arch_weight is None else float(spec.arch_weight)
        payload["config"]["arch"] = spec.arch
        payload["config"]["arch_weight_q"] = int(round(aw * ARCH_WEIGHT_SCALE))
    return payload


def fingerprint_request(
    hamiltonian: FermionOperator | MajoranaOperator,
    spec: MappingSpec,
    tol: float = DEFAULT_TOLERANCE,
) -> str:
    """Cache key of one compile request: Hamiltonian content × mapping config.

    Static kinds omit the term payload entirely (see module docstring), so
    e.g. every 8-mode problem shares one ``jw`` artifact.
    """
    spec = spec.resolve(hamiltonian)
    payload = _request_payload(spec)
    if spec.hamiltonian_dependent:
        payload["tol"] = repr(tol)
        payload["terms"] = _terms_digest(hamiltonian, tol)
    return _digest(payload)
