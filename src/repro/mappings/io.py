"""Mapping serialization.

Compiled mappings are artifacts worth persisting (a HATT compile for a large
molecule takes minutes); this module round-trips them through a stable JSON
schema keyed by compact Pauli labels.

Schema history
--------------
* **v1** — name, mode/qubit counts, Majorana strings + phases, discarded
  string.  Still loadable.
* **v2** (current) — adds two optional fields:

  - ``tree``: the ternary-tree topology as per-qubit ``children_uids``
    triples (see :func:`~repro.mappings.tree.tree_from_uid_arrays`), so a
    loaded HATT mapping keeps its tree — serialized artifacts stay
    inspectable and re-deriving vacuum pairings needs no recompile;
  - ``provenance``: compile metadata written by the compilation service:
    ``fingerprint``, ``kind``, ``n_modes``, ``vacuum``, ``compile_seconds``,
    ``repro_version``, ``created_at``, ``arch``/``arch_weight`` (``hatt-arch``)
    and ``trace_id`` when traced.  Since 1.6.0, Hamiltonian-keyed kinds
    (``hatt``, ``hatt-unopt``, ``hatt-arch``) also record ``pauli_weight`` and
    ``mapped_terms``, the total Pauli weight and term count of the mapped
    Hamiltonian, which a warm ``map`` serves instead of mapping again.
    Static kinds never carry them: one static artifact serves every
    Hamiltonian of its mode count.  The store rejects a loaded document
    whose strings fail ``FermionQubitMapping.check`` or whose counts are not
    non-negative ints.

Writers always emit v2; both versions load.  A v2 document whose embedded
tree disagrees with its string list is rejected (``ValueError``), which the
service-layer store treats as corruption.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..paulis import PauliString
from .base import FermionQubitMapping
from .tree import children_uid_triples, tree_from_uid_arrays

__all__ = ["mapping_to_dict", "mapping_from_dict", "save_mapping", "load_mapping"]

_SCHEMA_VERSION = 2
_LOADABLE_SCHEMAS = (1, 2)


def mapping_to_dict(
    mapping: FermionQubitMapping, provenance: dict | None = None
) -> dict:
    """Serialize a mapping (plus its tree and provenance, when present).

    ``provenance`` overrides any ``mapping.provenance`` attached by a
    previous load; pass ``None`` to carry the existing one through.
    """
    tree = getattr(mapping, "tree", None)
    if tree is not None:
        # Only embed a topology that regenerates the stored strings in leaf
        # order (the HATT convention); a tree whose Majorana assignment comes
        # from vacuum pairing instead would fail the load-time consistency
        # check, so it is carried by the strings alone.
        try:
            _check_tree_matches_strings(tree, mapping)
        except ValueError:
            tree = None
    if provenance is None:
        provenance = getattr(mapping, "provenance", None)
    return {
        "schema": _SCHEMA_VERSION,
        "name": mapping.name,
        "n_modes": mapping.n_modes,
        "n_qubits": mapping.n_qubits,
        "majorana_strings": [s.compact() for s in mapping.strings],
        "phases": [s.phase for s in mapping.strings],
        "discarded": mapping.discarded.compact() if mapping.discarded else None,
        "tree": (
            {"children_uids": [list(t) for t in children_uid_triples(tree)]}
            if tree is not None
            else None
        ),
        "provenance": provenance,
    }


def mapping_from_dict(data: dict) -> FermionQubitMapping:
    schema = data.get("schema")
    if schema not in _LOADABLE_SCHEMAS:
        raise ValueError(f"unsupported mapping schema {schema!r}")
    n = data["n_qubits"]
    strings = [
        PauliString.from_compact(label, n, phase=phase)
        for label, phase in zip(data["majorana_strings"], data["phases"])
    ]
    discarded = (
        PauliString.from_compact(data["discarded"], n)
        if data.get("discarded")
        else None
    )
    mapping = FermionQubitMapping(strings, name=data["name"], discarded=discarded)
    if mapping.n_modes != data["n_modes"]:
        raise ValueError("inconsistent mode count in serialized mapping")
    if schema >= 2:
        tree_doc = data.get("tree")
        if tree_doc is not None:
            tree = tree_from_uid_arrays(
                tree_doc["children_uids"], mapping.n_modes
            )
            tree.validate()
            _check_tree_matches_strings(tree, mapping)
            mapping.tree = tree
        prov = data.get("provenance")
        if prov is not None:
            if not isinstance(prov, dict):
                raise ValueError("provenance must be a JSON object")
            mapping.provenance = prov
    return mapping


def _check_tree_matches_strings(tree, mapping: FermionQubitMapping) -> None:
    """The embedded topology must regenerate the stored strings (mod phase)."""
    derived = tree.strings_by_leaf_index()
    stored = list(mapping.strings) + (
        [mapping.discarded] if mapping.discarded is not None else []
    )
    if len(derived) != len(stored) or any(
        d.x != s.x or d.z != s.z for d, s in zip(derived, stored)
    ):
        raise ValueError("embedded tree is inconsistent with the Majorana strings")


def save_mapping(
    mapping: FermionQubitMapping,
    path: str | Path,
    provenance: dict | None = None,
) -> None:
    Path(path).write_text(
        json.dumps(mapping_to_dict(mapping, provenance=provenance), indent=2)
    )


def load_mapping(path: str | Path) -> FermionQubitMapping:
    return mapping_from_dict(json.loads(Path(path).read_text()))
