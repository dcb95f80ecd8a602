"""File-backed sources: ``.npz`` operator archives and FCIDUMP integrals.

Both round-trip **bit-exactly**: saving a Hamiltonian and resolving the
file through the registry yields the same content fingerprint as the
in-memory operator, so file-backed compiles hit the same service-cache
entries as generator-backed ones.  That exactness drives two design
choices below:

- ``.npz`` stores the raw term arrays (modes, daggers, float64
  coefficients) in operator insertion order — rebuild is the identical
  ``add_term`` sequence.
- The FCIDUMP writer only compacts a symmetry orbit to one line when all
  its images are **bitwise equal**; otherwise every distinct index tuple
  is written explicitly, and the reader fills symmetric images only for
  indices the file did not set.  Real MO tensors are symmetric to ~1e-16,
  not bitwise, and a silent symmetrization could flip a coefficient
  across the fingerprint quantization grid.

Both opt in to :meth:`~repro.sources.HamiltonianSource.identity` with the
SHA-256 of the file's bytes next to the spec, so a file rewritten in place
names new content.  Hashing the bytes is far cheaper than parsing them.  A
source reads its file once and hashes and parses those same bytes, so its
identity always names the operator it builds, even if the file changes
between the two.
"""

from __future__ import annotations

import hashlib
import io
from pathlib import Path
from typing import Iterator

import numpy as np

from ..fermion import FermionOperator
from ..models.electronic import fermion_hamiltonian_from_integrals
from .base import HamiltonianSource
from .registry import register_source

__all__ = [
    "save_npz",
    "load_npz",
    "read_fcidump",
    "write_fcidump",
    "NpzSource",
    "FcidumpSource",
]

_NPZ_SCHEMA = 1


class _FileSnapshot:
    """The file's bytes, read once per source (see the module docstring)."""

    path: Path
    _data: bytes | None = None
    _sha256: str | None = None

    def _bytes(self) -> bytes:
        if self._data is None:
            self._data = self.path.read_bytes()
            self._sha256 = hashlib.sha256(self._data).hexdigest()
        return self._data

    def identity(self) -> tuple | None:
        base = super().identity()
        if base is None:
            return None
        self._bytes()
        return (*base, self._sha256)


# ----------------------------------------------------------------------
# .npz operator archives
# ----------------------------------------------------------------------
def save_npz(path: str | Path, op: FermionOperator) -> None:
    """Save an operator's terms to a compressed ``.npz`` archive."""
    lengths, modes, daggers, re_parts, im_parts = [], [], [], [], []
    for term, coeff in op.terms():
        lengths.append(len(term))
        for mode, dagger in term:
            modes.append(mode)
            daggers.append(1 if dagger else 0)
        c = complex(coeff)
        re_parts.append(c.real)
        im_parts.append(c.imag)
    np.savez_compressed(
        Path(path),
        schema=np.int64(_NPZ_SCHEMA),
        n_modes=np.int64(op.n_modes),
        lengths=np.asarray(lengths, dtype=np.int64),
        modes=np.asarray(modes, dtype=np.int64),
        daggers=np.asarray(daggers, dtype=np.uint8),
        coeff_re=np.asarray(re_parts, dtype=np.float64),
        coeff_im=np.asarray(im_parts, dtype=np.float64),
    )


def _npz_arrays(raw: bytes, path) -> dict:
    with np.load(io.BytesIO(raw)) as data:
        if "schema" not in data or int(data["schema"]) != _NPZ_SCHEMA:
            raise ValueError(
                f"{path} is not a repro operator archive "
                f"(expected schema={_NPZ_SCHEMA})"
            )
        return {key: data[key] for key in data.files}


def _iter_npz_terms(arrays: dict) -> Iterator[tuple[tuple, complex]]:
    lengths = arrays["lengths"]
    modes = arrays["modes"]
    daggers = arrays["daggers"]
    re_parts = arrays["coeff_re"]
    im_parts = arrays["coeff_im"]
    offset = 0
    for idx in range(len(lengths)):
        length = int(lengths[idx])
        term = tuple(
            (int(modes[offset + k]), bool(daggers[offset + k])) for k in range(length)
        )
        offset += length
        yield term, complex(float(re_parts[idx]), float(im_parts[idx]))


def load_npz(path: str | Path) -> FermionOperator:
    """Rebuild an operator saved by :func:`save_npz` (bit-exact)."""
    op = FermionOperator()
    for term, coeff in _iter_npz_terms(_npz_arrays(Path(path).read_bytes(), path)):
        op.add_term(term, coeff)
    return op


class NpzSource(_FileSnapshot, HamiltonianSource):
    """``npz:<path>`` — a Hamiltonian archived by :func:`save_npz`."""

    family = "npz"
    file_backed = True
    identity_version = 1

    def __init__(self, spec: str):
        path = spec.partition(":")[2].strip()
        if not path:
            raise ValueError(f"npz spec {spec!r} is missing a file path")
        self.path = Path(path)
        if not self.path.is_file():
            raise ValueError(f"npz source file not found: {self.path}")
        self._arrays: dict | None = None
        super().__init__(f"npz:{path}")

    def _load(self) -> dict:
        if self._arrays is None:
            self._arrays = _npz_arrays(self._bytes(), self.path)
        return self._arrays

    @property
    def n_modes(self) -> int:
        return int(self._load()["n_modes"])

    def _build(self) -> FermionOperator:
        op = FermionOperator()
        for term, coeff in _iter_npz_terms(self._load()):
            op.add_term(term, coeff)
        return op

    def describe(self) -> dict:
        doc = super().describe()
        doc["path"] = str(self.path)
        doc["n_terms"] = int(len(self._load()["lengths"]))
        return doc


# ----------------------------------------------------------------------
# FCIDUMP integral files
# ----------------------------------------------------------------------
def _orbit_two_body(p: int, q: int, r: int, s: int) -> set[tuple[int, int, int, int]]:
    """8-fold permutation orbit of a chemist-notation (pq|rs) index."""
    return {
        (p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
        (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p),
    }


def write_fcidump(
    path: str | Path,
    h: np.ndarray,
    eri: np.ndarray,
    core_energy: float = 0.0,
    n_electrons: int = 0,
    ms2: int = 0,
) -> None:
    """Write spatial MO integrals in FCIDUMP format (1-based indices).

    Values are written with ``repr`` so every float round-trips exactly;
    see the module docstring for the symmetry-compaction rule.
    """
    h = np.asarray(h, dtype=np.float64)
    eri = np.asarray(eri, dtype=np.float64)
    norb = h.shape[0]
    lines = [
        f"&FCI NORB={norb},NELEC={n_electrons},MS2={ms2},",
        " ORBSYM=" + ",".join(["1"] * norb) + ",",
        " ISYM=1,",
        "&END",
    ]
    seen: set[tuple[int, int, int, int]] = set()
    for p in range(norb):
        for q in range(norb):
            for r in range(norb):
                for s in range(norb):
                    if (p, q, r, s) in seen:
                        continue
                    orbit = _orbit_two_body(p, q, r, s)
                    seen.update(orbit)
                    values = {float(eri[i]) for i in orbit}
                    if values == {0.0}:
                        continue
                    if len(values) == 1:
                        targets = [(p, q, r, s)]
                    else:
                        # Non-uniform orbit: every image (zeros included) is
                        # written explicitly so the reader's symmetry fill
                        # cannot clobber any of them.
                        targets = sorted(orbit)
                    for i, j, k, l in targets:
                        lines.append(
                            f"{float(eri[i, j, k, l])!r} {i + 1} {j + 1} {k + 1} {l + 1}"
                        )
    seen1: set[tuple[int, int]] = set()
    for p in range(norb):
        for q in range(norb):
            if (p, q) in seen1:
                continue
            orbit1 = {(p, q), (q, p)}
            seen1.update(orbit1)
            values = {float(h[i]) for i in orbit1}
            if values == {0.0}:
                continue
            targets1 = [(p, q)] if len(values) == 1 else sorted(orbit1)
            for i, j in targets1:
                lines.append(f"{float(h[i, j])!r} {i + 1} {j + 1} 0 0")
    lines.append(f"{float(core_energy)!r} 0 0 0 0")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_fcidump(path: str | Path):
    """Read an FCIDUMP file → ``(h, eri, core_energy, n_electrons, ms2)``.

    Symmetric images are filled only for indices the file did not set
    explicitly, so files written by :func:`write_fcidump` reconstruct the
    original tensors bitwise while standard symmetry-compacted files from
    other programs still expand correctly.
    """
    return _parse_fcidump(Path(path).read_text(encoding="utf-8"), path)


def _parse_fcidump(text: str, path):
    header, body = _split_fcidump(text, path)
    norb = int(_header_field(header, "NORB"))
    n_electrons = int(_header_field(header, "NELEC", "0"))
    ms2 = int(_header_field(header, "MS2", "0"))
    h = np.zeros((norb, norb))
    eri = np.zeros((norb, norb, norb, norb))
    h_set: set[tuple[int, int]] = set()
    eri_set: set[tuple[int, int, int, int]] = set()
    core_energy = 0.0
    for token_line in body:
        parts = token_line.split()
        if len(parts) != 5:
            raise ValueError(f"malformed FCIDUMP line in {path}: {token_line!r}")
        value = float(parts[0].replace("D", "e").replace("d", "e"))
        i, j, k, l = (int(x) for x in parts[1:])
        if i == j == k == l == 0:
            core_energy = value
        elif k == 0 and l == 0:
            h[i - 1, j - 1] = value
            h_set.add((i - 1, j - 1))
        else:
            eri[i - 1, j - 1, k - 1, l - 1] = value
            eri_set.add((i - 1, j - 1, k - 1, l - 1))
    for p, q in list(h_set):
        if (q, p) not in h_set:
            h[q, p] = h[p, q]
    for p, q, r, s in list(eri_set):
        for image in _orbit_two_body(p, q, r, s):
            if image not in eri_set:
                eri[image] = eri[p, q, r, s]
    return h, eri, core_energy, n_electrons, ms2


def _split_fcidump(text: str, path) -> tuple[str, list[str]]:
    """Split the namelist header from the value lines."""
    upper = text.upper()
    for marker in ("&END", "/"):
        pos = upper.find(marker)
        if pos >= 0:
            header = text[:pos]
            body = [ln.strip() for ln in text[pos + len(marker):].splitlines()]
            return header, [ln for ln in body if ln]
    raise ValueError(f"{path} has no FCIDUMP namelist terminator (&END or /)")


def _header_field(header: str, name: str, default: str | None = None) -> str:
    import re as _re

    m = _re.search(rf"{name}\s*=\s*([-\d]+)", header, _re.IGNORECASE)
    if m:
        return m.group(1)
    if default is None:
        raise ValueError(f"FCIDUMP header is missing {name}=")
    return default


class FcidumpSource(_FileSnapshot, HamiltonianSource):
    """``fcidump:<path>`` — external integral files, second-quantized on load.

    Uses the same :func:`fermion_hamiltonian_from_integrals` as the
    built-in chemistry cases, so an FCIDUMP dumped from a built-in case
    fingerprints identically to the case itself.
    """

    family = "fcidump"
    file_backed = True
    identity_version = 1

    def __init__(self, spec: str):
        path = spec.partition(":")[2].strip()
        if not path:
            raise ValueError(f"fcidump spec {spec!r} is missing a file path")
        self.path = Path(path)
        if not self.path.is_file():
            raise ValueError(f"fcidump source file not found: {self.path}")
        self._norb: int | None = None
        super().__init__(f"fcidump:{path}")

    @property
    def n_modes(self) -> int:
        if self._norb is None:
            # Header-only parse: the mode count never needs the integral body.
            header, _ = _split_fcidump(self._text(), self.path)
            self._norb = int(_header_field(header, "NORB"))
        return 2 * self._norb

    def _build(self) -> FermionOperator:
        h, eri, core_energy, _, _ = _parse_fcidump(self._text(), self.path)
        self._norb = h.shape[0]
        return fermion_hamiltonian_from_integrals(h, eri, core_energy)

    def _text(self) -> str:
        return self._bytes().decode("utf-8")

    def describe(self) -> dict:
        doc = super().describe()
        doc["path"] = str(self.path)
        return doc


def _register_files() -> None:
    register_source(
        "npz",
        NpzSource,
        description="operator archive written by repro.sources.save_npz",
        grammar="npz:<path>",
        examples=("npz:models/h2o.npz",),
        file_backed=True,
    )
    register_source(
        "fcidump",
        FcidumpSource,
        description="external FCIDUMP integral file, second-quantized on load",
        grammar="fcidump:<path>",
        examples=("fcidump:integrals/h2.fcid",),
        file_backed=True,
    )


_register_files()
