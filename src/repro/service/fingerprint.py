"""Canonical Hamiltonian/mapping fingerprints (compilation-service cache keys).

A HATT compile is a pure function of the *physics* — the Hamiltonian's
normal-ordered term content — and of the mapping configuration (mapping kind,
vacuum pairing, mode count).  Everything else (term insertion order, floating
point dust below tolerance) must NOT change the result, so it must not
change the cache key either.  This module produces a hex SHA-256 digest with exactly
those invariances:

* **order-invariant** — terms are canonically sorted before hashing, so two
  operators built by adding the same terms in different orders collide;
* **coefficient-tolerant** — coefficients are snapped to an integer grid of
  ``tol`` (default ``1e-12``, the algebra's own coefficient tolerance) and
  terms whose real and imaginary parts both snap to zero are dropped, so
  accumulation dust cannot fork the key;
* **engine-free** — a spec names no construction engine: the package has
  one, and its scalar oracle in ``tests/reference/`` builds bit-identical
  trees (the property suite enforces this);
* **process-stable** — the digest is SHA-256 over a canonical JSON document,
  never Python's salted ``hash()``, so keys agree across interpreter runs
  and machines.

Static (Hamiltonian-independent) mappings — JW/BK/BTT/parity — are keyed on
``(kind, n_modes)`` alone: the same JW table serves every 8-mode problem, so
every 8-mode problem should hit the same artifact.

The architecture-adaptive ``hatt-arch`` kind additionally keys on the
coupling-graph name and the (grid-quantized) ``arch_weight`` blend: the same
Hamiltonian compiled against two different architectures yields two distinct
trees, so it must yield two distinct ``mappings/v1`` entries.

A ``FermionOperator``'s lines come from a NumPy kernel (:func:`_fermion_lines`)
that equals ``sorted(op.normal_order().terms())`` quantized line by line,
string for string; that comprehension is the oracle in
``tests/test_service.py``, next to golden digests of four real Hamiltonians.
Terms are read into padded rows of modes and dagger bits.  Normal ordering
only compares modes, so each term's *pattern* (length, dagger bits and the
dense rank of each mode) fixes its rewrite; each distinct pattern goes
through the operator's own ``_normal_order_fast`` / ``_normal_order_term``
once and its products are gathered for every term that shares it.  Equal
monomials are found with one lexsort on codes ``2·mode + dagger`` padded
below every code (so row order is tuple order) and summed in term order with
``add_term``'s rule: a running total within ``1e-12`` is dropped and a later
product restarts it.  The streamed path (:func:`canonical_lines_stream`)
keeps the per-term rewrite, since it never holds the operator.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import tempfile
from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from ..circuits.architectures import ARCHITECTURE_NAMES
from ..fermion import FermionOperator, MajoranaOperator
from ..fermion.operators import (
    _COEFF_TOLERANCE,
    _normal_order_fast,
    _normal_order_term,
)
from ..hatt.construction import ARCH_WEIGHT_SCALE, DEFAULT_ARCH_WEIGHT

__all__ = [
    "MappingSpec",
    "MAPPING_KINDS",
    "STATIC_KINDS",
    "ADAPTIVE_KINDS",
    "DEFAULT_TOLERANCE",
    "DEFAULT_SPILL_AT",
    "FINGERPRINT_SCHEMA",
    "canonical_terms",
    "fingerprint_operator",
    "fingerprint_request",
    "fingerprint_stream",
    "fingerprint_request_stream",
]

#: Bump when the canonical payload layout changes (old cache entries become
#: unreachable rather than silently wrong).
FINGERPRINT_SCHEMA = 1

#: Coefficient quantization grid; matches the operator algebra's own
#: ``_COEFF_TOLERANCE`` so "physically identical" and "hash-identical" agree.
DEFAULT_TOLERANCE = 1e-12

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


def _quantize(value: float, tol: float) -> int:
    """Snap one float to the integer grid ``value / tol``.

    Integer grid coordinates serialize exactly (no float repr ambiguity) and
    ``round`` half-to-even is deterministic across processes.  ``-0.0``
    rounds to the integer ``0``, collapsing the two float zeros.
    """
    return round(value / tol)


def canonical_terms(
    op: FermionOperator | MajoranaOperator, tol: float = DEFAULT_TOLERANCE
) -> list[str]:
    """Order-canonical, tolerance-quantized term lines for hashing.

    ``FermionOperator`` input is normal-ordered first (exact CAR algebra), so
    any two representations of the same physical operator reach the same
    monomial basis; ``MajoranaOperator`` monomials are already canonical by
    construction.  Terms are sorted by monomial key and coefficients are
    grid-quantized; terms quantizing to exactly zero are dropped.

    Each entry is one compact line, ``"<key>:<re_grid>:<im_grid>"`` with key
    ``"3^ 0_"`` (``^`` creation, ``_`` annihilation) for ladder monomials or
    ``"0 3 5"`` for Majorana index sets — a flat string form, because this
    sits on the warm-cache hot path where nested-JSON encoding cost is
    measurable.

    The result is memoized on the operator (``_fingerprint_cache``, cleared
    by every mutation path, same contract as ``MajoranaOperator._packed``),
    so a service holding a Hamiltonian pays canonicalization once however
    many get-or-compile calls it routes.
    """
    cached = op._fingerprint_cache
    if cached is not None and cached[0] == tol:
        return cached[1]
    if isinstance(op, FermionOperator):
        lines = _fermion_lines(op, tol)
    elif isinstance(op, MajoranaOperator):
        lines = [
            line
            for term, coeff in sorted((tuple(t), c) for t, c in op.terms())
            if (line := _term_line(" ".join(map(str, term)), coeff, tol)) is not None
        ]
    else:
        raise TypeError(f"cannot fingerprint object of type {type(op).__name__}")
    op._fingerprint_cache = (tol, lines)
    return lines


def _fermion_lines(op: FermionOperator, tol: float) -> list[str]:
    """Canonical lines of a ``FermionOperator``: the NumPy kernel.

    Equals ``[_term_line(key, c, tol) for term, c in
    sorted(op.normal_order().terms())]`` with zero lines dropped, string for
    string; ``tests/test_service.py`` keeps that comprehension as the oracle.
    Terms are normal-ordered one pattern at a time (:func:`_normal_order`),
    equal monomials are summed in term order with ``add_term``'s drop rule
    (:func:`_merge`), and the survivors are quantized and formatted
    (:func:`_format_lines`).
    """
    terms = op._terms
    if not terms:
        return []
    keys = list(terms)
    coeffs = np.fromiter(terms.values(), dtype=complex, count=len(keys))
    lengths = np.fromiter(map(len, keys), dtype=np.intp, count=len(keys))
    flat = np.fromiter(
        chain.from_iterable(chain.from_iterable(keys)),
        dtype=np.int64,
        count=2 * int(lengths.sum()),
    )
    # Terms as rows of modes and dagger bits, padded after their last action.
    live = np.arange(lengths.max()) < lengths[:, None]
    modes = np.zeros(live.shape, dtype=np.int64)
    daggers = np.zeros(live.shape, dtype=np.int64)
    modes[live], daggers[live] = flat[0::2], flat[1::2]
    # Padding sorts below every code, so row order on the padded codes is
    # tuple order on the terms (a shorter prefix first).
    pad = min(0, 2 * int(modes.min(initial=0))) - 1
    codes, rows, subs, signs = _normal_order(modes, daggers, live, pad)
    values = np.where(signs < 0, -coeffs[rows], coeffs[rows])
    codes, totals = _merge(codes, rows, subs, values)
    return _format_lines(codes, totals, pad, tol)


def _normal_order(m, d, live, pad: int):
    """Normal-order every term, one *pattern* at a time.

    A term's pattern is its length, its dagger bits and the dense rank of
    each mode among the term's distinct modes.  Normal ordering only
    compares modes, so the pattern fixes the result: which actions survive,
    in which order, with which sign.  Each pattern is rewritten once by the
    operator's own ``_normal_order_fast`` (contraction-free terms: a
    per-block sort whose sign is the inversion parity) or
    ``_normal_order_term``, and the result is applied to all of its terms
    with one gather.

    Returns ``(codes, term_index, product_index, sign)`` per product, codes
    ``2·mode + dagger`` padded with ``pad``.
    """
    n, width = m.shape
    # Dense ranks from one row-wise sort (padding sorts last): few, large
    # NumPy calls, because each one can hand the GIL to another thread.
    order = np.argsort(np.where(live, m, np.iinfo(np.int64).max), axis=1, kind="stable")
    ranked = np.take_along_axis(m, order, axis=1)
    dense = np.zeros((n, width), dtype=np.int64)
    np.cumsum(ranked[:, 1:] != ranked[:, :-1], axis=1, out=dense[:, 1:])
    rank = np.empty_like(dense)
    np.put_along_axis(rank, order, dense, axis=1)
    pattern = np.where(live, 2 * rank + d, -1)
    order = np.lexsort(pattern.T[::-1]) if width else np.arange(n)
    pattern = pattern[order]
    new = np.ones(n, dtype=bool)
    new[1:] = (pattern[1:] != pattern[:-1]).any(axis=1)
    group = np.cumsum(new) - 1
    # Every product of every pattern: source columns (-1 pads), dagger bits.
    sources, bits, subs, signs, n_products = [], [], [], [], []
    for codes in pattern[new].tolist():
        term = tuple((code >> 1, bool(code & 1)) for code in codes if code >= 0)
        column = {}
        for i, (r, _) in enumerate(term):
            column.setdefault(r, i)
        fast = _normal_order_fast(term)
        products = [fast] if fast is not None else _normal_order_term(term, 1)
        for sub, (ordered, sign) in enumerate(products):
            fill = [-1] * (width - len(ordered))
            sources.append([column[r] for r, _ in ordered] + fill)
            bits.append([int(dagger) for _, dagger in ordered] + fill)
            subs.append(sub)
            signs.append(sign)
        n_products.append(len(products))
    n_products = np.array(n_products, dtype=np.intp)
    counts = n_products[group]
    src = np.repeat(order, counts)
    product = np.repeat(np.cumsum(n_products)[group] - counts, counts) + (
        np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
    )
    sources = np.array(sources, dtype=np.intp).reshape(len(subs), width)[product]
    bits = np.array(bits, dtype=np.int64).reshape(len(subs), width)[product]
    codes = 2 * np.take_along_axis(m[src], np.maximum(sources, 0), axis=1) + bits
    codes[sources < 0] = pad
    return codes, src, np.array(subs, dtype=np.intp)[product], np.array(signs)[product]


def _merge(codes, rows, subs, values) -> tuple[np.ndarray, np.ndarray]:
    """Sum equal monomials in term order with ``add_term``'s rule.

    A running total inside tolerance is dropped, so the next product
    restarts from zero; a monomial whose final total is inside tolerance is
    absent.  Returns the surviving padded codes, in tuple order, and their
    totals.
    """
    order = np.lexsort((subs, rows, *codes.T[::-1]))
    codes, values = codes[order], values[order]
    new = np.ones(len(codes), dtype=bool)
    new[1:] = (codes[1:] != codes[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    sizes = np.diff(np.append(starts, len(codes)))
    totals = np.zeros(len(starts), dtype=complex)
    for k in range(int(sizes.max(initial=0))):
        live = np.flatnonzero(sizes > k)
        step = totals[live] + values[starts[live] + k]
        step[np.abs(step) <= _COEFF_TOLERANCE] = 0
        totals[live] = step
    keep = np.abs(totals) > _COEFF_TOLERANCE
    return codes[starts[keep]], totals[keep]


def _format_lines(codes, totals, pad: int, tol: float) -> list[str]:
    """``"<key>:<re_grid>:<im_grid>"`` lines; all-zero grid points dropped."""
    re_grid, im_grid = np.rint(totals.real / tol), np.rint(totals.imag / tol)
    nonzero = (re_grid != 0) | (im_grid != 0)
    codes, re_grid, im_grid = codes[nonzero], re_grid[nonzero], im_grid[nonzero]
    used, inverse = np.unique(codes, return_inverse=True)
    tokens = np.array(
        [f"{c >> 1}{'^' if c & 1 else '_'}" for c in used.tolist()], dtype=object
    )[inverse.reshape(codes.shape)]
    lengths = (codes != pad).sum(axis=1)
    lines = np.empty(len(codes), dtype=object)
    for length in np.unique(lengths).tolist():
        at = np.flatnonzero(lengths == length)
        fmt = " ".join(["%s"] * length) + ":%d:%d"
        lines[at] = [
            fmt % row
            for row in zip(
                *tokens[at, :length].T.tolist(),
                _grid_ints(re_grid[at]),
                _grid_ints(im_grid[at]),
            )
        ]
    return lines.tolist()


def _grid_ints(grid: np.ndarray) -> list[int]:
    """Grid floats as Python ints, exactly as :func:`_quantize`'s ``round``."""
    if np.all(np.abs(grid) < 2.0**62):
        return grid.astype(np.int64).tolist()
    return [int(g) for g in grid.tolist()]  # raises on inf/nan as round() does


def _term_line(key: str, coeff: complex, tol: float) -> str | None:
    coeff = complex(coeff)
    re, im = _quantize(coeff.real, tol), _quantize(coeff.imag, tol)
    if re == 0 and im == 0:
        return None
    return f"{key}:{re}:{im}"


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def fingerprint_operator(
    op: FermionOperator | MajoranaOperator, tol: float = DEFAULT_TOLERANCE
) -> str:
    """Content hash of a Hamiltonian alone (no mapping config)."""
    form = "fermion" if isinstance(op, FermionOperator) else "majorana"
    return _digest(
        {
            "fp_schema": FINGERPRINT_SCHEMA,
            "form": form,
            "tol": repr(tol),
            "terms": canonical_terms(op, tol),
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
        payload["form"] = (
            "fermion" if isinstance(hamiltonian, FermionOperator) else "majorana"
        )
        payload["tol"] = repr(tol)
        payload["terms"] = canonical_terms(hamiltonian, tol)
    return _digest(payload)


# ----------------------------------------------------------------------
# Streamed fingerprinting (chunked, bounded memory, bit-identical)
# ----------------------------------------------------------------------
#: Entries buffered in memory before a sorted run spills to a temp file.
#: The default keeps ~tens of MB resident; sources streaming Hamiltonians
#: too large for memory lower it (or callers raise it to stay in RAM).
DEFAULT_SPILL_AT = 1 << 18

#: Run-file field separator: sorts below every character a term key or a
#: fixed-width sort key uses (digits, space, ``^``, ``_``), so comparing
#: composite lines compares ``(sort_key, sequence)`` pairs.
_FIELD_SEP = "\x1f"

#: Placeholder spliced into the JSON payload where the term array goes;
#: cannot collide with any real payload value.
_TERMS_SENTINEL = "\x00terms\x00"


def _fermion_sort_key(term: tuple) -> str:
    """Fixed-width encoding whose string order equals action-tuple order."""
    return "".join(f"{mode:08d}{1 if dagger else 0}" for mode, dagger in term)


def _majorana_sort_key(term: tuple) -> str:
    return "".join(f"{index:08d}" for index in term)


def _iter_entries(
    terms: Iterable[tuple], form: str
) -> Iterator[tuple[str, str, complex]]:
    """Normal-ordered ``(sort_key, key_str, coeff)`` entries of a term stream.

    Fermion monomials are normal-ordered one at a time — normal ordering is
    linear, so per-term rewriting followed by a global merge of equal
    monomials reproduces :meth:`FermionOperator.normal_order` of the sum.
    The per-term rewrite uses the very same ``_normal_order_fast`` /
    ``_normal_order_term`` machinery, so sub-term emission order (and hence
    floating-point accumulation order downstream) matches the in-memory path.
    """
    if form == "fermion":
        for term, coeff in terms:
            term = tuple(term)
            coeff = complex(coeff)
            fast = _normal_order_fast(term)
            if fast is not None:
                ordered, sign = fast
                yield _fermion_sort_key(ordered), _fermion_key(ordered), sign * coeff
            else:
                for ordered, sub_coeff in _normal_order_term(term, coeff):
                    yield _fermion_sort_key(ordered), _fermion_key(ordered), sub_coeff
    elif form == "majorana":
        for term, coeff in terms:
            term = tuple(term)
            yield _majorana_sort_key(term), " ".join(map(str, term)), complex(coeff)
    else:
        raise ValueError(f"unknown operator form {form!r}; expected fermion|majorana")


def _fermion_key(term: tuple) -> str:
    return " ".join(f"{m}{'^' if d else '_'}" for m, d in term)


def _sorted_entry_lines(
    entries: Iterator[tuple[str, str, complex]],
    spill_at: int,
    tmp_dir: str | None,
) -> Iterator[str]:
    """Globally sorted run-file lines via a bounded-memory external sort.

    Each entry becomes one composite line carrying ``(sort_key, sequence,
    key, coeff)``; runs of ``spill_at`` lines are sorted and spilled to
    anonymous temp files, then k-way merged.  The sequence number keeps
    equal-key entries in stream order, so downstream coefficient summation
    is sequential in exactly the order the in-memory accumulator uses.
    """
    runs: list = []
    buf: list[str] = []
    try:
        for seq, (sort_key, key, coeff) in enumerate(entries):
            buf.append(
                f"{sort_key}{_FIELD_SEP}{seq:012d}{_FIELD_SEP}{key}"
                f"{_FIELD_SEP}{coeff.real.hex()}{_FIELD_SEP}{coeff.imag.hex()}"
            )
            if len(buf) >= spill_at:
                buf.sort()
                run = tempfile.TemporaryFile(
                    mode="w+", encoding="utf-8", dir=tmp_dir, prefix="repro-fp-"
                )
                run.write("\n".join(buf))
                run.write("\n")
                run.seek(0)
                runs.append(run)
                buf = []
        buf.sort()
        if not runs:
            yield from buf
        else:
            streams = [(line.rstrip("\n") for line in run) for run in runs]
            yield from heapq.merge(*streams, iter(buf))
    finally:
        for run in runs:
            run.close()


def canonical_lines_stream(
    terms: Iterable[tuple],
    *,
    form: str = "fermion",
    tol: float = DEFAULT_TOLERANCE,
    spill_at: int = DEFAULT_SPILL_AT,
    tmp_dir: str | None = None,
) -> Iterator[str]:
    """Streamed equivalent of :func:`canonical_terms` over ``(term, coeff)``
    pairs — bounded memory via external-sorted runs, equal monomials merged
    by summing coefficients in stream order, then the same drop/quantize
    rules as the in-memory accumulator.
    """
    current_sort_key: str | None = None
    current_key = ""
    total = 0j
    for line in _sorted_entry_lines(_iter_entries(terms, form), spill_at, tmp_dir):
        sort_key, _, key, re_hex, im_hex = line.split(_FIELD_SEP)
        coeff = complex(float.fromhex(re_hex), float.fromhex(im_hex))
        if sort_key != current_sort_key:
            if current_sort_key is not None and abs(total) > _COEFF_TOLERANCE:
                out = _term_line(current_key, total, tol)
                if out is not None:
                    yield out
            current_sort_key, current_key, total = sort_key, key, 0j
        total += coeff
        if abs(total) <= _COEFF_TOLERANCE:
            # Mirror ``add_term``: a running total inside tolerance pops the
            # key, so the next addition restarts from exact zero rather than
            # the sub-tolerance residue.
            total = 0j
    if current_sort_key is not None and abs(total) > _COEFF_TOLERANCE:
        out = _term_line(current_key, total, tol)
        if out is not None:
            yield out


def _stream_digest(payload: dict, lines: Iterable[str]) -> str:
    """SHA-256 of ``payload`` with ``terms`` spliced in lazily.

    Produces byte-for-byte the blob :func:`_digest` hashes for the same
    payload carrying the full term list, without ever materializing it: the
    payload is serialized around a sentinel, and each line is JSON-encoded
    into the hash as it streams past.
    """
    payload = dict(payload)
    payload["terms"] = _TERMS_SENTINEL
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    marker = json.dumps(_TERMS_SENTINEL)
    prefix, _, suffix = blob.partition(marker)
    digest = hashlib.sha256()
    digest.update(prefix.encode("utf-8"))
    digest.update(b"[")
    first = True
    for line in lines:
        if not first:
            digest.update(b",")
        digest.update(json.dumps(line).encode("utf-8"))
        first = False
    digest.update(b"]")
    digest.update(suffix.encode("utf-8"))
    return digest.hexdigest()


def fingerprint_stream(
    terms: Iterable[tuple],
    *,
    form: str = "fermion",
    tol: float = DEFAULT_TOLERANCE,
    spill_at: int = DEFAULT_SPILL_AT,
    tmp_dir: str | None = None,
) -> str:
    """Streamed :func:`fingerprint_operator`: same digest, bounded memory.

    ``terms`` is a flat iterable of ``(term, coeff)`` pairs (a chunked
    source flattens its chunks into this).  The digest is bit-identical to
    ``fingerprint_operator(op)`` for ``op`` the sum of the streamed terms,
    in any stream order — the property suite and every file-backed
    round-trip test enforce this.
    """
    payload = {"fp_schema": FINGERPRINT_SCHEMA, "form": form, "tol": repr(tol)}
    lines = canonical_lines_stream(
        terms, form=form, tol=tol, spill_at=spill_at, tmp_dir=tmp_dir
    )
    return _stream_digest(payload, lines)


def fingerprint_request_stream(
    terms: Iterable[tuple] | None,
    spec: MappingSpec,
    *,
    form: str = "fermion",
    tol: float = DEFAULT_TOLERANCE,
    spill_at: int = DEFAULT_SPILL_AT,
    tmp_dir: str | None = None,
) -> str:
    """Streamed :func:`fingerprint_request` for sources too big to build.

    ``spec.n_modes`` must already be resolved (sources know their mode count
    without materializing terms).  Static kinds never read the stream —
    ``terms`` may be ``None`` for them; adaptive kinds consume it once.
    """
    if spec.n_modes is None:
        raise ValueError(
            "spec.n_modes must be resolved before streamed fingerprinting "
            "(use dataclasses.replace(spec, n_modes=source.n_modes))"
        )
    payload = _request_payload(spec)
    if not spec.hamiltonian_dependent:
        return _digest(payload)
    if terms is None:
        raise ValueError(f"adaptive kind {spec.kind!r} needs a term stream")
    payload["form"] = form
    payload["tol"] = repr(tol)
    lines = canonical_lines_stream(
        terms, form=form, tol=tol, spill_at=spill_at, tmp_dir=tmp_dir
    )
    return _stream_digest(payload, lines)
