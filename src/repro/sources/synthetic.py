"""Synthetic random-ensemble sources (``random:<kind>:<params>``).

Currently one kind: a seeded complex SYK₄ Hamiltonian,

    H = Σ_{p≤q} J_{pq} a†_{i} a†_{j} a_{l} a_{k} (+ h.c.),

over ordered mode pairs ``p=(i<j)``, ``q=(k<l)`` with complex Gaussian
couplings of scale ``J/n^{3/2}`` (real on the diagonal ``p=q``), Hermitian
by construction.  Everything is a pure function of ``(n, seed, j)``, so
the spec alone reproduces the Hamiltonian bit-for-bit in any process.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..fermion import FermionOperator
from ..fermion.operators import _COEFF_TOLERANCE
from .base import HamiltonianSource, format_number, parse_params
from .registry import register_source

__all__ = ["SykSource"]


class SykSource(HamiltonianSource):
    """``random:syk:n=<modes>,seed=<s>[,j=<coupling>]``."""

    family = "random"
    identity_version = 1
    # The terms never live in a file, but like a file's they come from
    # outside process memory: the spec alone regenerates them.
    file_backed = True

    def __init__(self, spec: str):
        body = spec.partition(":")[2]
        kind, sep, tail = body.partition(":")
        if kind.strip() != "syk" or not sep:
            raise ValueError(
                f"unknown random ensemble {kind.strip()!r} in spec {spec!r}; "
                "known ensembles: syk (random:syk:n=<modes>,seed=<s>[,j=<f>])"
            )
        params = parse_params(tail, allowed=("n", "seed", "j"))
        if "n" not in params:
            raise ValueError(f"random:syk spec {spec!r} requires n=<modes>")
        try:
            self.n = int(params["n"])
            self.seed = int(params.get("seed", "0"))
        except ValueError:
            raise ValueError(f"random:syk n= and seed= must be integers in {spec!r}") from None
        if self.n < 4:
            raise ValueError(f"random:syk needs n >= 4 modes, got {self.n}")
        try:
            self.j = float(params.get("j", "1"))
        except ValueError:
            raise ValueError(f"random:syk j= must be a number in {spec!r}") from None
        tail_out = f"n={self.n},seed={self.seed}"
        if self.j != 1.0:
            tail_out += f",j={format_number(self.j)}"
        super().__init__(f"random:syk:{tail_out}")

    @property
    def n_modes(self) -> int:
        return self.n

    def _iter_raw(self) -> Iterator[tuple[tuple, complex]]:
        """Deterministic term stream: one draw sequence per (n, seed, j).

        Each outer pair ``p`` takes its normals in one ``standard_normal``
        call (one for the diagonal coupling, then a real and an imaginary
        part per later pair ``q``), which yields the same stream as drawing
        them one at a time while holding only ``O(P)`` of them at once.
        """
        rng = np.random.default_rng(self.seed)
        scale = self.j / float(self.n) ** 1.5
        pairs = [(i, k) for i in range(self.n) for k in range(i + 1, self.n)]
        create = [(m, True) for m in range(self.n)]
        destroy = [(m, False) for m in range(self.n)]
        for a, (i, k) in enumerate(pairs):
            rest = pairs[a + 1:]
            draws = iter((rng.standard_normal(1 + 2 * len(rest)) * scale).tolist())
            yield (create[i], create[k], destroy[k], destroy[i]), complex(next(draws))
            for i2, k2 in rest:
                g = complex(next(draws), next(draws))
                yield (create[i], create[k], destroy[k2], destroy[i2]), g
                yield (create[i2], create[k2], destroy[k], destroy[i]), g.conjugate()

    def _build(self) -> FermionOperator:
        # Every term of the stream is distinct, so add_term reduces to its
        # tolerance drop.
        return FermionOperator(
            {term: c for term, c in self._iter_raw() if abs(c) > _COEFF_TOLERANCE}
        )

    def describe(self) -> dict:
        doc = super().describe()
        doc.update(ensemble="syk", n=self.n, seed=self.seed, j=self.j)
        return doc


def _register_synthetic() -> None:
    register_source(
        "random",
        SykSource,
        description="seeded synthetic ensembles (currently: complex SYK_4)",
        grammar="random:syk:n=<modes>,seed=<s>[,j=<f>]",
        examples=("random:syk:n=8,seed=7", "random:syk:n=24,seed=1,j=0.5"),
        file_backed=True,
    )


_register_synthetic()
