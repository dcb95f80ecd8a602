"""Register a third-party Hamiltonian frontend and batch-compile through it.

``repro.sources`` resolves URI-style case specs (``hubbard:2x3``,
``fcidump:h2.fcid``, ...) through a pluggable registry.  This example adds a
new prefix — a 1D transverse-hopping "ring" toy model — and shows that the
rest of the stack needs no changes: the spec flows through ``compile_suite``,
fingerprints, and the artifact cache exactly like a built-in case.

Run:  python examples/custom_source.py
(artifacts land in a temporary directory; nothing persists)
"""

import tempfile

from repro.fermion import FermionOperator
from repro.service import compile_suite
from repro.sources import (
    HamiltonianSource,
    build_case,
    parse_params,
    register_source,
    resolve,
    source_catalog,
)


class RingSource(HamiltonianSource):
    """``ring:<n>[,t=<f>]`` — n spinless modes on a periodic chain."""

    family = "ring"
    # Not set here: ``identity_version = 1`` would tell the compilation
    # service that the operator is a pure function of the canonical spec,
    # so it may remember the spec's fingerprints and serve repeat requests
    # without building or fingerprinting.  Opt in only when that holds
    # (the spec keeps every digit of every parameter), and bump the number
    # whenever ``_build`` changes what a spec produces.  Opted out, every
    # request builds and fingerprints, which is always correct.

    def __init__(self, spec: str):
        body = spec.split(":", 1)[1]
        size, _, tail = body.partition(",")
        if not size.isdigit() or int(size) < 2:
            raise ValueError(f"ring size must be an integer >= 2, got {size!r}")
        self._n = int(size)
        params = parse_params(tail, allowed={"t"}) if tail else {}
        self._t = float(params.get("t", 1.0))
        canonical = f"ring:{self._n}"
        if self._t != 1.0:
            canonical += f",t={self._t}"
        super().__init__(canonical)

    @property
    def n_modes(self) -> int:
        return self._n

    def _build(self) -> FermionOperator:
        h = FermionOperator()
        for i in range(self._n):
            h += FermionOperator.hopping(i, (i + 1) % self._n, -self._t)
        return h


def main() -> None:
    register_source(
        "ring",
        RingSource,
        description="periodic spinless hopping chain (example frontend)",
        grammar="ring:<n>[,t=<f>]",
        examples=["ring:6", "ring:8,t=0.5"],
    )
    print("registered prefixes now include:",
          [s["prefix"] for s in source_catalog()])

    src = resolve("ring:6,t=0.5")
    print(f"describe(): {src.describe()}")
    assert build_case("ring:6,t=0.5").n_modes <= 6
    # The cache key hashes the built operator's canonical terms.
    from repro.service import fingerprint_operator
    print(f"fingerprint: {fingerprint_operator(src.build())[:12]}")

    with tempfile.TemporaryDirectory(prefix="repro-custom-src-") as cache_dir:
        report = compile_suite(["ring:6", "ring:8,t=0.5", "hubbard:1x3"],
                               ["hatt", "jw"], cache_dir=cache_dir)
        print(report.table())
        warm = compile_suite(["ring:6", "ring:8,t=0.5", "hubbard:1x3"],
                             ["hatt", "jw"], cache_dir=cache_dir)
        assert all(t.cache_hit for t in warm.tasks)
        print(f"\nwarm pass: {warm.n_cache_hits}/{warm.n_tasks} cache hits")


if __name__ == "__main__":
    main()
