"""Test oracles: slow, obviously-correct engines the package kernels must match.

Each module holds the scalar engine a ``src`` kernel replaced, kept so tests
and benchmarks can compare the kernel against it bit for bit (or, for the
noisy trajectories, in distribution):

* :mod:`reference.hatt` — the per-candidate big-int HATT scan;
* :mod:`reference.routing` — the dict-scan SWAP router;
* :mod:`reference.mapping` — the per-term Majorana-to-Pauli product loop;
* :mod:`reference.pauli_sum` — the ``{(x, z): c}`` dict accumulation of
  Pauli sums;
* :mod:`reference.majorana` — the ``{monomial: c}`` dict algebra of
  Majorana sums and its merge-sort monomial product;
* :mod:`reference.fermion` — CAR normal ordering of ladder operators, and
  the ``==``/``is_hermitian`` it decided;
* :mod:`reference.noise` — the per-trajectory noisy loop and the per-string
  ``Statevector`` expectation;
* :mod:`reference.trotter` — the full-ladder Trotter emission, the
  Python-int term planner and emitter, and the four-pass ``to_cx_u3``;
* :mod:`reference.peephole` — the Gate-list cancellation, fusion and
  cz/swap rewrite passes;
* :mod:`reference.density` — the exact density-matrix simulator;
* :mod:`reference.integrals` — the scalar McMurchie–Davidson S, T, V and
  ERI engine.

Not part of the package.  ``tests/`` (and ``benchmarks/``, through its
``conftest.py``) put this directory's parent on ``sys.path``, so callers
write ``from reference.hatt import ScalarHattConstruction``.
"""
