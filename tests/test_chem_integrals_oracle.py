"""The batched integral kernels against the scalar engine they replaced.

``reference.integrals`` is the pure-Python McMurchie–Davidson engine, kept
unchanged as the oracle.  Every matrix and tensor must equal it bit for bit,
sign bits included: on random contracted s/p/d functions (l ≤ 2 runs the
generic E and R recursions), on coincident centers (the Boys ``t < 1e-12``
branch), on far-apart centers (quartets Schwarz screening zeroes) and on the
molecules the electronic cases build.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference.integrals as oracle
from repro.chem import (
    BasisFunction,
    boys,
    build_basis,
    eri_tensor,
    kinetic_matrix,
    molecule,
    nuclear_attraction_matrix,
    overlap_matrix,
)
from repro.chem.integrals import _hermite_r, hermite_e_table, overlap_and_core


def assert_bit_identical(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want), np.flatnonzero(got != want)[:5]
    assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_all_match(basis, atoms):
    assert_bit_identical(overlap_matrix(basis), oracle.overlap_matrix(basis))
    assert_bit_identical(kinetic_matrix(basis), oracle.kinetic_matrix(basis))
    assert_bit_identical(
        nuclear_attraction_matrix(basis, atoms),
        oracle.nuclear_attraction_matrix(basis, atoms),
    )
    assert_bit_identical(eri_tensor(basis), oracle.eri_tensor(basis))
    # The SCF's call: both matrices from one set of pair batches.
    s, h = overlap_and_core(basis, atoms)
    assert_bit_identical(s, oracle.overlap_matrix(basis))
    assert_bit_identical(h, oracle.core_hamiltonian(basis, atoms))


# ----------------------------------------------------------------------
# Random contracted functions
# ----------------------------------------------------------------------
_LMNS = [
    (0, 0, 0),
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1),
]
# A shared site (coincident centers), a near one and one 40 bohr away,
# whose pairs with the others fall under the Schwarz screen.
_SITES = [
    np.zeros(3),
    np.array([0.3, -0.7, 1.1]),
    np.array([0.0, 40.0, 0.0]),
]
_EXPONENT = st.floats(0.05, 20.0, allow_nan=False)
_COEFF = st.floats(-1.5, 1.5, allow_nan=False).filter(lambda c: abs(c) > 1e-3)


@st.composite
def functions(draw):
    n_prims = draw(st.integers(1, 3))
    site = draw(st.sampled_from(range(len(_SITES) + 1)))
    if site == len(_SITES):
        center = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)))
    else:
        center = _SITES[site]
    return BasisFunction(
        center,
        draw(st.sampled_from(_LMNS)),
        np.array(draw(st.lists(_EXPONENT, min_size=n_prims, max_size=n_prims))),
        np.array(draw(st.lists(_COEFF, min_size=n_prims, max_size=n_prims))),
    )


@st.composite
def nuclei(draw):
    sites = draw(st.lists(st.sampled_from(range(len(_SITES))), min_size=1, max_size=3))
    return [(draw(st.integers(1, 9)), _SITES[s]) for s in sites]


@given(st.lists(functions(), min_size=1, max_size=3), nuclei())
@settings(max_examples=40, deadline=None)
def test_random_functions_match_oracle(basis, atoms):
    assert_all_match(basis, atoms)


@given(st.lists(functions(), min_size=2, max_size=3))
@settings(max_examples=15, deadline=None)
def test_screened_quartets_stay_zero(basis):
    """A pair 40 bohr apart screens its quartets to +0.0 in both engines."""
    far = BasisFunction(_SITES[2] + 1e-3, (0, 0, 0), np.array([1.3]), np.array([0.9]))
    near = BasisFunction(_SITES[0], (0, 0, 1), np.array([0.7]), np.array([1.1]))
    basis = [near, far] + basis
    got = eri_tensor(basis)
    assert_bit_identical(got, oracle.eri_tensor(basis))
    assert got[1, 0, 1, 0] == 0.0 and not np.signbit(got[1, 0, 1, 0])


@given(
    st.integers(0, 8),
    st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 1e-11), st.floats(0.0, 80.0)),
        min_size=1,
        max_size=20,
    ),
)
@settings(max_examples=60, deadline=None)
def test_boys_matches_oracle(m, ts):
    got = boys(m, np.array(ts))
    assert_bit_identical(got, [oracle.boys(m, t) for t in ts])
    assert boys(m, ts[0]) == oracle.boys(m, ts[0])


@given(
    st.integers(0, 3),
    st.integers(0, 3),
    st.lists(st.tuples(_EXPONENT, _EXPONENT, st.floats(-3.0, 3.0)), min_size=1, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_hermite_e_table_matches_oracle(l1, l2, rows):
    a, b, xab = (np.array(col) for col in zip(*rows))
    got = hermite_e_table(l1, l2, a, b, xab)
    want = np.stack(
        [oracle.hermite_e_table(l1, l2, *row) for row in rows], axis=-1
    )
    assert_bit_identical(got, want)


def _r_matches_oracle(ext, alphas, rpcs):
    got = _hermite_r(*ext, alphas, rpcs)
    for k in range(len(alphas)):
        want = oracle._hermite_r(*ext, alphas[k], rpcs[k])
        assert sorted(want) == sorted(got)
        for key, val in want.items():
            assert_bit_identical(got[key][k], val)


@given(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.lists(
        st.tuples(_EXPONENT, st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3)),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=40, deadline=None)
def test_hermite_r_matches_oracle(ext, rows):
    _r_matches_oracle(ext, np.array([a for a, _ in rows]), np.array([r for _, r in rows]))


def test_hermite_r_matches_oracle_in_bulk():
    """Enough points that libm ``pow(x, 2)`` and ``x * x`` (which differ on
    about 0.1% of inputs) cannot both pass."""
    rng = np.random.default_rng(7)
    n = 3000
    _r_matches_oracle((2, 1, 1), rng.uniform(0.1, 10.0, n), rng.uniform(-3.0, 3.0, (n, 3)))


# ----------------------------------------------------------------------
# The molecules of the electronic cases
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name, basis_name",
    [
        ("H2", "sto-3g"),
        ("H2", "6-31g"),
        ("LiH", "sto-3g"),
        ("NH", "sto-3g"),
        ("H2O", "sto-3g"),
        ("BeH2", "sto-3g"),
        ("CH4", "sto-3g"),
    ],
)
def test_molecule_matches_oracle(name, basis_name):
    mol = molecule(name)
    assert_all_match(build_basis(mol.atoms, basis_name), mol.charges)
