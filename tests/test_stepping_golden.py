"""The stepping propagator's series, pinned on small non-Hermitian chains.

tests/data/stepping_golden.npz holds the amplitudes s(t) of each case
below, evaluated by exponential stepping (dim <= 120). They are compared to
1e-12, not bit for bit: a probe with more than one row may sum its rows in
another order. Re-record them only when the stepped physics changes on
purpose:

    PYTHONPATH=src python3 tests/test_stepping_golden.py
"""

from pathlib import Path

import numpy as np
import pytest

from otocsim.dynamics import otoc_series, spectral_decompose
from otocsim.lattice import HamiltonianMatrix, build_nonhermitian_ssh
from otocsim.operators import (StateVector, basis_state, chiral_partial,
                               site_projector, staggered_state,
                               sublattice_projector)

GOLDEN = Path(__file__).parent / "data" / "stepping_golden.npz"
UNIFORM = np.arange(501) * 0.2
NONUNIFORM = np.array([0.0, 0.2, 0.5, 0.9, 1.4, 2.0, 7.3, 7.5, 20.0])


def one_row(H):
    return site_projector(H.layout, [[1, "A"]])


def two_rows(H):
    return site_projector(H.layout, [[1, "A"], [2, "B"]])


def two_row_state(H):
    amplitudes = np.zeros(H.dim, dtype=complex)
    amplitudes[[0, 3]] = [0.6, 0.8j]
    return StateVector(dim=H.dim, amplitudes=amplitudes)


def phase_rotated(H):
    """P H P^dag with the diagonal unitary P = diag(e^{0.7ij}): a complex
    non-Hermitian H, whose bra factors are not the ket factors' transposes."""
    phase = np.exp(0.7j * np.arange(H.dim))
    return HamiltonianMatrix(dim=H.dim, entries=phase[:, None] * H.entries * phase.conj(),
                             hermitian=False, layout=H.layout)


CASES = {
    "site_t0": lambda H: (H, one_row(H), basis_state(H.layout, 1, "A"), UNIFORM),
    "site_t3.7": lambda H: (H, one_row(H), basis_state(H.layout, 1, "A"),
                            3.7 + UNIFORM),
    "two_rows": lambda H: (H, two_rows(H), two_row_state(H), UNIFORM),
    "sublattice": lambda H: (H, sublattice_projector(H.layout, "A"),
                             basis_state(H.layout, 1, "A"), UNIFORM),
    "staggered": lambda H: (H, sublattice_projector(H.layout, "A"),
                            staggered_state(H.layout, 3), UNIFORM),
    "chiral_partial_j2": lambda H: (H, chiral_partial(H.layout, j=2),
                                    basis_state(H.layout, 1, "A"), UNIFORM),
    "nonuniform": lambda H: (H, two_rows(H), two_row_state(H), NONUNIFORM),
    "complex_t0": lambda H: (phase_rotated(H), two_rows(H),
                             basis_state(H.layout, 1, "A"), UNIFORM),
    "complex_t3.7": lambda H: (phase_rotated(H), two_rows(H),
                               basis_state(H.layout, 1, "A"), 3.7 + UNIFORM),
}
CHAINS = {"nu0.8": lambda: build_nonhermitian_ssh(20, 0.8, 0.4),
          "nu1.1": lambda: build_nonhermitian_ssh(60, 1.1, 0.4)}


def amplitudes(name):
    chain_name, case_name = name.split(":")
    H, W, psi, times = CASES[case_name](CHAINS[chain_name]())
    prop = spectral_decompose(H)
    assert prop.kind == "scaled_expm"
    return otoc_series(prop, W, psi, times=times).amplitudes


NAMES = [f"{c}:{k}" for c in sorted(CHAINS) for k in sorted(CASES)]


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return {name: data[name] for name in data.files}


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_series_matches_golden(golden, name):
    got = amplitudes(name)
    want = golden[name]
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12


if __name__ == "__main__":
    np.savez_compressed(GOLDEN, **{name: amplitudes(name) for name in NAMES})
    print(f"wrote {len(NAMES)} series to {GOLDEN}")
