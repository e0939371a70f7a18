"""Every lattice builder's matrix, pinned entry by entry.

tests/data/lattice_golden.npz holds one small instance (dim <= 64) of each
case below. Re-record it only when a builder's physics changes on purpose:

    PYTHONPATH=src python3 tests/test_lattice_golden.py
"""

from pathlib import Path

import numpy as np
import pytest

from otocsim.analytic import extended_chain_hamiltonian
from otocsim.ensemble import draw_disorder
from otocsim.lattice import (build_creutz, build_haldane,
                             build_nonhermitian_ssh, build_qwz, build_ssh,
                             build_ssh2d, chiral_matrix)
from otocsim.operators import chiral_partial

GOLDEN = Path(__file__).parent / "data" / "lattice_golden.npz"

CASES = {
    "ssh": lambda: build_ssh(6, 0.6).entries,
    "ssh_eta": lambda: build_ssh(8, 0.7, eta=0.3, epsilon=1.3).entries,
    "ssh_disorder": lambda: build_ssh(
        10, 0.5, eta=0.2, disorder=draw_disorder(7, 10, 0.4, 0.8)).entries,
    "nonhermitian_ssh": lambda: build_nonhermitian_ssh(6, 1.2, 0.4,
                                                       epsilon=0.9).entries,
    "creutz": lambda: build_creutz(6, 0.7, 1.1).entries,
    "haldane": lambda: build_haldane(3, 4, 1.0, 0.3, 0.0, 0.2).entries,
    "haldane_phi": lambda: build_haldane(4, 3, 0.9, 0.25, np.pi / 3,
                                         -0.4).entries,
    "qwz": lambda: build_qwz(3, 4, 1.0, 0.5).entries,
    "ssh2d": lambda: build_ssh2d(3, 4, 0.6, 1.0).entries,
    "extended_chain": lambda: extended_chain_hamiltonian(6, 0.7,
                                                         epsilon=1.2).entries,
    "chiral_matrix_ssh": lambda: chiral_matrix("ssh", 6),
    "chiral_matrix_creutz": lambda: chiral_matrix("creutz", 6),
    "chiral_partial_j2": lambda: chiral_partial(build_creutz(6, 0.7, 1.1).layout,
                                                j=2).entries,
    "chiral_partial_j3": lambda: chiral_partial(build_ssh(6, 0.6).layout,
                                                j=3).entries,
}


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return {name: data[name] for name in data.files}


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matrix_matches_golden(golden, name):
    got = CASES[name]()
    want = golden[name]
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


if __name__ == "__main__":
    np.savez_compressed(GOLDEN, **{name: build() for name, build in CASES.items()})
    print(f"wrote {len(CASES)} matrices to {GOLDEN}")
