"""The sparse forms of Hamiltonians and probes against the dense rules they
replace, and the paths that must never build a dense matrix."""

import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otocsim import pipeline
from otocsim.analytic import extended_chain_hamiltonian
from otocsim.dynamics import _abs_row_sums, _tridiagonal_band
from otocsim.ensemble import draw_disorder
from otocsim.lattice import (HamiltonianMatrix, LatticeLayout, _tile,
                             build_creutz, build_haldane, build_ssh,
                             build_ssh2d)
from otocsim.operators import OperatorMatrix


def bare_layout(dim):
    return LatticeLayout(kind="chain1d", cells_x=dim, cells_y=1,
                         sublattices=1, sublattice_names=("s",))


def dense_residual(A):
    """The dense Hermiticity rule the triplet check replaces: the residual
    when it exceeds the tolerance, else None."""
    scale = max(1.0, np.abs(A).max())
    resid = np.abs(A - A.conj().T).max()
    return resid if resid > 1e-12 * scale else None


VALUES = st.sampled_from([0.0, 0.0, 0.0, 1.0, -0.75, 2.0 ** -40, 3e-9, 1e6,
                          np.nan, np.inf, -np.inf])


@st.composite
def matrices(draw):
    """Small real or complex matrices; Hermitian ones then get one entry
    moved in value or set to zero, which also breaks the pattern."""
    n = draw(st.integers(1, 5))
    entries = st.lists(VALUES, min_size=n * n, max_size=n * n)
    with np.errstate(invalid="ignore", over="ignore"):
        A = np.array(draw(entries))
        if draw(st.booleans()):
            A = A + 1j * np.array(draw(entries))
        A = A.reshape(n, n)
        if draw(st.booleans()):
            A = np.triu(A) + np.triu(A, 1).conj().T
            if np.iscomplexobj(A):
                A[np.diag_indices(n)] = A.diagonal().real
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            A[i, j] = draw(st.sampled_from([0.0, A[i, j] + 1e-13, A[i, j] + 1e-9,
                                            A[i, j] * 2, np.nan]))
    return A


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_hermiticity_check_matches_the_dense_rule(A):
    with np.errstate(invalid="ignore", over="ignore"):
        resid = dense_residual(A)
        make = lambda: HamiltonianMatrix(dim=A.shape[0], entries=A, hermitian=True,
                                         layout=bare_layout(A.shape[0]))
        if resid is None:
            make()
        else:
            with pytest.raises(ValueError, match=re.escape(
                    f"hermitian flag set but residual {resid:.3e} exceeds")):
                make()


def test_tile_sums_coinciding_entries_in_order_and_drops_zeros():
    # a hop onto the cell itself lands on the on-site block: three entries
    # cancel, the fourth is summed in placement order from zero
    layout = LatticeLayout(kind="chain1d", cells_x=3, cells_y=1, sublattices=2)
    T = np.array([[0.1, 0.7], [0.0, 0.2]])
    onsite = np.array([[-0.2, -0.7], [-0.7, 1.0]])
    rows, cols, values = _tile(layout, onsite, [((0, 0), T)])
    np.testing.assert_array_equal(rows, [1, 3, 5])
    np.testing.assert_array_equal(cols, [1, 3, 5])
    assert (values == (1.0 + 0.2) + 0.2).all()


@pytest.mark.parametrize("case", ["ssh", "ssh_disorder", "extended_chain"])
def test_band_is_the_dense_diagonals(case):
    H = {"ssh": lambda: build_ssh(30, 0.6),
         "ssh_disorder": lambda: build_ssh(30, 0.6,
                                           disorder=draw_disorder(11, 30, 1.0, 2.0)),
         "extended_chain": lambda: extended_chain_hamiltonian(30, 0.7)}[case]()
    d, e = _tridiagonal_band(H)
    A = H.entries
    assert d.dtype == e.dtype == A.dtype
    assert d.tobytes() == np.diagonal(A).copy().tobytes()
    assert e.tobytes() == np.diagonal(A, -1).copy().tobytes()


def test_band_is_none_off_three_diagonals():
    A = build_ssh(10, 0.6).entries.copy()
    A[0, 2] = A[2, 0] = 0.1
    off_band = HamiltonianMatrix(dim=20, entries=A, hermitian=True,
                                 layout=build_ssh(10, 0.6).layout)
    for H in (build_ssh(10, 0.6, eta=0.3), build_creutz(10, 1.0, 0.5),
              build_haldane(3, 3, 1.0, 0.2, 0.5, 0.1), off_band):
        assert _tridiagonal_band(H) is None


@pytest.mark.parametrize("dim", [1, 7, 8, 9, 128, 129, 300, 1030, 20001])
def test_row_sums_are_the_dense_sums(rng, dim):
    # the first rows of a dim x dim matrix: each row is summed on its own
    shape = (min(dim, 40), dim)
    mask = rng.random(shape) < 0.3
    A = np.where(mask, rng.standard_normal(shape)
                 * 10.0 ** rng.integers(-6, 6, shape), 0.0)
    if dim % 2:
        A = A + 1j * np.where(mask, rng.standard_normal(shape), 0.0)
    rows, cols = np.nonzero(A)
    got = _abs_row_sums(dim, rows, cols, A[rows, cols])
    assert got[:shape[0]].tobytes() == np.abs(A).sum(axis=1).tobytes()


def test_row_sums_of_the_lattices_are_the_dense_sums():
    for H in (build_ssh2d(20, 20, 0.55, 1.0), build_haldane(9, 8, 1.0, 0.3, 0.7, 0.2)):
        got = _abs_row_sums(H.dim, H.rows, H.cols, H.values)
        assert got.tobytes() == np.abs(H.entries).sum(axis=1).tobytes()


@pytest.fixture
def no_dense(monkeypatch):
    """Any read of a dense Hamiltonian or probe matrix fails the test."""
    def built(self):
        raise AssertionError(f"dense {type(self).__name__} built")
    monkeypatch.setattr(HamiltonianMatrix, "entries", property(built))
    monkeypatch.setattr(OperatorMatrix, "entries", property(built))


CORNER = {"model": "ssh2d", "params": {"Nx": 10, "Ny": 10, "nu_p": 0.6, "w": 1.0},
          "initial_state": {"kind": "site", "x": 1, "y": 1},
          "w_operator": {"kind": "index_projector", "indices": [2]},
          "time_grid": {"t_max": 20.0, "dt": 0.2}}
DISORDER_MEMBER = {
    "model": "ssh", "params": {"N": 50, "nu": 0.6},
    "initial_state": {"kind": "basis", "cell": 1, "sublattice": "A"},
    "w_operator": {"kind": "site_projector", "sites": [[1, "A"]]},
    "time_grid": {"t_max": 400.0, "dt": 0.2},
    "disorder": {"d1": 1.0, "d2": 2.0, "seed": 2000}}


@pytest.mark.parametrize("cfg, kind", [(CORNER, "chebyshev"),
                                       (DISORDER_MEMBER, "hermitian_spectral")],
                         ids=["corner", "disorder_member"])
def test_fast_paths_build_no_dense_matrix(no_dense, cfg, kind):
    series = pipeline.run_point(cfg)
    assert series.metadata["propagator"] == kind
    assert series.metadata.get("eigensolver", "tridiagonal") == "tridiagonal"
    assert series.values[0] == pytest.approx(1.0, abs=1e-12)


def test_large_patch_runs_without_a_dense_matrix(no_dense):
    # dim 14,400: the dense real H alone would take 1.7 GB
    cfg = dict(CORNER, params={"Nx": 60, "Ny": 60, "nu_p": 0.6, "w": 1.0},
               time_grid={"t_max": 10.0, "dt": 0.5})
    start = time.perf_counter()
    series = pipeline.run_point(cfg)
    assert time.perf_counter() - start < 1.0
    assert series.metadata["propagator"] == "chebyshev"
    assert series.values[0] == 1.0 and series.values.size == 21
