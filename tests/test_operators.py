import numpy as np
import pytest

from otocsim.lattice import LatticeError, LatticeLayout, build_qwz, build_ssh
from otocsim.operators import (OperatorMatrix, StateVector, as_operator,
                               basis_state, chiral_operator, chiral_partial,
                               lowest_abs_eigenstate, project_sublattice_a,
                               site_projector, staggered_state,
                               sublattice_projector)


def chain(N):
    return LatticeLayout(kind="chain1d", cells_x=N, cells_y=1, sublattices=2)


def test_site_projector_single_site():
    P = site_projector(chain(2), [[1, "A"]])
    np.testing.assert_array_equal(P.entries, np.diag([1.0, 0.0, 0.0, 0.0]))
    assert P.opnorm_bound == 1.0 and P.weights is not None


def test_site_projector_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        site_projector(chain(2), [[1, "A"], [1, 0]])
    with pytest.raises(ValueError):
        site_projector(chain(2), [])


def test_projectors_are_idempotent(rng):
    layout = chain(6)
    sites = [[1, "A"], [3, "B"], [6, "A"]]
    for P in (site_projector(layout, sites),
              sublattice_projector(layout, "A"),
              sublattice_projector(layout, 1)):
        E = P.entries
        assert np.abs(E @ E - E).max() <= 1e-14


def test_sublattice_projector_on_two_band_lattice():
    layout = build_qwz(2, 2, 1.0, 0.5).layout
    P = sublattice_projector(layout, "B")
    np.testing.assert_array_equal(np.diagonal(P.entries).real, [0, 1] * 4)


def test_partial_chiral_sum_diagonal_form():
    C = chiral_partial(chain(2), j=3)
    np.testing.assert_array_equal(C.entries, np.diag([1.0, -1.0, 0.0, 0.0]))
    assert C.opnorm_bound == 1.0


def test_partial_chiral_sum_ladder_form():
    C = chiral_partial(chain(3), j=2)
    s2 = np.array([[0, -1j], [1j, 0]])
    np.testing.assert_allclose(C.entries[0:2, 0:2], s2, atol=1e-15)
    np.testing.assert_allclose(C.entries[2:4, 2:4], s2, atol=1e-15)
    np.testing.assert_allclose(C.entries[4:6, 4:6], 0.0, atol=1e-15)


def test_partial_chiral_sum_squares_to_bulk_projector():
    for j in (2, 3):
        C = chiral_partial(chain(5), j=j).entries
        want = np.diag([1.0] * 8 + [0.0, 0.0])
        np.testing.assert_allclose(C @ C, want, atol=1e-15)


def test_partial_chiral_sum_rejects_bad_input():
    with pytest.raises(ValueError):
        chiral_partial(chain(3), j=1)
    layout2d = LatticeLayout(kind="square2d", cells_x=2, cells_y=2, sublattices=2)
    with pytest.raises(LatticeError):
        chiral_partial(layout2d)


def test_full_chiral_operator_wrapper():
    C = chiral_operator("ssh", 4)
    assert isinstance(C, OperatorMatrix)
    assert C.opnorm_bound == 1.0
    np.testing.assert_array_equal(np.diagonal(C.entries).real, [1, -1] * 4)


def test_basis_state_addresses_by_cell_and_sublattice():
    psi = basis_state(chain(3), 2, "B")
    want = np.zeros(6, dtype=complex)
    want[3] = 1.0
    np.testing.assert_array_equal(psi.amplitudes, want)
    assert psi.normalized


def test_staggered_state_values():
    psi = staggered_state(chain(4), 2, flavor="ssh_A")
    want = np.zeros(8, dtype=complex)
    want[0], want[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    np.testing.assert_allclose(psi.amplitudes, want, atol=1e-15)

    phi = staggered_state(chain(4), 1, flavor="creutz_AB")
    want = np.zeros(8, dtype=complex)
    want[0], want[1] = 1 / np.sqrt(2), 1j / np.sqrt(2)
    np.testing.assert_allclose(phi.amplitudes, want, atol=1e-15)


def test_staggered_state_single_cell_reduces_to_basis_state():
    a = staggered_state(chain(5), 1, flavor="ssh_A")
    b = basis_state(chain(5), 1, "A")
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)


def test_staggered_state_rejects_bad_input():
    with pytest.raises(ValueError):
        staggered_state(chain(4), 0)
    with pytest.raises(ValueError):
        staggered_state(chain(4), 5)
    with pytest.raises(ValueError):
        staggered_state(chain(4), 2, flavor="nope")
    layout2d = LatticeLayout(kind="square2d", cells_x=2, cells_y=2, sublattices=2)
    with pytest.raises(LatticeError):
        staggered_state(layout2d, 1)


def test_lowest_abs_eigenstate_topological_side_is_edge_polarized():
    # near-degenerate midgap pair; the A-weight-maximizing combination is
    # almost entirely on sublattice A
    psi = lowest_abs_eigenstate(build_ssh(200, 0.5))
    w = float(np.linalg.norm(project_sublattice_a(chain(200), psi).amplitudes) ** 2)
    assert w >= 1.0 - 1e-6


def test_lowest_abs_eigenstate_trivial_side_is_balanced():
    H = build_ssh(200, 2.0)
    psi = lowest_abs_eigenstate(H)
    w = float(np.linalg.norm(project_sublattice_a(chain(200), psi).amplitudes) ** 2)
    assert abs(w - 0.5) <= 1e-6
    lam = float(np.real(np.vdot(psi.amplitudes, H.entries @ psi.amplitudes)))
    resid = np.linalg.norm(H.entries @ psi.amplitudes - lam * psi.amplitudes)
    assert resid <= 1e-8 * np.abs(np.linalg.eigvalsh(H.entries)).max()


def test_lowest_abs_eigenstate_decoupled_limit():
    # at nu=0 the first A site is an exact zero mode; the degenerate-space
    # tie-break must pick it over the B-end partner
    psi = lowest_abs_eigenstate(build_ssh(2, 0.0))
    assert abs(psi.amplitudes[0]) ** 2 >= 1.0 - 1e-12


def test_lowest_abs_eigenstate_rejects_nonhermitian():
    from otocsim.lattice import build_nonhermitian_ssh
    with pytest.raises(ValueError):
        lowest_abs_eigenstate(build_nonhermitian_ssh(4, 1.0, 0.4))


def test_project_sublattice_a_behavior():
    layout = chain(2)
    a_only = basis_state(layout, 1, "A")
    kept = project_sublattice_a(layout, a_only)
    np.testing.assert_array_equal(kept.amplitudes, a_only.amplitudes)
    assert not kept.normalized

    balanced = StateVector(dim=4, amplitudes=np.array([1, 1, 0, 0]) / np.sqrt(2))
    half = project_sublattice_a(layout, balanced)
    assert abs(np.linalg.norm(half.amplitudes) ** 2 - 0.5) <= 1e-6

    b_only = basis_state(layout, 2, "B")
    gone = project_sublattice_a(layout, b_only)
    assert np.abs(gone.amplitudes).max() == 0.0


def test_state_vector_checks_norm():
    with pytest.raises(ValueError):
        StateVector(dim=2, amplitudes=np.array([1.0, 1.0]))
    ok = StateVector(dim=2, amplitudes=np.array([1.0, 1.0]), normalized=False)
    assert ok.amplitudes.dtype == complex


def test_operator_wrapper_validation():
    with pytest.raises(ValueError):
        as_operator(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        OperatorMatrix(dim=2, entries=np.eye(2), opnorm_bound=-1.0)
    W = as_operator(np.diag([3.0, -1.0]))
    assert W.opnorm_bound >= 3.0
    assert W.weights is not None
    assert as_operator(np.array([[0.0, 1.0], [1.0, 0.0]])).weights is None
