import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from otocsim.lattice import (HamiltonianMatrix, LatticeError, LatticeLayout,
                             bloch_hamiltonian,
                             bloch_to_realspace, build_creutz, build_haldane,
                             build_nonhermitian_ssh, build_qwz, build_ssh,
                             build_ssh2d, chiral_matrix, ssh2d_blocks,
                             ssh2d_site_index, symmetry_residual)
from otocsim.analytic import analytic_eigenpairs
from otocsim.ensemble import draw_disorder
from otocsim.operators import chiral_operator

params = st.floats(min_value=0.1, max_value=3.0, allow_nan=False)


def test_dimerized_chain_small_entries():
    H = build_ssh(2, 0.5)
    want = np.zeros((4, 4))
    want[0, 1] = want[1, 0] = 0.5
    want[1, 2] = want[2, 1] = 1.0
    want[2, 3] = want[3, 2] = 0.5
    np.testing.assert_array_equal(H.entries, want)
    assert H.hermitian and H.dim == 4 and H.energy_unit == 1.0


def test_energy_scale_multiplies_entries():
    a = build_ssh(3, 0.7)
    b = build_ssh(3, 0.7, epsilon=2.0)
    np.testing.assert_allclose(b.entries, 2.0 * a.entries)
    assert b.energy_unit == 2.0


def test_chain_needs_two_cells():
    with pytest.raises(LatticeError):
        build_ssh(1, 0.5)
    with pytest.raises(LatticeError):
        build_nonhermitian_ssh(1, 0.5, 0.1)


def test_long_range_hop_placement():
    H = build_ssh(3, 1.0, eta=0.5)
    assert H.entries[1, 4] == 0.5
    assert H.entries[4, 1] == 0.5
    # only cell 1 -> 3 exists at N=3
    assert H.entries[3, 0] == 0.0


def test_chain_spectrum_matches_closed_form_after_extension():
    # appending one extra A site turns the 2N-site chain into the odd chain
    # whose full spectrum is known in closed form
    for nu in (0.5, 1.3):
        H = build_ssh(200, nu)
        ext = np.zeros((401, 401))
        ext[:400, :400] = H.entries
        ext[400, 399] = ext[399, 400] = 1.0
        system = analytic_eigenpairs(200, nu)
        got = np.sort(np.linalg.eigvalsh(ext))
        assert np.abs(got - system.all_eigenvalues()).max() <= 1e-9


def test_asymmetric_chain_entries():
    H = build_nonhermitian_ssh(2, 1.0, 0.4)
    assert H.entries[0, 1] == 1.4
    assert H.entries[1, 0] == 0.6
    assert H.entries[1, 2] == H.entries[2, 1] == 1.0
    assert not H.hermitian


def test_asymmetric_chain_reduces_to_symmetric_at_zero_split():
    a = build_ssh(5, 0.8)
    b = build_nonhermitian_ssh(5, 0.8, 0.0)
    assert (a.entries == b.entries).all()
    assert b.hermitian


def test_asymmetric_chain_real_spectrum_when_reducible():
    # the similarity transform to a symmetric chain exists for nu > delta;
    # checked where its conditioning stays moderate
    for nu in (1.0, 1.5):
        lam = np.linalg.eigvals(build_nonhermitian_ssh(100, nu, 0.4).entries)
        assert np.abs(lam.imag).max() <= 1e-8


def test_ladder_dimer_spectrum():
    lam = np.sort(np.linalg.eigvalsh(build_creutz(2, 1.0, 0.0).entries))
    np.testing.assert_allclose(lam, [-1.0, -1.0, 1.0, 1.0], atol=1e-12)


def test_ladder_intercell_block():
    H = build_creutz(2, 0.0, 2.0)
    blk = H.entries[0:2, 2:4]
    np.testing.assert_allclose(blk, [[-1j, 1.0], [1.0, 1j]], atol=1e-15)
    np.testing.assert_allclose(H.entries[2:4, 0:2], blk.conj().T, atol=1e-15)


def test_ladder_energy_unit_tracks_intercell_strength():
    assert build_creutz(3, 1.0, 2.0).energy_unit == 2.0
    assert build_creutz(3, 1.0, 0.0).energy_unit == 1.0


def test_honeycomb_zero_flux_real_symmetric():
    H = build_haldane(3, 3, 1.0, 1.0, 0.0, 0.0)
    assert np.isrealobj(H.entries) or np.abs(H.entries.imag).max() == 0.0
    np.testing.assert_allclose(H.entries, H.entries.T.conj(), atol=1e-15)


def test_honeycomb_onsite_mass_signs():
    H = build_haldane(2, 2, 0.0, 0.0, 0.3, 2.0)
    np.testing.assert_allclose(np.diag(H.entries).real,
                               [2.0, -2.0] * 4, atol=1e-15)


def test_honeycomb_gap_closes_in_expected_window():
    # at eta1 = eta2, flux pi/2, the bulk gap collapses near mu = 3*sqrt(3)
    best_mu, best_gap = None, np.inf
    for mu in np.arange(4.9, 5.51, 0.1):
        lam = np.linalg.eigvalsh(build_haldane(20, 20, 1.0, 1.0, np.pi / 2, mu).entries)
        gap = np.abs(lam).min()
        if gap < best_gap:
            best_mu, best_gap = mu, gap
    assert best_gap < 0.05


def test_two_band_square_onsite_limit():
    H = build_qwz(3, 3, 0.0, 1.7)
    np.testing.assert_allclose(H.entries, np.diag([1.7, -1.7] * 9), atol=1e-15)


def test_bloch_reconstruction_matches_trig_form(rng):
    # the tiled blocks must reproduce the trigonometric Bloch matrix of the
    # four-component square lattice at any wave number
    t0 = np.eye(2)
    t1 = np.array([[0, 1], [1, 0]], dtype=complex)
    t2 = np.array([[0, -1j], [1j, 0]])
    t3 = np.diag([1.0, -1.0]).astype(complex)
    s1, s2 = t1, t2
    nup, w = 0.7, 1.3
    H0, Tx, Ty = ssh2d_blocks(nup, w)
    for _ in range(16):
        kx, ky = rng.uniform(-np.pi, np.pi, 2)
        trig = ((nup + w * np.cos(ky)) * np.kron(t0, s1)
                - w * np.sin(ky) * np.kron(t3, s2)
                - (nup + w * np.cos(kx)) * np.kron(t2, s2)
                - w * np.sin(kx) * np.kron(t1, s2))
        got = bloch_hamiltonian(H0, Tx, Ty, kx, ky)
        assert np.abs(got - trig).max() <= 1e-12


def test_tiling_without_hopping_is_block_diagonal(rng):
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    H0 = A + A.conj().T
    Z = np.zeros((3, 3))
    H = bloch_to_realspace(H0, Z, Z, 2, 2)
    want = np.kron(np.eye(4), H0)
    np.testing.assert_allclose(H.entries, want, atol=1e-15)
    assert H.hermitian


def test_tiling_rejects_mismatched_blocks():
    with pytest.raises(LatticeError):
        bloch_to_realspace(np.eye(2), np.zeros((3, 3)), np.zeros((2, 2)), 2, 2)


def test_four_component_single_cell_spectrum():
    H0, _, _ = ssh2d_blocks(0.7, 1.3)
    got = np.sort(np.linalg.eigvalsh(
        bloch_to_realspace(H0, None, None, 1, 1).entries))
    np.testing.assert_allclose(got, np.sort(np.linalg.eigvalsh(H0)), atol=1e-12)


def test_four_component_site_indexing():
    layout = build_ssh2d(20, 20, 0.7, 1.0).layout
    assert ssh2d_site_index(layout, 1, 1) == 2
    assert ssh2d_site_index(layout, 1, 3) == 6
    assert ssh2d_site_index(layout, 3, 1) == 82
    with pytest.raises(LatticeError):
        ssh2d_site_index(layout, 0, 1)
    with pytest.raises(LatticeError):
        ssh2d_site_index(layout, 41, 1)


def test_disorder_draws_are_deterministic():
    a = draw_disorder(7, 10, 0.5, 1.0)
    b = draw_disorder(7, 10, 0.5, 1.0)
    assert (a.r == b.r).all() and (a.r_prime == b.r_prime).all()
    c = draw_disorder(8, 10, 0.5, 1.0)
    assert (a.r != c.r).any()


def test_disordered_chain_bond_modulation():
    dis = draw_disorder(11, 3, 0.5, 1.0)
    H = build_ssh(3, 0.4, disorder=dis)
    # intracell bonds carry d2 * r', intercell bonds d1 * r
    for n in range(3):
        assert H.entries[2 * n, 2 * n + 1] == pytest.approx(
            0.4 + 1.0 * dis.r_prime[n], abs=1e-15)
    for n in range(2):
        assert H.entries[2 * n + 1, 2 * n + 2] == pytest.approx(
            1.0 + 0.5 * dis.r[n], abs=1e-15)


def test_disorder_vector_length_checked():
    dis = draw_disorder(11, 4, 0.5, 1.0)
    with pytest.raises(ValueError):
        build_ssh(3, 0.4, disorder=dis)


@settings(max_examples=100)
@given(nu=params, eta=st.floats(min_value=0.0, max_value=1.0),
       n=st.integers(min_value=2, max_value=9))
def test_chain_builders_are_hermitian(nu, eta, n):
    H = build_ssh(n, nu, eta=eta)
    assert np.abs(H.entries - H.entries.conj().T).max() <= 1e-12


@settings(max_examples=50)
@given(e0=params, e0p=params, n=st.integers(min_value=2, max_value=9))
def test_ladder_builder_is_hermitian(e0, e0p, n):
    H = build_creutz(n, e0, e0p)
    assert np.abs(H.entries - H.entries.conj().T).max() <= 1e-12


@settings(max_examples=50)
@given(eta2=params, phi=st.floats(min_value=-np.pi, max_value=np.pi),
       mu=st.floats(min_value=-6.0, max_value=6.0))
def test_honeycomb_builder_is_hermitian(eta2, phi, mu):
    H = build_haldane(3, 4, 1.0, eta2, phi, mu)
    assert np.abs(H.entries - H.entries.conj().T).max() <= 1e-12


@settings(max_examples=50)
@given(eta0=params, mup=st.floats(min_value=-4.0, max_value=4.0))
def test_two_band_square_builder_is_hermitian(eta0, mup):
    H = build_qwz(3, 3, eta0, mup)
    assert np.abs(H.entries - H.entries.conj().T).max() <= 1e-12


def test_chain_spectrum_pairs_up():
    for build, args in ((build_ssh, (8, 0.7)), (build_creutz, (8, 0.7, 1.3))):
        lam = np.sort(np.linalg.eigvalsh(build(*args).entries))
        assert np.abs(lam + lam[::-1]).max() <= 1e-9


def test_sublattice_symmetry_residual():
    assert symmetry_residual(build_ssh(6, 0.7), chiral_matrix("ssh", 6)) <= 1e-12
    assert symmetry_residual(build_creutz(6, 0.7, 1.3),
                             chiral_matrix("creutz", 6)) <= 1e-12
    dis = draw_disorder(3, 6, 0.5, 1.0)
    assert symmetry_residual(build_ssh(6, 0.7, disorder=dis),
                             chiral_matrix("ssh", 6)) <= 1e-12
    # accepts the wrapped operator form too
    assert symmetry_residual(build_ssh(6, 0.7), chiral_operator("ssh", 6)) <= 1e-12


def test_symmetry_residual_flags_mass_term():
    H = build_haldane(3, 3, 1.0, 0.0, 0.0, 0.8)
    C = np.diag([1.0, -1.0] * 9)
    assert symmetry_residual(H, C) >= 0.5


def test_chiral_matrix_forms():
    np.testing.assert_array_equal(chiral_matrix("ssh", 1), np.diag([1.0 + 0j, -1.0]))
    np.testing.assert_allclose(chiral_matrix("creutz", 1),
                               [[0, -1j], [1j, 0]], atol=1e-15)
    for model in ("ssh", "creutz"):
        C = chiral_matrix(model, 5)
        assert np.abs(C @ C - np.eye(10)).max() <= 1e-15
    with pytest.raises(LatticeError):
        chiral_matrix("haldane", 3)


def test_layout_round_trip():
    layout = LatticeLayout(kind="square2d", cells_x=3, cells_y=4, sublattices=2)
    for idx in range(layout.dim):
        cell, s = layout.site_of(idx)
        assert layout.index_of(cell, s) == idx
    with pytest.raises(LatticeError):
        layout.index_of((4, 1), 0)


@pytest.mark.parametrize("dtype", [float, complex])
def test_hermitian_flag_is_checked(dtype):
    entries = build_ssh(6, 0.7).entries.astype(dtype)
    if dtype is complex:
        entries[0, 1] += 0.25j
        entries[1, 0] -= 0.25j
    layout = build_ssh(6, 0.7).layout
    HamiltonianMatrix(dim=12, entries=entries, hermitian=True, layout=layout)
    entries[3, 4] += 1e-9
    with pytest.raises(ValueError, match="hermitian flag set but residual 1.000e-09"):
        HamiltonianMatrix(dim=12, entries=entries, hermitian=True, layout=layout)
    HamiltonianMatrix(dim=12, entries=entries, hermitian=False, layout=layout)
