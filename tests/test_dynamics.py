import numpy as np
import pytest
import scipy.linalg

from otocsim import dynamics, pipeline
from otocsim.dynamics import (EigensolverError, OtocSeries, Propagator,
                              TimeGrid, evolve, long_time_limit,
                              otoc_amplitude, otoc_series, otoc_trace_oracle,
                              spectral_decompose, time_average)
from otocsim.lattice import (HamiltonianMatrix, LatticeLayout, build_creutz,
                             build_haldane, build_nonhermitian_ssh, build_ssh,
                             build_ssh2d)
from otocsim.operators import (OperatorMatrix, StateVector, as_operator,
                               basis_state,
                               chiral_partial, lowest_abs_eigenstate,
                               project_sublattice_a, site_projector,
                               sublattice_projector)


def bare_layout(dim):
    return LatticeLayout(kind="chain1d", cells_x=dim, cells_y=1,
                         sublattices=1, sublattice_names=("s",))


def wrap(entries, hermitian=True):
    entries = np.asarray(entries)
    return HamiltonianMatrix(dim=entries.shape[0], entries=entries,
                             hermitian=hermitian, layout=bare_layout(entries.shape[0]))


def test_time_grid_default_sampling():
    ts = TimeGrid().times()
    assert ts.size == 2001
    assert ts[0] == 0.0 and ts[-1] == pytest.approx(400.0)
    assert np.allclose(np.diff(ts), 0.2)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(t_max=-1.0)
    with pytest.raises(ValueError):
        TimeGrid(dt=0.0)
    with pytest.raises(ValueError):
        TimeGrid(t_max=1.0, dt=2.0)


def test_hermitian_decomposition_properties():
    prop = spectral_decompose(build_ssh(30, 0.7))
    assert prop.kind == "hermitian_spectral"
    assert np.isrealobj(prop.eigenvalues)
    V = prop.eigenvectors
    assert np.abs(V.conj().T @ V - np.eye(60)).max() <= 1e-10


def test_diagonal_matrix_eigenvalues():
    prop = spectral_decompose(wrap(np.diag([1.0, -1.0])))
    np.testing.assert_allclose(np.sort(prop.eigenvalues), [-1.0, 1.0], atol=1e-14)


def test_ill_conditioned_eigenbasis_falls_back_to_stepping():
    # every non-Hermitian chain steps by matrix exponentials, the well
    # conditioned one as well as the one deep in the skin-effect regime,
    # whose eigenvector matrix is numerically singular
    for N, nu in ((10, 1.5), (200, 0.9)):
        H = build_nonhermitian_ssh(N, nu, 0.4)
        prop = spectral_decompose(H)
        assert prop.kind == "scaled_expm"
        assert prop.hamiltonian is not None


def test_eigensolver_failure_is_reported():
    bad = HamiltonianMatrix(dim=4, entries=np.full((4, 4), np.nan),
                            hermitian=True,
                            layout=LatticeLayout(kind="chain1d", cells_x=2,
                                                 cells_y=1, sublattices=2))
    with pytest.raises(EigensolverError):
        spectral_decompose(bad)


def test_evolve_identity_at_zero_time():
    H = build_ssh(10, 0.7)
    prop = spectral_decompose(H)
    psi = basis_state(H.layout, 1, "A")
    out = evolve(prop, psi, 0.0)
    assert np.abs(out.amplitudes - psi.amplitudes).max() <= 1e-14
    assert not out.normalized


def test_hermitian_evolution_preserves_norm(rng):
    H = build_ssh(100, 0.7)
    prop = spectral_decompose(H)
    psi = basis_state(H.layout, 1, "A")
    for t in rng.uniform(0.0, 400.0, size=20):
        out = evolve(prop, psi, float(t))
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-10


def test_forward_backward_echo():
    H = build_ssh(200, 0.5)
    prop = spectral_decompose(H)
    psi = basis_state(H.layout, 1, "A")
    mid = evolve(prop, psi, 400.0)
    back = evolve(prop, mid, -400.0)
    assert np.abs(back.amplitudes - psi.amplitudes).max() <= 1e-10

    Hn = build_nonhermitian_ssh(10, 1.5, 0.4)
    propn = spectral_decompose(Hn)
    psin = basis_state(Hn.layout, 1, "A")
    backn = evolve(propn, evolve(propn, psin, 7.3), -7.3)
    assert np.abs(backn.amplitudes - psin.amplitudes).max() <= 1e-10


def test_evolve_matches_dense_exponential():
    for H in (build_ssh(6, 0.7), build_nonhermitian_ssh(6, 1.5, 0.4)):
        prop = spectral_decompose(H)
        psi = basis_state(H.layout, 2, "B")
        t = 3.7
        want = scipy.linalg.expm(-1j * H.entries * t) @ psi.amplitudes
        got = evolve(prop, psi, t).amplitudes
        assert np.abs(got - want).max() <= 1e-10


def test_otoc_starts_at_one_for_standard_probes():
    H = build_ssh(20, 0.5)
    prop = spectral_decompose(H)
    psi = basis_state(H.layout, 1, "A")
    grid = TimeGrid(t_max=10.0, dt=0.5)
    for W in (site_projector(H.layout, [[1, "A"]]),
              sublattice_projector(H.layout, "A"),
              chiral_partial(H.layout, j=3)):
        series = otoc_series(prop, W, psi, grid=grid)
        assert abs(series.values[0] - 1.0) <= 1e-12


def test_decoupled_site_gives_flat_unit_series():
    H = build_ssh(5, 0.0)
    prop = spectral_decompose(H)
    psi = basis_state(H.layout, 1, "A")
    W = site_projector(H.layout, [[1, "A"]])
    series = otoc_series(prop, W, psi, grid=TimeGrid(t_max=40.0, dt=0.5))
    assert np.abs(series.values - 1.0).max() <= 1e-12


def test_identity_probe_gives_unit_series():
    H = build_ssh(8, 0.7)
    prop = spectral_decompose(H)
    psi = basis_state(H.layout, 3, "A")
    W = as_operator(np.eye(16), opnorm_bound=1.0)
    series = otoc_series(prop, W, psi, grid=TimeGrid(t_max=20.0, dt=1.0))
    assert np.abs(series.values - 1.0).max() <= 1e-12


def test_series_squares_its_amplitudes():
    H = build_ssh(12, 0.6)
    prop = spectral_decompose(H)
    psi = basis_state(H.layout, 1, "A")
    W = chiral_partial(H.layout)
    series = otoc_series(prop, W, psi, grid=TimeGrid(t_max=30.0, dt=0.3))
    assert np.abs(series.values - np.abs(series.amplitudes) ** 2).max() <= 1e-12


def test_series_matches_pointwise_amplitude():
    H = build_nonhermitian_ssh(8, 1.5, 0.4)
    prop = spectral_decompose(H)
    psi = basis_state(H.layout, 1, "A")
    W = site_projector(H.layout, [[1, "A"]])
    ts = np.array([0.0, 1.3, 4.1, 9.7])
    series = otoc_series(prop, W, psi, times=ts)
    for i, t in enumerate(ts):
        s = otoc_amplitude(prop, W, psi, float(t))
        assert abs(series.amplitudes[i] - s) <= 1e-12


def test_series_respects_operator_norm_bound():
    H = build_ssh(20, 0.5)
    prop = spectral_decompose(H)
    psi = basis_state(H.layout, 1, "A")
    for W in (chiral_partial(H.layout), sublattice_projector(H.layout, "B")):
        series = otoc_series(prop, W, psi, grid=TimeGrid(t_max=60.0, dt=0.2))
        assert series.values.max() <= W.opnorm_bound ** 2 + 1e-9


def test_trace_oracle_agrees_with_amplitude_form(rng):
    # the |s|^2 evaluation must agree with the independent trace formula
    # tr[rho W(t)^dag rho W(t)] on pure states
    for _ in range(100):
        d = int(rng.integers(2, 17))
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        H = wrap(A + A.conj().T)
        Wm = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi = psi / np.linalg.norm(psi)
        state = StateVector(dim=d, amplitudes=psi)
        t = float(rng.uniform(0.0, 20.0))
        prop = spectral_decompose(H)
        val = abs(otoc_amplitude(prop, as_operator(Wm), state, t)) ** 2
        rho = np.outer(psi, psi.conj())
        ref = otoc_trace_oracle(H, Wm, rho, t)
        assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref))


def test_trace_oracle_dimension_cap():
    H = wrap(np.zeros((65, 65)))
    with pytest.raises(ValueError):
        otoc_trace_oracle(H, np.eye(65), np.eye(65) / 65.0, 1.0)


def test_trace_oracle_flags_nonphysical_input():
    H = wrap(np.diag([1.0, -1.0]))
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    rho = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(FloatingPointError):
        otoc_trace_oracle(H, W, rho, 0.3)


def test_projected_eigenstate_desk_check():
    # half-weight projected eigenstate on a short trivial-phase chain: the
    # oracle series peaks at 1/4 and time-averages to 3/32
    H = build_ssh(16, 2.0)
    psi = lowest_abs_eigenstate(H)
    psi_a = project_sublattice_a(H.layout, psi).amplitudes
    assert abs(np.linalg.norm(psi_a) ** 2 - 0.5) <= 1e-6
    rho = np.outer(psi_a, psi_a.conj())
    W = sublattice_projector(H.layout, "A").entries
    ts = np.arange(0.0, 100.5, 0.5)
    vals = np.array([otoc_trace_oracle(H, W, rho, t) for t in ts])
    assert abs(vals.max() - 0.25) <= 1e-3
    assert abs(vals.mean() - 3.0 / 32.0) <= 2e-3


def test_tail_is_stable_under_grid_refinement():
    H = build_ssh(100, 0.5)
    prop = spectral_decompose(H)
    psi = basis_state(H.layout, 1, "A")
    W = site_projector(H.layout, [[1, "A"]])
    tails = []
    for dt in (0.2, 0.1):
        series = otoc_series(prop, W, psi, grid=TimeGrid(t_max=200.0, dt=dt))
        tails.append(long_time_limit(series).mean)
    assert abs(tails[0] - tails[1]) < 1e-3


@pytest.mark.parametrize("probe", ["site_projector", "dense_sigma_2"])
def test_stepping_propagator_matches_spectral(probe):
    if probe == "site_projector":
        H = build_ssh(10, 0.7)
        W = site_projector(H.layout, [[1, "A"]])
    else:
        H = build_creutz(10, 0.6, 1.0)
        W = chiral_partial(H.layout, j=2)
        assert W.weights is None
    spectral = spectral_decompose(H)
    stepping = Propagator(kind="scaled_expm", dim=H.dim,
                          energy_unit=H.energy_unit, hamiltonian=H.entries)
    psi = basis_state(H.layout, 1, "A")
    grid = TimeGrid(t_max=20.0, dt=0.5)
    a = otoc_series(spectral, W, psi, grid=grid)
    b = otoc_series(stepping, W, psi, grid=grid)
    assert np.abs(a.values - b.values).max() <= 1e-10


def test_stepping_on_nonuniform_times_matches_spectral():
    H = build_ssh(4, 0.7)
    stepping = Propagator(kind="scaled_expm", dim=H.dim,
                          energy_unit=H.energy_unit, hamiltonian=H.entries)
    psi = basis_state(H.layout, 1, "A")
    W = site_projector(H.layout, [[1, "A"]])
    times = np.array([0.0, 1.0, 3.0])
    a = otoc_series(stepping, W, psi, times=times)
    b = otoc_series(spectral_decompose(H), W, psi, times=times)
    assert np.abs(a.values - b.values).max() <= 1e-10


def test_tail_statistics_window():
    series = OtocSeries(times=np.arange(10.0), values=np.arange(10.0))
    stats = long_time_limit(series, tail_fraction=0.5)
    assert stats.mean == pytest.approx(7.0)
    assert stats.std == pytest.approx(np.sqrt(2.0))
    whole = long_time_limit(series, tail_fraction=1.0)
    assert whole.mean == pytest.approx(4.5)
    last = long_time_limit(series, tail_fraction=1e-9)
    assert last.mean == pytest.approx(9.0) and last.std == 0.0
    with pytest.raises(ValueError):
        long_time_limit(series, tail_fraction=0.0)
    with pytest.raises(ValueError):
        long_time_limit(series, tail_fraction=1.5)
    assert time_average(series) == pytest.approx(4.5)


def test_series_shape_validation():
    with pytest.raises(ValueError):
        OtocSeries(times=np.arange(3.0), values=np.arange(4.0))


def test_stepping_accepts_its_own_long_grid():
    # k*dt rounds differently for each k: on a 4000-long grid the steps
    # spread by more than 1e-12 of dt, but the grid is uniform to rounding
    H = build_ssh(4, 0.7)
    stepping = Propagator(kind="scaled_expm", dim=H.dim,
                          energy_unit=H.energy_unit, hamiltonian=H.entries)
    psi = basis_state(H.layout, 1, "A")
    W = site_projector(H.layout, [[1, "A"]])
    grid = TimeGrid(t_max=4000.0, dt=0.2)
    steps = np.diff(grid.times())
    assert not np.allclose(steps, steps[0], rtol=1e-12, atol=1e-15)
    a = otoc_series(stepping, W, psi, grid=grid)
    b = otoc_series(spectral_decompose(H), W, psi, grid=grid)
    assert np.abs(a.values - b.values).max() <= 1e-9


@pytest.mark.parametrize("n_t", [1, 2, 3, 4, 5, 501, 997, 2001])
@pytest.mark.parametrize("t0", [0.0, 3.7])
def test_phase_table_from_blocks_matches_direct(n_t, t0):
    lam = spectral_decompose(build_ssh(30, 0.6)).eigenvalues
    tau = t0 + np.arange(n_t) * 0.2
    want = np.exp(-1j * np.multiply.outer(lam, tau))
    got = dynamics._phase_table(lam, tau)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12
    assert (dynamics._phase_blocks(lam, tau) is None) == (n_t < 4)


def test_phase_table_on_nonuniform_times_is_direct():
    lam = spectral_decompose(build_ssh(30, 0.6)).eigenvalues
    tau = np.array([0.0, 0.5, 1.5, 3.0, 5.0, 7.5, 10.5])
    assert dynamics._phase_blocks(lam, tau) is None
    np.testing.assert_array_equal(dynamics._phase_table(lam, tau),
                                  np.exp(-1j * np.multiply.outer(lam, tau)))


def pointwise_amplitudes(prop, W, psi, times):
    return np.array([otoc_amplitude(prop, W, psi, float(t)) for t in times])


@pytest.mark.parametrize("support", ["one", "B", "half", "all"])
def test_diagonal_probe_series_matches_pointwise(rng, support, monkeypatch):
    H = build_ssh(40, 0.6)                     # dim 80
    prop = spectral_decompose(H)
    psi = basis_state(H.layout, 1, "A")
    times = 3.7 + np.arange(501) * 0.2         # B = 23
    count = {"one": 1, "B": 23, "half": 40, "all": 80}[support]
    w = np.zeros(H.dim)
    w[rng.choice(H.dim, size=count, replace=False)] = rng.uniform(0.1, 1.0, count)
    W = OperatorMatrix(dim=H.dim, entries=np.diag(w), opnorm_bound=1.0)
    if count <= 23:
        # small supports are contracted block by block, without the table
        def no_table(lam, tau):
            raise AssertionError("phase table built for a small support")
        monkeypatch.setattr(dynamics, "_phase_table", no_table)
    series = otoc_series(prop, W, psi, times=times)
    want = pointwise_amplitudes(prop, W, psi, times)
    assert np.abs(series.amplitudes - want).max() <= 1e-12


@pytest.mark.parametrize("case", ["creutz_sigma_2"])
def test_table_branches_match_pointwise(case):
    H = build_creutz(20, 1.0, 0.5)
    W = chiral_partial(H.layout, j=2)          # dense, not diagonal
    assert W.weights is None
    prop = spectral_decompose(H)
    psi = basis_state(H.layout, 1, "A")
    times = TimeGrid(t_max=100.0, dt=0.2).times()
    series = otoc_series(prop, W, psi, times=times)
    want = pointwise_amplitudes(prop, W, psi, times)
    assert np.abs(series.amplitudes - want).max() <= 1e-12


def test_complex_diagonal_probe_keeps_its_imaginary_part():
    H = build_ssh(10, 0.5)
    prop = spectral_decompose(H)
    psi = basis_state(H.layout, 1, "A")
    w = np.zeros(H.dim, dtype=complex)
    w[0] = 1j
    W = as_operator(np.diag(w))
    assert W.weights is not None
    times = np.array([0.0, 1.0, 2.0])
    series = otoc_series(prop, W, psi, times=times)
    want = pointwise_amplitudes(prop, W, psi, times)
    assert np.abs(series.amplitudes - want).max() <= 1e-12
    assert series.values[0] == pytest.approx(1.0)


def dense_propagator(H):
    lam, V = np.linalg.eigh(H.entries)
    return Propagator(kind="hermitian_spectral", dim=H.dim,
                      energy_unit=H.energy_unit, eigenvalues=lam,
                      eigenvectors=V, eigensolver="dense")


DISORDER_MEMBER = {
    "model": "ssh", "params": {"N": 200, "nu": 0.6},
    "initial_state": {"kind": "basis", "cell": 1, "sublattice": "A"},
    "w_operator": {"kind": "site_projector", "sites": [[1, "A"]]},
    "time_grid": {"t_max": 400.0, "dt": 0.2},
    "disorder": {"d1": 1.0, "d2": 2.0, "seed": 2000}}
EXTENDED_CHAIN = {
    "model": "extended_chain", "params": {"N": 200, "nu": 0.5},
    "initial_state": {"kind": "index", "index": 0},
    "w_operator": {"kind": "index_projector", "indices": [0]},
    "time_grid": {"t_max": 400.0, "dt": 0.2}}


@pytest.mark.parametrize("cfg", [DISORDER_MEMBER, EXTENDED_CHAIN],
                         ids=["disorder_member", "extended_chain"])
def test_tridiagonal_solver_matches_dense_eigh(cfg):
    disorder = pipeline._disorder_from_config(cfg, None)
    H = pipeline.build_hamiltonian(cfg["model"], cfg["params"], disorder)
    prop = spectral_decompose(H)
    assert prop.eigensolver == "tridiagonal"
    dense = dense_propagator(H)
    lam, V = prop.eigenvalues, prop.eigenvectors
    assert np.abs(lam - dense.eigenvalues).max() <= 1e-13
    assert np.linalg.norm(H.entries @ V - V * lam) <= 1e-12
    assert np.linalg.norm(V.T @ V - np.eye(H.dim)) <= 1e-12

    series = pipeline.run_point(cfg)
    assert series.metadata["propagator"] == "hermitian_spectral"
    assert series.metadata["eigensolver"] == "tridiagonal"
    W = pipeline.build_w_operator(H, cfg["w_operator"])
    psi = pipeline.build_initial_state(H, cfg["initial_state"])
    want = otoc_series(dense, W, psi, times=series.times)
    assert np.abs(series.values - want.values).max() <= 1e-12


@pytest.mark.parametrize("case", ["ssh_eta", "creutz", "haldane", "ssh2d"])
def test_banded_and_complex_hamiltonians_take_dense_eigh(case):
    H = {"ssh_eta": lambda: build_ssh(20, 0.6, eta=0.3),
         "creutz": lambda: build_creutz(10, 1.0, 0.5),
         "haldane": lambda: build_haldane(3, 3, 1.0, 0.2, 0.5, 0.1),
         "ssh2d": lambda: build_ssh2d(3, 3, 0.55, 1.0)}[case]()
    prop = spectral_decompose(H)
    assert prop.kind == "hermitian_spectral"
    assert prop.eigensolver == "dense"
    psi = StateVector(dim=H.dim, amplitudes=np.eye(H.dim)[0].astype(complex))
    W = OperatorMatrix(dim=H.dim, entries=np.diag(np.eye(H.dim)[0]), opnorm_bound=1.0)
    series = otoc_series(prop, W, psi, times=np.array([0.0, 1.0]))
    assert series.metadata["eigensolver"] == "dense"


def test_decoupled_cells_take_the_tridiagonal_solver():
    # nu = 0 zeroes every intracell bond, so the subdiagonal has zeros
    H = build_ssh(30, 0.0)
    prop = spectral_decompose(H)
    assert prop.eigensolver == "tridiagonal"
    dense = dense_propagator(H)
    assert np.abs(prop.eigenvalues - dense.eigenvalues).max() <= 1e-13
    V = prop.eigenvectors
    assert np.linalg.norm(H.entries @ V - V * prop.eigenvalues) <= 1e-12
    psi = basis_state(H.layout, 2, "B")
    W = site_projector(H.layout, [[3, "A"]])
    times = TimeGrid(t_max=20.0, dt=0.5).times()
    got = otoc_series(prop, W, psi, times=times).values
    want = otoc_series(dense, W, psi, times=times).values
    assert np.abs(got - want).max() <= 1e-12
