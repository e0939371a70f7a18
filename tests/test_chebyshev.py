"""The Chebyshev propagator: its quadrature against the Bessel sum it
evaluates, its term count, its agreement with dense eigh on real and complex
moments, and the cost rule that picks it inside run_point."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from otocsim import analytic, dynamics, pipeline
from otocsim.dynamics import evolve, otoc_series, spectral_decompose
from otocsim.lattice import (HamiltonianMatrix, LatticeLayout, build_creutz,
                             build_haldane, build_qwz, build_ssh, build_ssh2d)
from otocsim.operators import (OperatorMatrix, StateVector, basis_state,
                               site_projector, staggered_state)


@pytest.fixture
def always_chebyshev(monkeypatch):
    """A zero cost constant makes the rule pick the series at any size."""
    monkeypatch.setattr(dynamics, "_CHEBYSHEV_COST", 0)


@pytest.mark.parametrize("x", [0.0, 1e-8, 0.6, 31.0, 310.0, 1000.0])
@pytest.mark.parametrize("dtype", [float, complex])
def test_quadrature_matches_the_bessel_sum(x, dtype):
    # random moments with |mu_n| <= 1, at x, -x and inside, and on a uniform
    # grid long enough for the block loop
    rng = np.random.default_rng(int(x) + 11)
    M = dynamics._chebyshev_terms(x)
    mu = rng.uniform(-1, 1, (M, 3))
    if dtype is complex:
        mu = mu * np.exp(2j * np.pi * rng.random((M, 3)))
    n = np.arange(M)
    coef = np.where(n == 0, 1, 2) * (-1j) ** (n % 4)
    for tau in (np.array([x, -x, x / 3, 0.0]), np.linspace(-x, x, 9)):
        want = (scipy.special.jv(n[None, :], tau[:, None]) @ (coef[:, None] * mu)).T
        got = dynamics._chebyshev_sum(mu, 1.0, tau)
        assert got.shape == (3, tau.size)
        assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("x", [0.0, 1e-8, 0.6, 31.0, 310.0, 1000.0])
def test_term_count_bounds_the_dropped_tail(x):
    M = dynamics._chebyshev_terms(x)
    tail = 2 * np.abs(scipy.special.jv(np.arange(M, M + 200), x)).sum()
    assert tail < dynamics._CHEBYSHEV_TOL
    assert M <= 1.4 * x + 40      # the bound is loose, but not by much


def probe(dim, rows, weights=None):
    w = np.zeros(dim)
    w[rows] = 1.0 if weights is None else weights
    return OperatorMatrix(dim=dim, entries=np.diag(w), opnorm_bound=1.0)


LATTICES = {
    "ssh2d": lambda: build_ssh2d(4, 3, 0.7, 1.0),
    "haldane": lambda: build_haldane(4, 3, 1.0, 0.3, np.pi / 3, 0.2),
    "qwz": lambda: build_qwz(4, 4, 1.0, 1.2),
}
TIMES = {
    "uniform": np.arange(501) * 0.2,
    "nonuniform": np.array([0.0, 0.05, 0.3, 1.7, 2.0, 9.5, 40.0, 41.3]),
    "negative": np.array([-30.0, -7.5, -0.2, 0.0, 0.4, 12.0]),
    "zero_only": np.array([0.0]),
}


@pytest.mark.parametrize("times", sorted(TIMES))
@pytest.mark.parametrize("model", sorted(LATTICES))
def test_series_matches_dense(always_chebyshev, model, times):
    H = LATTICES[model]()
    t = TIMES[times]
    amplitudes = np.zeros(H.dim, dtype=complex)
    amplitudes[[0, 5]] = [0.6, 0.8j]
    psi = StateVector(dim=H.dim, amplitudes=amplitudes)
    W = probe(H.dim, [1, 2, 7], [1.0, 0.5, 0.25])      # three rows
    prop = spectral_decompose(H, W, t)
    assert prop.kind == "chebyshev"
    got = otoc_series(prop, W, psi, times=t)
    want = otoc_series(spectral_decompose(H), W, psi, times=t)
    assert np.abs(got.amplitudes - want.amplitudes).max() <= 1e-12
    assert np.abs(got.values - want.values).max() <= 1e-12
    assert got.metadata["propagator"] == "chebyshev"
    assert got.metadata["chebyshev_scale"] == prop.scale
    assert got.metadata["chebyshev_terms"] == dynamics._chebyshev_terms(
        prop.scale * np.abs(t).max() / H.energy_unit)


def random_sparse_hermitian():
    """A complex Hermitian matrix with about 5% of its entries set, their
    magnitudes spread over six decades."""
    rng = np.random.default_rng(7)
    dim = 200
    mask = np.triu(rng.random((dim, dim)) < 0.05, 1)
    A = np.where(mask, (rng.standard_normal((dim, dim))
                        + 1j * rng.standard_normal((dim, dim)))
                 * 10.0 ** rng.uniform(-3, 3, (dim, dim)), 0)
    A = A + A.conj().T + np.diag(rng.standard_normal(dim))
    layout = LatticeLayout(kind="chain1d", cells_x=dim, cells_y=1,
                           sublattices=1, sublattice_names=("s",))
    return HamiltonianMatrix(dim=dim, entries=A, hermitian=True, layout=layout)


SCALED = {
    "ssh2d": lambda: build_ssh2d(20, 20, 0.55, 1.0),
    "haldane": lambda: build_haldane(9, 8, 1.0, 0.3, 0.7, 0.2),
    "qwz": lambda: build_qwz(10, 10, 1.0, 1.2),
    "random_complex": random_sparse_hermitian,
}


@pytest.mark.parametrize("model", sorted(SCALED))
def test_scale_bounds_the_spectrum(always_chebyshev, model):
    # the scale is the largest row sum of |H_ij| raised by a few ulps, never
    # below the correctly rounded sum
    H = SCALED[model]()
    prop = spectral_decompose(H, probe(H.dim, [0]), np.array([0.0, 1.0]))
    assert prop.kind == "chebyshev"
    per_row = np.split(np.abs(H.values), np.searchsorted(H.rows, np.arange(1, H.dim)))
    largest = max(math.fsum(row) for row in per_row)
    assert largest <= prop.scale <= largest * (1 + 1e-12)
    assert np.abs(np.linalg.eigvalsh(H.entries)).max() <= prop.scale


def test_real_and_complex_moments_agree(always_chebyshev, monkeypatch):
    # psi0 and exp(i phi) psi0 give one O(t); the first takes float64 moments
    H = SCALED["ssh2d"]()
    W = probe(H.dim, [2])
    t = TIMES["uniform"]
    prop = spectral_decompose(H, W, t)
    amplitudes = np.zeros(H.dim, dtype=complex)
    amplitudes[0] = 1.0                         # the corner site
    psi = StateVector(dim=H.dim, amplitudes=amplitudes)
    turned = StateVector(dim=H.dim, amplitudes=np.exp(0.7j) * amplitudes)
    dtypes = []
    original = dynamics._chebyshev_sum

    def record(mu, *args):
        dtypes.append(mu.dtype)
        return original(mu, *args)

    monkeypatch.setattr(dynamics, "_chebyshev_sum", record)
    plain = otoc_series(prop, W, psi, times=t)
    phased = otoc_series(prop, W, turned, times=t)
    assert dtypes == [np.float64, np.complex128]
    assert np.abs(plain.values - phased.values).max() <= 1e-12


@pytest.mark.parametrize("H, flavor", [(build_ssh(12, 0.6), "ssh_A"),
                                       (build_creutz(12, 1.0, 0.5), "creutz_AB")])
def test_staggered_state_matches_dense(always_chebyshev, H, flavor):
    psi = staggered_state(H.layout, 3, flavor=flavor)
    W = site_projector(H.layout, [[1, "A"]])
    t = TIMES["uniform"]
    got = otoc_series(spectral_decompose(H, W, t), W, psi, times=t)
    want = otoc_series(spectral_decompose(H), W, psi, times=t)
    assert got.metadata["propagator"] == "chebyshev"
    assert np.abs(got.values - want.values).max() <= 1e-12


def test_evolve_matches_dense(always_chebyshev):
    H = LATTICES["haldane"]()
    W = probe(H.dim, [0])
    cheb = spectral_decompose(H, W, np.array([0.0, 50.0]))
    dense = spectral_decompose(H)
    psi = basis_state(H.layout, (1, 1), "A")
    for t in (-13.0, 0.0, 0.7, 50.0):
        a = evolve(cheb, psi, t).amplitudes
        b = evolve(dense, psi, t).amplitudes
        assert np.abs(a - b).max() <= 1e-12


def test_series_matches_the_closed_form(always_chebyshev):
    # the `otocsim validate` point, evaluated by the series
    system = analytic.analytic_eigenpairs(200, 0.5, 1.0)
    point = {"model": "extended_chain", "params": {"N": 200, "nu": 0.5},
             "initial_state": {"kind": "index", "index": 0},
             "w_operator": {"kind": "index_projector", "indices": [0]},
             "time_grid": {"t_max": 400.0, "dt": 0.2}}
    series = pipeline.run_point(point)
    assert series.metadata["propagator"] == "chebyshev"
    closed = analytic.otoc_site_closed_form(system, series.times, L=1, M=1)
    assert np.abs(series.values - closed).max() <= 1e-10


def test_dense_probe_matches_dense(always_chebyshev):
    # the series is picked for a diagonal probe, but evolves any row
    H = LATTICES["haldane"]()
    t = TIMES["uniform"]
    cheb = spectral_decompose(H, probe(H.dim, [0]), t)
    assert cheb.kind == "chebyshev"
    W = OperatorMatrix(dim=H.dim, entries=np.ones((H.dim, H.dim)) / H.dim,
                       opnorm_bound=1.0)
    psi = basis_state(H.layout, (1, 1), "A")
    got = otoc_series(cheb, W, psi, times=t)
    want = otoc_series(spectral_decompose(H), W, psi, times=t)
    assert np.abs(got.amplitudes - want.amplitudes).max() <= 1e-12


def corner_config():
    return {"model": "ssh2d", "params": {"Nx": 20, "Ny": 20, "nu_p": 0.55, "w": 1.0},
            "initial_state": {"kind": "site", "x": 1, "y": 1},
            "w_operator": {"kind": "index_projector", "indices": [2]},
            "time_grid": {"t_max": 100.0, "dt": 0.2}}


def disorder_member_config():
    return {"model": "ssh", "params": {"N": 200, "nu": 0.6},
            "initial_state": {"kind": "basis", "cell": 1, "sublattice": "A"},
            "w_operator": {"kind": "site_projector", "sites": [[1, "A"]]},
            "time_grid": {"t_max": 400.0, "dt": 0.2},
            "disorder": {"d1": 1.0, "d2": 2.0, "seed": 2000}}


def kind_of(cfg):
    return pipeline.run_point(cfg).metadata["propagator"]


def test_cost_rule_picks_the_series_for_the_corner_probe():
    assert kind_of(corner_config()) == "chebyshev"


@pytest.mark.parametrize("nu_p, M", [(0.55, 452), (0.90, 548)])
def test_term_count_at_the_corner_scan_end_points(nu_p, M):
    # M follows the scale: a change to the scale that moves M shows here
    cfg = corner_config()
    cfg["params"]["nu_p"] = nu_p
    series = pipeline.run_point(cfg)
    assert series.metadata["propagator"] == "chebyshev"
    assert series.metadata["chebyshev_terms"] == M


def test_cost_rule_keeps_eigh_for_a_disorder_member():
    series = pipeline.run_point(disorder_member_config())
    assert series.metadata["propagator"] == "hermitian_spectral"
    assert series.metadata["eigensolver"] == "tridiagonal"


def clean_chain_config(N):
    return {"model": "ssh", "params": {"N": N, "nu": 0.5},
            "initial_state": {"kind": "basis", "cell": 1, "sublattice": "A"},
            "w_operator": {"kind": "site_projector", "sites": [[1, "A"]]},
            "time_grid": {"t_max": 400.0, "dt": 0.2}}


def test_cost_rule_prices_a_chain_by_the_tridiagonal_solver():
    # a dim-1000 chain weighs 5.1e8 against dim^3 = 1e9, which would pick the
    # series, but against 300 * dim^2 = 3e8 for the tridiagonal solver
    series = pipeline.run_point(clean_chain_config(500))
    assert series.metadata["propagator"] == "hermitian_spectral"
    assert series.metadata["eigensolver"] == "tridiagonal"


def test_cost_rule_picks_the_series_for_a_long_chain():
    cfg = clean_chain_config(2000)                       # dim 4000
    H = pipeline.build_hamiltonian(cfg["model"], cfg["params"])
    W = pipeline.build_w_operator(H, cfg["w_operator"])
    times = dynamics.TimeGrid(t_max=400.0, dt=0.2).times()
    assert spectral_decompose(H, W, times).kind == "chebyshev"


@pytest.mark.parametrize("case", ["eigenstate", "chiral_partial", "nonhermitian"])
def test_paths_the_series_never_takes(always_chebyshev, case):
    cfg = {"model": "ssh", "params": {"N": 20, "nu": 0.6},
           "initial_state": {"kind": "basis", "cell": 1, "sublattice": "A"},
           "w_operator": {"kind": "site_projector", "sites": [[1, "A"]]},
           "time_grid": {"t_max": 20.0, "dt": 0.2}}
    want = "hermitian_spectral"
    if case == "eigenstate":
        cfg["initial_state"] = {"kind": "eigenstate"}
    elif case == "chiral_partial":
        cfg.update(model="creutz", params={"N": 20, "eta0": 1.0, "eta0p": 0.5},
                   w_operator={"kind": "chiral_partial", "j": 2})
    else:
        cfg.update(model="nonhermitian_ssh", params={"N": 20, "nu": 1.2, "delta": 0.4})
        want = "scaled_expm"
    assert kind_of(cfg) == want
    assert spectral_decompose(build_ssh(20, 0.6)).kind == "hermitian_spectral"


def test_huge_scale_leaves_the_series_without_a_term_search(tmp_path):
    # nu_p = 1e200 puts x = a * t_max near 1e200, where the search for M
    # would step by one for ever; the run goes to a child process so that a
    # hang fails here instead of holding the suite
    cfg = {"model": "ssh2d", "params": {"Nx": 4, "Ny": 4, "nu_p": 1e200, "w": 1.0},
           "initial_state": {"kind": "site", "x": 1, "y": 1},
           "w_operator": {"kind": "index_projector", "indices": [2]},
           "time_grid": {"t_max": 1.0, "dt": 0.2}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "otocsim", "otoc", "--config", str(path),
         "--out", str(tmp_path / "run.csv"), "--json", str(tmp_path / "run.json")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    metadata = json.loads((tmp_path / "run.json").read_text())["metadata"]
    assert metadata["propagator"] == "hermitian_spectral"
