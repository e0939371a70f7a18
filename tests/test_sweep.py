import numpy as np
import pytest

from otocsim import pipeline
from otocsim.config import ConfigError
from otocsim.dynamics import otoc_amplitude, spectral_decompose
from otocsim.ensemble import ensemble_average
from otocsim.pipeline import run_point
from otocsim.sweep import (SweepAxis, SweepError, SweepResult,
                           detect_transition, estimate_transition_powerlaw,
                           sweep)


def chain_cfg(N=40, t_max=60.0, **overrides):
    cfg = {"model": "ssh", "params": {"N": N, "nu": 0.5},
           "initial_state": {"kind": "basis", "cell": 1, "sublattice": "A"},
           "w_operator": {"kind": "site_projector", "sites": [[1, "A"]]},
           "time_grid": {"t_max": t_max, "dt": 0.5}}
    cfg.update(overrides)
    return cfg


def count_decompositions(monkeypatch) -> list:
    """Record every decomposition the pipeline makes in this process."""
    calls = []
    original = pipeline.spectral_decompose

    def counted(H):
        calls.append(H.dim)
        return original(H)

    monkeypatch.setattr(pipeline, "spectral_decompose", counted)
    return calls


def synthetic(xs, gs, name="nu"):
    return SweepResult(axis1=SweepAxis(name, np.asarray(xs, dtype=float)),
                       axis2=None, grid=np.asarray(gs, dtype=float),
                       observable="long_time_limit")


def test_single_point_sweep_matches_direct_run():
    cfg = chain_cfg(sweep={"axis1": {"name": "nu", "values": [0.7]}})
    res = sweep(cfg)
    direct_cfg = chain_cfg()
    direct_cfg["params"]["nu"] = 0.7
    assert res.grid[0] == run_point(direct_cfg, observable="long_time_limit")
    assert res.axis1.name == "nu" and res.axis2 is None
    assert res.observable == "long_time_limit"
    assert "fingerprint" in res.metadata


def test_plateau_contrast_across_the_transition():
    cfg = chain_cfg(N=200, t_max=400.0,
                    sweep={"axis1": {"name": "nu", "values": [0.5, 1.5]}})
    cfg["time_grid"]["dt"] = 0.2
    res = sweep(cfg)
    assert abs(res.grid[0] / 0.31640625 - 1.0) <= 0.1
    assert res.grid[1] <= 1e-3


def test_parallel_and_serial_grids_are_bit_identical():
    cfg = chain_cfg(N=50, sweep={
        "axis1": {"name": "nu", "values": [0.4, 0.7, 1.0, 1.3, 1.6]}})
    serial = sweep(cfg, workers=1)
    parallel = sweep(cfg, workers=2)
    assert (serial.grid == parallel.grid).all()


def test_one_decomposition_per_grid_point(monkeypatch):
    cfg = chain_cfg(N=20, sweep={
        "axis1": {"name": "nu", "values": [0.4, 0.8, 1.2, 1.6]}})
    calls = count_decompositions(monkeypatch)
    sweep(cfg, workers=1)
    assert len(calls) == 4


def test_time_axis_shares_one_decomposition(monkeypatch):
    ts = list(np.arange(0.0, 20.5, 0.5))
    cfg = chain_cfg(N=20, sweep={
        "axis1": {"name": "nu", "values": [0.5, 1.0, 1.5]},
        "axis2": {"name": "t", "values": ts}})
    calls = count_decompositions(monkeypatch)
    res = sweep(cfg)
    assert len(calls) == 3
    assert res.grid.shape == (3, len(ts))
    assert res.observable == "otoc"
    assert np.abs(res.grid[:, 0] - 1.0).max() <= 1e-12


def test_time_axis_first_transposes_grid():
    ts = list(np.arange(0.0, 10.5, 0.5))
    cfg = chain_cfg(N=20, sweep={
        "axis1": {"name": "t", "values": ts},
        "axis2": {"name": "nu", "values": [0.5, 1.5]}})
    res = sweep(cfg)
    assert res.grid.shape == (len(ts), 2)


def test_pure_time_axis_returns_series():
    ts = list(np.arange(0.0, 10.5, 0.5))
    cfg = chain_cfg(N=20, sweep={"axis1": {"name": "t", "values": ts}})
    res = sweep(cfg)
    assert res.grid.shape == (len(ts),)
    direct = run_point(chain_cfg(N=20), observable="full_series")
    np.testing.assert_allclose(res.grid, direct.values[:len(ts)], atol=1e-12)


def test_nonuniform_time_axis_steps_the_nonhermitian_chain():
    # the stepping path takes any time axis, recomputing its step factors
    # whenever the step changes
    ts = [0.0, 0.3, 1.0, 2.5, 2.7, 2.9, 7.0, 15.0]
    cfg = chain_cfg(model="nonhermitian_ssh",
                    params={"N": 60, "nu": 0.8, "delta": 0.4},
                    sweep={"axis1": {"name": "t", "values": ts}})
    res = sweep(cfg)
    H = pipeline.build_hamiltonian(cfg["model"], cfg["params"])
    prop = spectral_decompose(H)
    assert prop.kind == "scaled_expm"
    psi = pipeline.build_initial_state(H, cfg["initial_state"])
    W = pipeline.build_w_operator(H, cfg["w_operator"])
    want = [abs(otoc_amplitude(prop, W, psi, t)) ** 2 for t in ts]
    np.testing.assert_allclose(res.grid, want, rtol=0, atol=1e-10)


def test_eigenstate_reuses_the_decomposition(monkeypatch):
    calls = []
    original = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    cfg = chain_cfg(N=20, initial_state={"kind": "eigenstate"},
                    w_operator={"kind": "sublattice_projector", "sublattice": "A"})
    run_point(cfg)
    assert calls == [(40, 40)]


def test_disorder_strength_axis_sets_both_scales():
    cfg = chain_cfg(N=20, disorder={"d1": 0.0, "d2": 0.0, "seed": 5},
                    sweep={"axis1": {"name": "d", "values": [0.4]}})
    res = sweep(cfg)
    direct = chain_cfg(N=20, disorder={"d1": 0.2, "d2": 0.4, "seed": 5})
    assert res.grid[0] == run_point(direct, observable="long_time_limit")


def test_seeded_ensemble_inside_sweep():
    dis = {"d1": 0.25, "d2": 0.5, "n_configs": 2, "seed0": 7}
    cfg = chain_cfg(N=20, disorder=dis,
                    sweep={"axis1": {"name": "nu", "values": [0.3, 0.9]}})
    res = sweep(cfg)
    for i, nu in enumerate((0.3, 0.9)):
        member = chain_cfg(N=20, disorder=dis)
        member["params"]["nu"] = nu
        want = ensemble_average(member, n_configs=2, seed0=7).mean
        assert res.grid[i] == want


def test_time_axis_ensemble_rows_are_series_means():
    ts = list(np.arange(0.0, 10.5, 0.5))
    dis = {"d1": 0.25, "d2": 0.5, "n_configs": 3, "seed0": 2}
    cfg = chain_cfg(N=20, disorder=dis,
                    sweep={"axis1": {"name": "nu", "values": [0.3, 0.9]},
                           "axis2": {"name": "t", "values": ts}})
    res = sweep(cfg)
    for i, nu in enumerate((0.3, 0.9)):
        member = chain_cfg(N=20, disorder=dis)
        member["params"]["nu"] = nu
        want = ensemble_average(member, n_configs=3, seed0=2,
                                observable="full_series", times=ts).mean
        assert (res.grid[i] == want).all()


def test_failing_point_is_named():
    # N=1 is a config error at that point, so it stays a ConfigError
    cfg = chain_cfg(sweep={"axis1": {"name": "N", "values": [4, 1]}})
    with pytest.raises(ConfigError, match=r"\(N=1\)"):
        sweep(cfg)
    # below the exceptional point the series is unbounded: a numerical failure
    cfg = chain_cfg(model="nonhermitian_ssh",
                    params={"N": 20, "nu": 1.5, "delta": 0.4},
                    sweep={"axis1": {"name": "nu", "values": [1.5, 0.2]}})
    with pytest.raises(SweepError, match=r"\(nu=0.2\)"):
        sweep(cfg)


def test_sweep_requires_sweep_section():
    with pytest.raises(ValueError):
        sweep(chain_cfg())


def test_full_series_needs_time_axis():
    cfg = chain_cfg(observable={"name": "full_series"},
                    sweep={"axis1": {"name": "nu", "values": [0.5, 1.0]}})
    with pytest.raises(ValueError):
        sweep(cfg)


def test_axis_validation():
    with pytest.raises(ValueError):
        SweepAxis("nu", [])
    with pytest.raises(ValueError):
        SweepAxis("nu", [0.5, np.nan])
    with pytest.raises(ValueError):
        SweepResult(axis1=SweepAxis("nu", [1.0, 2.0]), axis2=None,
                    grid=np.zeros(3), observable="long_time_limit")


def test_crossing_by_linear_interpolation():
    res = synthetic([0.0, 1.0, 2.0, 3.0], [1.0, 0.8, 0.2, 0.0])
    assert detect_transition(res, threshold=0.5) == [pytest.approx(1.5)]
    # default threshold is 5% of the grid maximum
    assert detect_transition(res) == [pytest.approx(2.75)]


def test_crossing_edge_cases():
    assert detect_transition(synthetic([0.0, 1.0], [0.3, 0.3])) == []
    exact = detect_transition(synthetic([2.0, 3.0], [0.5, 0.2]), threshold=0.5)
    assert exact == [2.0]
    two = detect_transition(synthetic([0.0, 1.0, 2.0], [0.0, 1.0, 0.0]),
                            threshold=0.5)
    assert two == [pytest.approx(0.5), pytest.approx(1.5)]
    with pytest.raises(ValueError):
        detect_transition(synthetic([0.0, 1.0], [0.1, 0.9]), threshold=0.0)
    grid2d = SweepResult(axis1=SweepAxis("a", [1.0]), axis2=SweepAxis("b", [1.0]),
                         grid=np.zeros((1, 1)), observable="long_time_limit")
    with pytest.raises(ValueError):
        detect_transition(grid2d)


def test_powerlaw_estimator_recovers_synthetic_root():
    x = np.linspace(0.5, 0.9, 5)
    g = np.clip(1.0 - x ** 2, 0.0, None) ** 6
    est = estimate_transition_powerlaw(synthetic(x, g), power=6)
    assert est == pytest.approx(1.0, abs=1e-9)
    windowed = estimate_transition_powerlaw(synthetic(x, g), power=6,
                                            fit_window=(0.6, 0.8))
    assert windowed == pytest.approx(1.0, abs=1e-9)


def test_powerlaw_estimator_error_paths():
    x = np.linspace(0.5, 0.9, 5)
    with pytest.raises(ValueError):
        estimate_transition_powerlaw(synthetic(x, -np.ones(5)))
    with pytest.raises(ValueError):
        estimate_transition_powerlaw(synthetic(x, x ** 12))
    g = np.clip(1.0 - x ** 2, 0.0, None) ** 6
    with pytest.raises(ValueError):
        estimate_transition_powerlaw(synthetic(x, g), fit_window=(0.0, 0.1))
