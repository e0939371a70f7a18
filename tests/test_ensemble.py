import numpy as np
import pytest

from otocsim import pipeline
from otocsim.config import ConfigError
from otocsim.dynamics import EigensolverError
from otocsim.ensemble import (EnsembleError, draw_disorder, ensemble_average,
                              uniform_pm_half)
from otocsim.lattice import build_ssh
from otocsim.pipeline import run_point


def chain_cfg(**overrides):
    cfg = {"model": "ssh", "params": {"N": 30, "nu": 0.2},
           "initial_state": {"kind": "basis", "cell": 1, "sublattice": "A"},
           "w_operator": {"kind": "site_projector", "sites": [[1, "A"]]},
           "disorder": {"d1": 0.5, "d2": 1.0},
           "time_grid": {"t_max": 60.0, "dt": 0.5}}
    cfg.update(overrides)
    return cfg


def test_draws_are_deterministic_and_seed_sensitive():
    a = uniform_pm_half(42, 1000)
    b = uniform_pm_half(42, 1000)
    assert (a == b).all()
    assert (uniform_pm_half(43, 1000) != a).any()


def test_draw_statistics():
    u = uniform_pm_half(7, 100_000)
    assert u.min() >= -0.5 and u.max() < 0.5
    assert abs(u.mean()) <= 0.005


def test_disorder_realization_comes_from_one_stream():
    dis = draw_disorder(9, 12, 0.3, 0.6)
    assert dis.r.size == 11 and dis.r_prime.size == 12
    flat = uniform_pm_half(9, 23)
    np.testing.assert_array_equal(np.concatenate([dis.r, dis.r_prime]), flat)
    assert dis.d1 == 0.3 and dis.d2 == 0.6 and dis.seed == 9


def test_draw_disorder_validation():
    with pytest.raises(ValueError):
        draw_disorder(1, 1, 0.5, 0.5)
    with pytest.raises(ValueError):
        draw_disorder(1, 5, -0.1, 0.5)
    with pytest.raises(ValueError):
        draw_disorder(1, 5, 0.5, -0.1)


def test_zero_strength_disorder_leaves_chain_untouched():
    dis = draw_disorder(5, 10, 0.0, 0.0)
    dirty = build_ssh(10, 0.7, disorder=dis)
    clean = build_ssh(10, 0.7)
    assert (dirty.entries == clean.entries).all()


def test_single_member_ensemble_equals_direct_run():
    cfg = chain_cfg()
    res = ensemble_average(cfg, n_configs=1, seed0=11)
    direct = run_point(cfg, observable="long_time_limit", seed=11)
    assert res.mean == direct
    assert res.std == 0.0
    assert res.per_config == [direct]


def test_zero_strength_ensemble_has_no_spread():
    cfg = chain_cfg(disorder={"d1": 0.0, "d2": 0.0})
    res = ensemble_average(cfg, n_configs=4, seed0=0)
    assert res.std == 0.0
    assert len(set(res.per_config)) == 1
    clean = dict(cfg)
    clean.pop("disorder")
    assert res.per_config[0] == run_point(clean, observable="long_time_limit")


def test_weak_disorder_keeps_the_plateau():
    cfg = chain_cfg(params={"N": 200, "nu": 0.2},
                    time_grid={"t_max": 200.0, "dt": 0.5})
    res = ensemble_average(cfg, n_configs=10, seed0=1)
    assert res.mean > 0.1
    assert res.n_configs == 10 and res.seed0 == 1


def test_ensemble_is_bit_reproducible():
    cfg = chain_cfg()
    a = ensemble_average(cfg, n_configs=5, seed0=3)
    b = ensemble_average(cfg, n_configs=5, seed0=3)
    assert a.per_config == b.per_config
    assert a.mean == b.mean and a.std == b.std


def test_full_series_observable_stacks_curves():
    cfg = chain_cfg()
    res = ensemble_average(cfg, n_configs=3, seed0=2, observable="full_series")
    assert res.times is not None and res.times.size == 121
    assert len(res.per_config) == 3
    assert res.mean.shape == res.times.shape
    assert res.std.shape == res.times.shape
    np.testing.assert_allclose(res.mean,
                               np.mean(np.stack(res.per_config), axis=0))


def test_time_average_observable_routed():
    cfg = chain_cfg()
    res = ensemble_average(cfg, n_configs=2, seed0=4, observable="time_average")
    direct = run_point(cfg, observable="time_average", seed=4)
    assert res.per_config[0] == direct


def test_member_failure_carries_config_index(monkeypatch):
    # a numerical failure is wrapped with the member index; a config error
    # (such as duplicate projector indices) passes through unwrapped
    def failing(H):
        raise EigensolverError("no convergence")
    monkeypatch.setattr(pipeline, "spectral_decompose", failing)
    with pytest.raises(EnsembleError) as err:
        ensemble_average(chain_cfg(), n_configs=3, seed0=0)
    assert err.value.config_index == 0
    assert "config 0" in str(err.value)
    monkeypatch.undo()
    cfg = chain_cfg(w_operator={"kind": "index_projector", "indices": [1, 1]})
    with pytest.raises(ConfigError, match="duplicate indices"):
        ensemble_average(cfg, n_configs=3, seed0=0)


def test_unseeded_member_is_the_config_itself():
    cfg = chain_cfg(disorder={"d1": 0.5, "d2": 1.0, "seed": 6})
    ts = np.arange(0.0, 10.5, 0.5)
    res = ensemble_average(cfg, n_configs=1, seed0=None,
                           observable="full_series", times=ts)
    direct = run_point(cfg, seed=6, times=ts)
    np.testing.assert_array_equal(res.times, ts)
    np.testing.assert_array_equal(res.mean, direct.values)
    bad = dict(cfg, w_operator={"kind": "index_projector", "indices": [1, 1]})
    with pytest.raises(ValueError, match="^duplicate indices"):
        ensemble_average(bad, n_configs=1, seed0=None)
    with pytest.raises(ValueError):
        ensemble_average(cfg, n_configs=2, seed0=None)


def test_ensemble_argument_validation():
    with pytest.raises(ValueError):
        ensemble_average(chain_cfg(), n_configs=0)
    with pytest.raises(ValueError):
        ensemble_average(chain_cfg(), n_configs=2, observable="median")
