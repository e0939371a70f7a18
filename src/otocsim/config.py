"""Strict JSON config ingestion.

A run config is a mapping with sections model/params/initial_state/w_operator
and optional disorder/time_grid/observable/sweep. Validation is strict:
unknown keys anywhere are rejected, and every error message names the
offending field so the CLI can surface it verbatim.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json

OBSERVABLES = ("long_time_limit", "time_average", "full_series")
# relative slack on "t_max is a multiple of dt", for decimal steps like 0.2
_GRID_SLACK = 1e-9


class ConfigError(ValueError):
    """Schema violation; the message names the offending field."""


_MODEL_PARAMS = {
    "ssh": (("N", "nu"), ("eta", "epsilon")),
    "nonhermitian_ssh": (("N", "nu", "delta"), ("epsilon",)),
    "creutz": (("N", "eta0", "eta0p"), ()),
    "haldane": (("Nx", "Ny", "eta1", "eta2", "phi", "mu"), ()),
    "qwz": (("Nx", "Ny", "eta0", "mu_p"), ()),
    "ssh2d": (("Nx", "Ny", "nu_p", "w"), ()),
    "extended_chain": (("N", "nu"), ("epsilon",)),
}
_INT_PARAMS = {"N", "Nx", "Ny"}
_POSITIVE_PARAMS = {"epsilon", "w"}

_TOP_KEYS = ("model", "params", "disorder", "initial_state", "w_operator",
             "time_grid", "observable", "sweep")

_STATE_FIELDS = {
    "basis": (("cell",), ("sublattice",)),
    "index": (("index",), ()),
    "site": (("x", "y"), ()),
    "staggered": (("M",), ("flavor",)),
    "eigenstate": ((), ("project_a", "degeneracy_tol")),
}
_W_FIELDS = {
    "site_projector": (("sites",), ()),
    "sublattice_projector": (("sublattice",), ()),
    "chiral_partial": ((), ("j",)),
    "index_projector": (("indices",), ()),
    "identity": ((), ()),
}


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping")
    return value


def _check_keys(section: dict, where: str, required, optional) -> None:
    for key in section:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown key {key!r} in {where}")
    for key in required:
        if key not in section:
            raise ConfigError(f"{where}.{key} is required")


def _number(value, where: str, integer: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    if integer:
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{where} must be an integer")
        return int(value)
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        raise ConfigError(f"{where} must be finite")
    return value


def _param(model: str, key: str, value, where: str):
    """One model parameter, checked as params.<key> is: an integer for
    N/Nx/Ny, positive for epsilon/w and for nu on the extended chain."""
    value = _number(value, where, integer=key in _INT_PARAMS)
    if key in _POSITIVE_PARAMS and value <= 0:
        raise ConfigError(f"{where} must be positive")
    if model == "extended_chain" and key == "nu" and value <= 0:
        raise ConfigError(f"{where} must be positive for the extended chain benchmark")
    return value


def _strength(value, where: str) -> float:
    value = _number(value, where)
    if value < 0:
        raise ConfigError(f"{where} must be nonnegative")
    return value


def _validate_model(cfg: dict) -> None:
    model = cfg.get("model")
    if model is None:
        raise ConfigError("model is required")
    if model not in _MODEL_PARAMS:
        raise ConfigError(f"model must be one of {sorted(_MODEL_PARAMS)}, got {model!r}")
    params = _require_mapping(cfg.get("params", {}), "params")
    required, optional = _MODEL_PARAMS[model]
    _check_keys(params, "params", required, optional)
    for key, value in list(params.items()):
        params[key] = _param(model, key, value, f"params.{key}")
    cfg["params"] = params


def _validate_disorder(cfg: dict) -> None:
    dis = cfg.get("disorder")
    if dis is None:
        return
    dis = _require_mapping(dis, "disorder")
    _check_keys(dis, "disorder", (), ("d", "d1", "d2", "seed", "seed0", "n_configs"))
    if "d" in dis:
        if "d1" in dis or "d2" in dis:
            raise ConfigError("disorder.d excludes disorder.d1/d2")
        d = _strength(dis.pop("d"), "disorder.d")
        # convention d2 = 2*d1 = d
        dis["d1"], dis["d2"] = d / 2.0, d
    elif "d1" in dis and "d2" in dis:
        dis["d1"] = _strength(dis["d1"], "disorder.d1")
        dis["d2"] = _strength(dis["d2"], "disorder.d2")
    else:
        raise ConfigError("disorder needs either d or both d1 and d2")
    has_seed = "seed" in dis
    has_ensemble = "seed0" in dis or "n_configs" in dis
    if has_seed and has_ensemble:
        raise ConfigError("disorder.seed excludes disorder.seed0/n_configs")
    if not has_seed and not has_ensemble:
        raise ConfigError("disorder needs seed (single run) or seed0 and n_configs (ensemble)")
    if has_seed:
        dis["seed"] = _number(dis["seed"], "disorder.seed", integer=True)
    else:
        if "seed0" not in dis or "n_configs" not in dis:
            raise ConfigError("disorder ensemble needs both seed0 and n_configs")
        dis["seed0"] = _number(dis["seed0"], "disorder.seed0", integer=True)
        dis["n_configs"] = _number(dis["n_configs"], "disorder.n_configs", integer=True)
        if dis["n_configs"] < 1:
            raise ConfigError("disorder.n_configs must be at least 1")
    if cfg.get("model") != "ssh":
        raise ConfigError("disorder is only supported for model 'ssh'")
    cfg["disorder"] = dis


def _validate_state(cfg: dict) -> None:
    state = _require_mapping(cfg.get("initial_state"), "initial_state")
    kind = state.get("kind")
    if kind not in _STATE_FIELDS:
        raise ConfigError(f"initial_state.kind must be one of {sorted(_STATE_FIELDS)}, got {kind!r}")
    required, optional = _STATE_FIELDS[kind]
    _check_keys(state, "initial_state", ("kind",) + required, optional)
    if kind == "index":
        state["index"] = _number(state["index"], "initial_state.index", integer=True)
    if kind == "site":
        state["x"] = _number(state["x"], "initial_state.x", integer=True)
        state["y"] = _number(state["y"], "initial_state.y", integer=True)
    if kind == "staggered":
        state["M"] = _number(state["M"], "initial_state.M", integer=True)


def _validate_w(cfg: dict) -> None:
    w = _require_mapping(cfg.get("w_operator"), "w_operator")
    kind = w.get("kind")
    if kind not in _W_FIELDS:
        raise ConfigError(f"w_operator.kind must be one of {sorted(_W_FIELDS)}, got {kind!r}")
    required, optional = _W_FIELDS[kind]
    _check_keys(w, "w_operator", ("kind",) + required, optional)
    if kind == "site_projector":
        if not isinstance(w["sites"], list) or not w["sites"]:
            raise ConfigError("w_operator.sites must be a nonempty list")
    if kind == "index_projector":
        if not isinstance(w["indices"], list) or not w["indices"]:
            raise ConfigError("w_operator.indices must be a nonempty list")


def _validate_time_grid(cfg: dict) -> None:
    tg = _require_mapping(cfg.get("time_grid", {}), "time_grid")
    _check_keys(tg, "time_grid", (), ("t_max", "dt"))
    tg.setdefault("t_max", 400.0)
    tg.setdefault("dt", 0.2)
    tg["t_max"] = _number(tg["t_max"], "time_grid.t_max")
    tg["dt"] = _number(tg["dt"], "time_grid.dt")
    if tg["t_max"] <= 0 or tg["dt"] <= 0:
        raise ConfigError("time_grid.t_max and time_grid.dt must be positive")
    if tg["dt"] > tg["t_max"]:
        raise ConfigError("time_grid.dt must not exceed time_grid.t_max")
    steps = tg["t_max"] / tg["dt"]
    if abs(steps - round(steps)) > _GRID_SLACK * steps:
        raise ConfigError(f"time_grid.dt must divide time_grid.t_max "
                          f"(t_max / dt = {steps:.6g})")
    cfg["time_grid"] = tg


def _validate_observable(cfg: dict) -> None:
    obs = _require_mapping(cfg.get("observable", {}), "observable")
    _check_keys(obs, "observable", (), ("name", "tail_fraction"))
    obs.setdefault("name", "long_time_limit")
    if obs["name"] not in OBSERVABLES:
        raise ConfigError(f"observable.name must be one of {OBSERVABLES}, got {obs['name']!r}")
    if "tail_fraction" in obs:
        obs["tail_fraction"] = _number(obs["tail_fraction"], "observable.tail_fraction")
        if not 0 < obs["tail_fraction"] <= 1:
            raise ConfigError("observable.tail_fraction must lie in (0, 1]")
    cfg["observable"] = obs


def _validate_sweep(cfg: dict, model: str) -> None:
    sweep = cfg.get("sweep")
    if sweep is None:
        return
    sweep = _require_mapping(sweep, "sweep")
    _check_keys(sweep, "sweep", ("axis1",), ("axis2",))
    param_names = set(_MODEL_PARAMS[model][0]) | set(_MODEL_PARAMS[model][1])
    for label in ("axis1", "axis2"):
        axis = sweep.get(label)
        if axis is None:
            continue
        axis = _require_mapping(axis, f"sweep.{label}")
        _check_keys(axis, f"sweep.{label}", ("name", "values"), ())
        name = axis["name"]
        if name not in param_names and name not in ("t", "d"):
            raise ConfigError(f"sweep.{label}.name {name!r} is not a parameter of model {model!r}")
        if name == "d" and cfg.get("disorder") is None:
            raise ConfigError("sweep axis 'd' requires a disorder section")
        values = axis["values"]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.{label}.values must be a nonempty list")
        check = {"t": _number, "d": _strength}.get(
            name, functools.partial(_param, model, name))
        # the values stay floats: the sweep assigns every axis value as one
        axis["values"] = [float(check(v, f"sweep.{label}.values[{i}]"))
                          for i, v in enumerate(values)]
    cfg["sweep"] = sweep


def validate_config(cfg: dict, require_run: bool = True) -> dict:
    """Validate and normalize; returns a deep copy with defaults filled in."""
    cfg = copy.deepcopy(_require_mapping(cfg, "config"))
    for key in cfg:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown key {key!r} at top level")
    _validate_model(cfg)
    _validate_disorder(cfg)
    if require_run:
        if "initial_state" not in cfg:
            raise ConfigError("initial_state is required")
        if "w_operator" not in cfg:
            raise ConfigError("w_operator is required")
        _validate_state(cfg)
        _validate_w(cfg)
    _validate_time_grid(cfg)
    _validate_observable(cfg)
    _validate_sweep(cfg, cfg["model"])
    return cfg


def load_config(path: str, require_run: bool = True) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    return validate_config(raw, require_run=require_run)


def fingerprint(cfg: dict) -> str:
    """sha256 of the canonical JSON form (sorted keys, no whitespace)."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canon.encode()).hexdigest()
