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
import math
import sys

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
# Sites per cell of each model's lattice (the extended chain has one more in
# all). numpy makes no array of more than sys.maxsize (np.iinfo(np.intp).max)
# bytes, so a lattice whose complex vector would pass that is refused here.
_CELL_SITES = {"ssh": 2, "nonhermitian_ssh": 2, "creutz": 2, "haldane": 2,
               "qwz": 2, "ssh2d": 4, "extended_chain": 2}
_MAX_SITES = sys.maxsize // 16
_POSITIVE_PARAMS = {"epsilon", "w"}

_TOP_KEYS = ("model", "params", "disorder", "initial_state", "w_operator",
             "time_grid", "observable", "sweep")


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
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be finite")
    if integer:
        if not _whole(value):
            raise ConfigError(f"{where} must be an integer")
        return int(value)
    return float(value)


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


def _choice(value, where: str, choices):
    if value not in choices:
        raise ConfigError(f"{where} must be one of {choices}, got {value!r}")
    return value


def _whole(value) -> bool:
    """An integer, or a float with an integral value."""
    return (value.is_integer() if isinstance(value, float)
            else isinstance(value, int) and not isinstance(value, bool))


def _cell(value) -> bool:
    return _whole(value) or (isinstance(value, list) and len(value) in (1, 2)
                             and all(map(_whole, value)))


def _sublattice(value) -> bool:
    return isinstance(value, str) or _whole(value)


def _site(value) -> bool:
    return (isinstance(value, list) and len(value) == 2 and _cell(value[0])
            and _sublattice(value[1]))


def _list_of(test):
    return lambda value: isinstance(value, list) and bool(value) and all(map(test, value))


# The test of each field and what it asks for, as (required, optional)
# fields per kind. A test only rejects, except that the fields tested by
# _whole (index, x, y, M) are made ints, as they always were.
_INTEGER = (_whole, "an integer")
_SUBLATTICE = (_sublattice, "a sublattice name or an integer")
_STATE_FIELDS = {
    "basis": ({"cell": (_cell, "an integer or an [x, y] pair of integers")},
              {"sublattice": _SUBLATTICE}),
    "index": ({"index": _INTEGER}, {}),
    "site": ({"x": _INTEGER, "y": _INTEGER}, {}),
    "staggered": ({"M": _INTEGER},
                  {"flavor": (lambda v: v in ("ssh_A", "creutz_AB"), "ssh_A or creutz_AB")}),
    "eigenstate": ({}, {
        "project_a": (lambda v: isinstance(v, bool), "true or false"),
        "degeneracy_tol": (lambda v: not isinstance(v, bool) and isinstance(v, (int, float))
                           and 0 <= v <= sys.float_info.max, "a finite nonnegative number")}),
}
_W_FIELDS = {
    "site_projector": ({"sites": (_list_of(_site), "a nonempty list of [cell, sublattice] pairs")},
                       {}),
    "sublattice_projector": ({"sublattice": _SUBLATTICE}, {}),
    "chiral_partial": ({}, {"j": (lambda v: v in (2, 3), "2 or 3")}),
    "index_projector": ({"indices": (_list_of(_whole), "a nonempty list of integers")}, {}),
    "identity": ({}, {}),
}


def _check_lattice(model: str, params: dict, axes=()) -> None:
    """The lattice of params, with each sweep axis (label, axis) over N, Nx
    or Ny at its largest value, has at most _MAX_SITES sites; a larger one
    is refused naming the fields that size it. A smaller one that memory
    cannot hold fails when it is built, as a MemoryError."""
    size = {key: (value, f"params.{key}")
            for key, value in params.items() if key in _INT_PARAMS}
    for label, axis in axes:
        if axis["name"] in _INT_PARAMS:
            size[axis["name"]] = (int(max(axis["values"])), f"sweep.{label}.values")
    if _CELL_SITES[model] * math.prod(n for n, _ in size.values()) > _MAX_SITES:
        fields = " and ".join(where for _, where in size.values())
        raise ConfigError(f"{fields}: a lattice of more than {_MAX_SITES} sites "
                          "is more than numpy can index")


def _validate_model(cfg: dict) -> None:
    model = _choice(cfg.get("model"), "model", sorted(_MODEL_PARAMS))
    params = _require_mapping(cfg.get("params", {}), "params")
    required, optional = _MODEL_PARAMS[model]
    _check_keys(params, "params", required, optional)
    for key, value in list(params.items()):
        params[key] = _param(model, key, value, f"params.{key}")
    _check_lattice(model, params)
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
    if "seed" in dis:
        if "seed0" in dis or "n_configs" in dis:
            raise ConfigError("disorder.seed excludes disorder.seed0/n_configs")
        dis["seed"] = _number(dis["seed"], "disorder.seed", integer=True)
    elif "seed0" in dis and "n_configs" in dis:
        dis["seed0"] = _number(dis["seed0"], "disorder.seed0", integer=True)
        dis["n_configs"] = _number(dis["n_configs"], "disorder.n_configs", integer=True)
        if dis["n_configs"] < 1:
            raise ConfigError("disorder.n_configs must be at least 1")
    elif "seed0" in dis or "n_configs" in dis:
        raise ConfigError("disorder ensemble needs both seed0 and n_configs")
    else:
        raise ConfigError("disorder needs seed (single run) or seed0 and n_configs (ensemble)")
    if cfg.get("model") != "ssh":
        raise ConfigError("disorder is only supported for model 'ssh'")
    cfg["disorder"] = dis


def _validate_kind(cfg: dict, section: str, fields: dict) -> None:
    """The section's kind and keys, and each field against its test."""
    if section not in cfg:
        raise ConfigError(f"{section} is required")
    spec = _require_mapping(cfg[section], section)
    required, optional = fields[_choice(spec.get("kind"), f"{section}.kind",
                                        sorted(fields))]
    _check_keys(spec, section, ("kind", *required), optional)
    for key, (test, what) in (required | optional).items():
        if key in spec and not test(spec[key]):
            raise ConfigError(f"{section}.{key} must be {what}, got {spec[key]!r}")
        if key in spec and test is _whole:
            spec[key] = int(spec[key])


def _validate_time_grid(cfg: dict) -> None:
    tg = _require_mapping(cfg.get("time_grid", {}), "time_grid")
    _check_keys(tg, "time_grid", (), ("t_max", "dt"))
    for key, default in (("t_max", 400.0), ("dt", 0.2)):
        tg[key] = _number(tg.get(key, default), f"time_grid.{key}")
    grid_steps(tg["t_max"], tg["dt"])
    cfg["time_grid"] = tg


def grid_steps(t_max: float, dt: float) -> int:
    """The number of steps dt from 0 to t_max: both positive, dt at most
    t_max and dividing it within _GRID_SLACK, else a ConfigError."""
    if t_max <= 0 or dt <= 0:
        raise ConfigError("time_grid.t_max and time_grid.dt must be positive")
    if dt > t_max:
        raise ConfigError("time_grid.dt must not exceed time_grid.t_max")
    steps = t_max / dt
    if abs(steps - round(steps)) > _GRID_SLACK * steps:
        raise ConfigError(f"time_grid.dt must divide time_grid.t_max "
                          f"(t_max / dt = {steps:.6g})")
    return round(steps)


def _validate_observable(cfg: dict) -> None:
    obs = _require_mapping(cfg.get("observable", {}), "observable")
    _check_keys(obs, "observable", (), ("name", "tail_fraction"))
    obs.setdefault("name", "long_time_limit")
    _choice(obs["name"], "observable.name", OBSERVABLES)
    if "tail_fraction" in obs:
        obs["tail_fraction"] = _number(obs["tail_fraction"], "observable.tail_fraction")
        if not 0 < obs["tail_fraction"] <= 1:
            raise ConfigError("observable.tail_fraction must lie in (0, 1]")
    cfg["observable"] = obs


def _validate_sweep(cfg: dict, model: str) -> None:
    """Each axis names a model parameter, 't' or 'd', and no name twice;
    full_series is a grid only along a 't' axis."""
    sweep = cfg.get("sweep")
    if sweep is None:
        return
    sweep = _require_mapping(sweep, "sweep")
    _check_keys(sweep, "sweep", ("axis1",), ("axis2",))
    param_names = _MODEL_PARAMS[model][0] + _MODEL_PARAMS[model][1] + ("t", "d")
    names = []
    for label in ("axis1", "axis2"):
        axis = sweep.get(label)
        if axis is None:
            continue
        axis = _require_mapping(axis, f"sweep.{label}")
        _check_keys(axis, f"sweep.{label}", ("name", "values"), ())
        name = axis["name"]
        if name not in param_names:
            raise ConfigError(f"sweep.{label}.name {name!r} is not a parameter of model {model!r}")
        if name in names:
            raise ConfigError(f"sweep.{label}.name {name!r} repeats sweep.axis1.name")
        names.append(name)
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
    if cfg["observable"]["name"] == "full_series" and "t" not in names:
        raise ConfigError("observable.name 'full_series' needs a sweep axis named 't'")
    _check_lattice(model, cfg["params"], sweep.items())
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
        _validate_kind(cfg, "initial_state", _STATE_FIELDS)
        _validate_kind(cfg, "w_operator", _W_FIELDS)
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
