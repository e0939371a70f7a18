"""Property test of the config schema: every config drawn from the schema
tables, with valid or invalid values per field, either runs or is refused
with its documented exit code, and an exit-2 message names a field."""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from otocsim import cli, config
from otocsim.config import ConfigError, validate_config
from otocsim.dynamics import EigensolverError
from otocsim.pipeline import run_point

NUMERICAL = (EigensolverError, FloatingPointError, np.linalg.LinAlgError)
SECTIONS = re.compile(r"\b(%s)\b" % "|".join(config._TOP_KEYS))

small_float = st.floats(min_value=-2.0, max_value=2.0)
positive_float = st.floats(min_value=0.1, max_value=2.0)
cell = st.one_of(st.integers(0, 4), st.lists(st.integers(0, 4), min_size=1, max_size=2))
sublattice = st.one_of(st.sampled_from(["A", "B", "1", "2", "3", "4", "C"]),
                       st.integers(0, 4))
# Valid values: the type each field asks for, in and around the range a
# small lattice addresses.
VALID = {
    "N": st.one_of(st.integers(1, 6), st.sampled_from([4.0])),
    "Nx": st.integers(1, 3), "Ny": st.integers(1, 3),
    "epsilon": positive_float, "w": positive_float,
    "cell": cell, "sublattice": sublattice,
    "index": st.integers(-1, 40), "x": st.integers(0, 7), "y": st.integers(0, 7),
    "M": st.integers(0, 4), "flavor": st.sampled_from(["ssh_A", "creutz_AB"]),
    "project_a": st.booleans(), "degeneracy_tol": st.floats(0.0, 1.0),
    "sites": st.lists(st.tuples(cell, sublattice).map(list), min_size=1, max_size=3),
    "j": st.sampled_from([2, 3, 3.0]),
    "indices": st.lists(st.integers(-1, 40), min_size=1, max_size=3),
}
INVALID = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10 ** 400, 10 ** 400),
    st.lists(st.one_of(st.integers(-3, 3), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@st.composite
def fields(draw, table, key):
    """One kind of a schema table with its fields: each required field
    present, each optional one maybe, and any of them maybe invalid."""
    out = {"kind": key}
    required, optional = table[key]
    for name in [*required, *(o for o in optional if draw(st.booleans()))]:
        valid = VALID.get(name, small_float)
        out[name] = draw(st.one_of(valid, INVALID) if draw(st.integers(0, 5)) == 0
                         else valid)
    return out


@st.composite
def configs(draw):
    model = draw(st.sampled_from(sorted(config._MODEL_PARAMS)))
    required, optional = config._MODEL_PARAMS[model]
    params = {name: draw(VALID.get(name, small_float))
              for name in [*required, *(o for o in optional if draw(st.booleans()))]}
    state_kind = draw(st.sampled_from(sorted(config._STATE_FIELDS)))
    w_kind = draw(st.sampled_from(sorted(config._W_FIELDS)))
    cfg = {"model": model, "params": params,
           "initial_state": draw(fields(config._STATE_FIELDS, state_kind)),
           "w_operator": draw(fields(config._W_FIELDS, w_kind)),
           "time_grid": {"t_max": 2.0, "dt": draw(st.sampled_from([0.5, 1.0]))}}
    if draw(st.integers(0, 9)) == 0:
        cfg[draw(st.sampled_from(["initial_state", "w_operator"]))]["extra"] = 1
    return cfg


@settings(max_examples=300, derandomize=True)
@given(configs())
def test_every_drawn_config_runs_or_is_refused_naming_a_field(cfg):
    try:
        run_point(validate_config(cfg))
    except (ConfigError, *NUMERICAL):
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["otoc", "--config", str(path),
                             "--out", str(Path(tmp) / "run.csv")])
    assert code in (0, 1, 2)
    if code == 2:
        assert SECTIONS.search(err.getvalue()), err.getvalue()


def run_cli(command: str, cfg: dict) -> tuple:
    """Exit code and stderr of one subcommand on cfg, in a scratch directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(path),
                             "--out", str(Path(tmp) / "out.csv")])
    return code, err.getvalue()


def rarely(n: int):
    """True in about one draw of n."""
    return st.sampled_from([False] * (n - 1) + [True])


@st.composite
def axis(draw, model, repeat=None):
    """A sweep axis named 't', after one of the model's params or 'd', or
    in about half the draws the name given as repeat, with one to three
    values, any of them maybe invalid."""
    required, optional = config._MODEL_PARAMS[model]
    name = draw(st.sampled_from(["t", *required, *optional, "d"]))
    if repeat is not None and draw(st.booleans()):
        name = repeat
    valid = {"t": st.sampled_from([0.0, 0.5, 2.0]),
             "d": st.floats(0.0, 1.0)}.get(name, VALID.get(name, small_float))
    value = st.one_of(valid, INVALID) if draw(rarely(10)) else valid
    return {"name": name, "values": draw(st.lists(value, min_size=1, max_size=3))}


SIZES = {"N": st.integers(2, 6), "Nx": st.integers(2, 3), "Ny": st.integers(2, 3)}
SAFE_RUN = {"initial_state": {"kind": "index", "index": 0},
            "w_operator": {"kind": "index_projector", "indices": [0]}}
DISORDER = st.sampled_from([{"d": 0.5, "seed": 3}, {"d": 0.5, "seed0": 1, "n_configs": 2},
                            {"d1": 0.2, "d2": 0.4, "seed": 3}, {"d": 0.5}])


@st.composite
def sweep_configs(draw):
    """A config of the first test on a lattice of at least two cells a side,
    mostly with a state and probe every model has, and a sweep of one or two axes whose names may repeat; some draws
    set the observable and some add a disorder section, mostly on ssh."""
    cfg = draw(configs())
    cfg["params"].update({k: draw(SIZES[k]) for k in sorted(SIZES.keys() & cfg["params"].keys())})
    if not draw(rarely(4)):
        cfg.update(SAFE_RUN)
    cfg["sweep"] = {"axis1": draw(axis(cfg["model"]))}
    if draw(st.booleans()):
        cfg["sweep"]["axis2"] = draw(axis(cfg["model"], cfg["sweep"]["axis1"]["name"]))
    if draw(st.booleans()):
        cfg["observable"] = {"name": draw(st.sampled_from(config.OBSERVABLES))}
    if draw(rarely(2 if cfg["model"] == "ssh" else 8)):
        cfg["disorder"] = draw(DISORDER)
    return cfg


@settings(max_examples=100, derandomize=True, deadline=None)
@given(sweep_configs())
def test_every_drawn_sweep_runs_or_is_refused_naming_a_section(cfg):
    code, err = run_cli("sweep", cfg)
    assert code in (0, 1, 2), err
    if code == 2:
        assert SECTIONS.search(err), err
