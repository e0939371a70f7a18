import json
import re
from pathlib import Path

import pytest

from otocsim.config import ConfigError, fingerprint, load_config, validate_config

DATA = Path(__file__).parent / "data"


def minimal(**overrides):
    cfg = {"model": "ssh", "params": {"N": 20, "nu": 0.5},
           "initial_state": {"kind": "basis", "cell": 1},
           "w_operator": {"kind": "site_projector", "sites": [[1, "A"]]}}
    cfg.update(overrides)
    return cfg


def test_defaults_are_filled_without_mutating_input():
    raw = minimal()
    out = validate_config(raw)
    assert out["time_grid"] == {"t_max": 400.0, "dt": 0.2}
    assert out["observable"] == {"name": "long_time_limit"}
    assert "time_grid" not in raw
    assert out is not raw


def test_unknown_keys_are_rejected_everywhere():
    cases = [
        minimal(extra=1),
        minimal(params={"N": 20, "nu": 0.5, "mass": 1.0}),
        minimal(initial_state={"kind": "basis", "cell": 1, "spin": 1}),
        minimal(w_operator={"kind": "identity", "j": 3}),
        minimal(disorder={"d": 1.0, "seed": 1, "shape": "box"}),
        minimal(time_grid={"t_max": 10.0, "steps": 5}),
        minimal(observable={"name": "time_average", "window": 2}),
        minimal(sweep={"axis1": {"name": "nu", "values": [1.0], "log": True}}),
    ]
    for cfg in cases:
        with pytest.raises(ConfigError, match="unknown key"):
            validate_config(cfg)


def test_missing_required_fields_are_named():
    with pytest.raises(ConfigError, match="model"):
        validate_config({"params": {"N": 4, "nu": 1.0}})
    with pytest.raises(ConfigError, match="params.nu"):
        validate_config(minimal(params={"N": 20}))
    with pytest.raises(ConfigError, match="initial_state"):
        validate_config({"model": "ssh", "params": {"N": 4, "nu": 1.0},
                         "w_operator": {"kind": "identity"}})
    with pytest.raises(ConfigError, match="w_operator"):
        validate_config({"model": "ssh", "params": {"N": 4, "nu": 1.0},
                         "initial_state": {"kind": "basis", "cell": 1}})


def test_run_sections_optional_for_sweep_only_configs():
    cfg = {"model": "ssh", "params": {"N": 4, "nu": 1.0}}
    out = validate_config(cfg, require_run=False)
    assert out["model"] == "ssh"


def test_numbers_are_checked():
    with pytest.raises(ConfigError, match="params.nu"):
        validate_config(minimal(params={"N": 20, "nu": True}))
    with pytest.raises(ConfigError, match="finite"):
        validate_config(minimal(params={"N": 20, "nu": float("nan")}))
    with pytest.raises(ConfigError, match="params.nu"):
        validate_config(minimal(params={"N": 20, "nu": "half"}))


def test_integer_parameters_accept_whole_floats_only():
    out = validate_config(minimal(params={"N": 200.0, "nu": 0.5}))
    assert out["params"]["N"] == 200 and isinstance(out["params"]["N"], int)
    with pytest.raises(ConfigError, match="params.N"):
        validate_config(minimal(params={"N": 200.5, "nu": 0.5}))


def test_positivity_constraints():
    with pytest.raises(ConfigError, match="params.epsilon"):
        validate_config(minimal(params={"N": 20, "nu": 0.5, "epsilon": 0.0}))
    bad2d = {"model": "ssh2d", "params": {"Nx": 4, "Ny": 4, "nu_p": 1.0, "w": 0.0},
             "initial_state": {"kind": "site", "x": 1, "y": 1},
             "w_operator": {"kind": "index_projector", "indices": [2]}}
    with pytest.raises(ConfigError, match="params.w"):
        validate_config(bad2d)
    chain = {"model": "extended_chain", "params": {"N": 10, "nu": 0.0},
             "initial_state": {"kind": "index", "index": 0},
             "w_operator": {"kind": "index_projector", "indices": [0]}}
    with pytest.raises(ConfigError, match="params.nu"):
        validate_config(chain)


def test_single_strength_disorder_shorthand():
    out = validate_config(minimal(disorder={"d": 1.0, "seed": 3}))
    assert out["disorder"]["d1"] == 0.5 and out["disorder"]["d2"] == 1.0
    assert "d" not in out["disorder"]
    with pytest.raises(ConfigError, match="disorder.d"):
        validate_config(minimal(disorder={"d": 1.0, "d2": 0.5, "seed": 3}))
    with pytest.raises(ConfigError, match="either d or both"):
        validate_config(minimal(disorder={"d1": 1.0, "seed": 3}))
    with pytest.raises(ConfigError, match="nonnegative"):
        validate_config(minimal(disorder={"d": -1.0, "seed": 3}))


def test_disorder_seed_modes_are_exclusive():
    with pytest.raises(ConfigError, match="seed"):
        validate_config(minimal(disorder={"d": 1.0, "seed": 3, "seed0": 0}))
    with pytest.raises(ConfigError, match="seed"):
        validate_config(minimal(disorder={"d": 1.0}))
    with pytest.raises(ConfigError, match="both seed0 and n_configs"):
        validate_config(minimal(disorder={"d": 1.0, "seed0": 0}))
    with pytest.raises(ConfigError, match="n_configs"):
        validate_config(minimal(disorder={"d": 1.0, "seed0": 0, "n_configs": 0}))
    out = validate_config(minimal(disorder={"d": 1.0, "seed0": 0, "n_configs": 10}))
    assert out["disorder"]["n_configs"] == 10


def test_disorder_restricted_to_the_disordered_model():
    cfg = {"model": "creutz", "params": {"N": 10, "eta0": 1.0, "eta0p": 1.0},
           "initial_state": {"kind": "basis", "cell": 1},
           "w_operator": {"kind": "identity"},
           "disorder": {"d": 1.0, "seed": 1}}
    with pytest.raises(ConfigError, match="disorder"):
        validate_config(cfg)


def test_observable_validation():
    with pytest.raises(ConfigError, match="observable.name"):
        validate_config(minimal(observable={"name": "median"}))
    with pytest.raises(ConfigError, match="tail_fraction"):
        validate_config(minimal(observable={"tail_fraction": 0.0}))
    with pytest.raises(ConfigError, match="tail_fraction"):
        validate_config(minimal(observable={"tail_fraction": 1.5}))
    out = validate_config(minimal(observable={"tail_fraction": 0.25}))
    assert out["observable"]["tail_fraction"] == 0.25


def test_time_grid_validation():
    with pytest.raises(ConfigError, match="time_grid"):
        validate_config(minimal(time_grid={"t_max": -1.0}))
    out = validate_config(minimal(time_grid={"dt": 0.1}))
    assert out["time_grid"] == {"t_max": 400.0, "dt": 0.1}
    # the grid must end at t_max: dt divides it, up to decimal rounding
    for t_max, dt in ((1.0, 0.3), (1.0, 2.0), (400.0, 0.3)):
        with pytest.raises(ConfigError, match=r"time_grid\.dt"):
            validate_config(minimal(time_grid={"t_max": t_max, "dt": dt}))
    for t_max, dt in ((4000.0, 0.2), (1.0, 0.1), (10.0, 10.0), (190.0, 0.2)):
        out = validate_config(minimal(time_grid={"t_max": t_max, "dt": dt}))
        assert out["time_grid"] == {"t_max": t_max, "dt": dt}


def test_sweep_axis_validation():
    with pytest.raises(ConfigError, match="sweep.axis1.name"):
        validate_config(minimal(sweep={"axis1": {"name": "alpha", "values": [1.0]}}))
    with pytest.raises(ConfigError, match="requires a disorder section"):
        validate_config(minimal(sweep={"axis1": {"name": "d", "values": [1.0]}}))
    with pytest.raises(ConfigError, match="values"):
        validate_config(minimal(sweep={"axis1": {"name": "nu", "values": []}}))
    with pytest.raises(ConfigError, match=r"values\[1\]"):
        validate_config(minimal(sweep={"axis1": {"name": "nu", "values": [1.0, "x"]}}))
    out = validate_config(minimal(
        disorder={"d": 1.0, "seed": 2},
        sweep={"axis1": {"name": "nu", "values": [0.5, 1.5]},
               "axis2": {"name": "d", "values": [0.0, 1.0]}}))
    assert out["sweep"]["axis2"]["values"] == [0.0, 1.0]
    with pytest.raises(ConfigError, match="sweep.axis1"):
        validate_config(minimal(sweep={"axis1": {"name": "t"}}))
    # each axis value gets the checks of its parameter
    ssh2d = {"model": "ssh2d", "params": {"Nx": 4, "Ny": 4, "nu_p": 1.0, "w": 1.0},
             "initial_state": {"kind": "site", "x": 1, "y": 1},
             "w_operator": {"kind": "index_projector", "indices": [2]}}
    chain = {"model": "extended_chain", "params": {"N": 10, "nu": 0.5},
             "initial_state": {"kind": "index", "index": 0},
             "w_operator": {"kind": "index_projector", "indices": [0]}}
    cases = [
        (minimal(sweep={"axis1": {"name": "N", "values": [4, 4.5, 4.9]}}),
         r"sweep\.axis1\.values\[1\] must be an integer"),
        (dict(ssh2d, sweep={"axis1": {"name": "Nx", "values": [4, 4.5]}}),
         r"sweep\.axis1\.values\[1\] must be an integer"),
        (dict(ssh2d, sweep={"axis1": {"name": "w", "values": [1, 0, -0.5]}}),
         r"sweep\.axis1\.values\[1\] must be positive"),
        (minimal(sweep={"axis1": {"name": "epsilon", "values": [1.0, -1.0]}}),
         r"sweep\.axis1\.values\[1\] must be positive"),
        (dict(chain, sweep={"axis1": {"name": "nu", "values": [0.5, 0.0]}}),
         r"sweep\.axis1\.values\[1\] must be positive"),
        (minimal(disorder={"d": 1.0, "seed": 2},
                 sweep={"axis1": {"name": "nu", "values": [0.5]},
                        "axis2": {"name": "d", "values": [0.5, -1]}}),
         r"sweep\.axis2\.values\[1\] must be nonnegative"),
    ]
    for cfg, message in cases:
        with pytest.raises(ConfigError, match=message):
            validate_config(cfg)
    out = validate_config(minimal(sweep={"axis1": {"name": "N", "values": [4, 6.0]}}))
    assert out["sweep"]["axis1"]["values"] == [4.0, 6.0]
    out = validate_config(minimal(sweep={"axis1": {"name": "nu", "values": [-0.5, 0.0]}}))
    assert out["sweep"]["axis1"]["values"] == [-0.5, 0.0]


def test_time_axis_is_always_allowed():
    out = validate_config(minimal(sweep={"axis1": {"name": "t", "values": [0.0, 1.0]}}))
    assert out["sweep"]["axis1"]["name"] == "t"


def test_fingerprint_is_canonical():
    a = validate_config(minimal())
    b = validate_config(minimal())
    assert fingerprint(a) == fingerprint(b)
    reordered = {k: a[k] for k in reversed(list(a))}
    assert fingerprint(reordered) == fingerprint(a)
    c = validate_config(minimal(params={"N": 20, "nu": 0.50001}))
    assert fingerprint(c) != fingerprint(a)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(minimal()))
    out = load_config(str(path))
    assert out["model"] == "ssh"
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(str(bad))


def test_state_field_validation():
    with pytest.raises(ConfigError, match="initial_state.kind"):
        validate_config(minimal(initial_state={"kind": "corner"}))
    with pytest.raises(ConfigError, match="initial_state.x"):
        validate_config(minimal(initial_state={"kind": "site", "x": 1.5, "y": 1}))
    out = validate_config(minimal(initial_state={"kind": "staggered", "M": 3.0}))
    assert out["initial_state"]["M"] == 3
    with pytest.raises(ConfigError, match="w_operator.kind"):
        validate_config(minimal(w_operator={"kind": "projector"}))
    with pytest.raises(ConfigError, match="sites"):
        validate_config(minimal(w_operator={"kind": "site_projector", "sites": []}))
    with pytest.raises(ConfigError, match="indices"):
        validate_config(minimal(w_operator={"kind": "index_projector", "indices": []}))


@pytest.mark.parametrize("overrides, field", [
    ({"w_operator": {"kind": "chiral_partial", "j": 2.5}}, "w_operator.j"),
    ({"w_operator": {"kind": "chiral_partial", "j": "3"}}, "w_operator.j"),
    ({"initial_state": {"kind": "basis", "cell": 1.5}}, "initial_state.cell"),
    ({"initial_state": {"kind": "basis", "cell": {"a": 1}}}, "initial_state.cell"),
    ({"initial_state": {"kind": "basis", "cell": 1, "sublattice": [1]}},
     "initial_state.sublattice"),
    ({"initial_state": {"kind": "eigenstate", "degeneracy_tol": "x"}},
     "initial_state.degeneracy_tol"),
    ({"initial_state": {"kind": "eigenstate", "project_a": "no"}},
     "initial_state.project_a"),
    ({"initial_state": {"kind": "staggered", "M": 2, "flavor": "ssh_B"}},
     "initial_state.flavor"),
    ({"w_operator": {"kind": "site_projector", "sites": [[1]]}}, "w_operator.sites"),
    ({"w_operator": {"kind": "index_projector", "indices": ["a"]}},
     "w_operator.indices"),
    ({"model": ["ssh"]}, "model"),
    ({"initial_state": {"kind": ["basis"]}}, "initial_state.kind"),
    ({"sweep": {"axis1": {"name": ["nu"], "values": [1.0]}}}, "sweep.axis1.name"),
    ({"params": {"N": 20, "nu": 10 ** 400}}, "params.nu"),
])
def test_values_of_the_wrong_type_are_refused_naming_the_field(overrides, field):
    with pytest.raises(ConfigError, match=re.escape(field)):
        validate_config(minimal(**overrides))


def test_valid_values_keep_their_form():
    # the field tests only reject: whole floats stay floats, except in the
    # fields that have always been made ints
    cfg = minimal(initial_state={"kind": "basis", "cell": [1.0], "sublattice": 1.0},
                  w_operator={"kind": "chiral_partial", "j": 3.0})
    out = validate_config(cfg)
    assert out["initial_state"] == cfg["initial_state"]
    assert out["w_operator"] == cfg["w_operator"]
    assert isinstance(out["w_operator"]["j"], float)


@pytest.mark.parametrize("name", ["nu", "t", "d"])
def test_sweep_axes_have_distinct_names(name):
    cfg = minimal(disorder={"d": 0.5, "seed": 1},
                  sweep={"axis1": {"name": name, "values": [0.2, 1.5]},
                         "axis2": {"name": name, "values": [0.5]}})
    with pytest.raises(ConfigError, match=r"sweep\.axis2\.name"):
        validate_config(cfg)


def test_full_series_grids_need_a_time_axis():
    cfg = minimal(observable={"name": "full_series"},
                  sweep={"axis1": {"name": "nu", "values": [0.5, 1.0]}})
    with pytest.raises(ConfigError, match=r"observable\.name"):
        validate_config(cfg)
    cfg["sweep"]["axis2"] = {"name": "t", "values": [0.0, 1.0]}
    assert validate_config(cfg)["observable"]["name"] == "full_series"
    assert validate_config(minimal(observable={"name": "full_series"}))


def test_validation_is_idempotent():
    golden = json.loads((DATA / "golden_config.json").read_text())
    ensemble = minimal(disorder={"d": 1.0, "seed0": 3, "n_configs": 2},
                       observable={"name": "time_average", "tail_fraction": 0.25},
                       sweep={"axis1": {"name": "d", "values": [0, 1]},
                              "axis2": {"name": "N", "values": [4, 6]}})
    for raw in (golden, ensemble):
        once = validate_config(raw)
        twice = validate_config(once)
        assert twice == once
        assert fingerprint(twice) == fingerprint(once)


def test_readme_example_passes_the_schema():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"## Config schema\s+```json\n(.*?)```", readme, re.S)
    cfg = validate_config(json.loads(block.group(1)))
    assert cfg["disorder"] == {"d1": 0.5, "d2": 1.0, "seed0": 0, "n_configs": 10}
