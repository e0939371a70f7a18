import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from otocsim import analytic, dynamics, pipeline
from otocsim.cli import main
from otocsim.config import fingerprint, validate_config
from otocsim.dynamics import long_time_limit
from otocsim.fileio import read_dense_matrix, read_series_csv
from otocsim.lattice import build_ssh
from otocsim.pipeline import run_point

DATA = Path(__file__).parent / "data"


def base_cfg(**overrides):
    cfg = {"model": "ssh", "params": {"N": 20, "nu": 0.5},
           "initial_state": {"kind": "basis", "cell": 1, "sublattice": "A"},
           "w_operator": {"kind": "site_projector", "sites": [[1, "A"]]},
           "time_grid": {"t_max": 20.0, "dt": 0.2}}
    cfg.update(overrides)
    return cfg


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_otoc_writes_series_csv(tmp_path, capsys):
    out = str(tmp_path / "run.csv")
    code = main(["otoc", "--config", write_cfg(tmp_path, base_cfg()),
                 "--out", out])
    assert code == 0
    cols = read_series_csv(out)
    assert cols["t"].size == 101
    assert cols["otoc"][0] == 1.0
    printed = capsys.readouterr().out
    cfg = validate_config(base_cfg())
    assert fingerprint(cfg)[:12] in printed


def test_otoc_json_envelope_round_trips(tmp_path):
    out_json = str(tmp_path / "run.json")
    code = main(["otoc", "--config", write_cfg(tmp_path, base_cfg()),
                 "--out", str(tmp_path / "run.csv"), "--json", out_json])
    assert code == 0
    env = json.loads(Path(out_json).read_text())
    assert env["tool"] == "otocsim" and env["kind"] == "otoc_series"
    again = validate_config(env["config"])
    assert fingerprint(again) == env["fingerprint"]
    assert len(env["otoc"]) == 101
    meta = env["metadata"]
    assert meta["propagator"] == "hermitian_spectral"
    assert meta["eigensolver"] == "tridiagonal"
    assert meta["model"] == "ssh" and meta["fingerprint"] == env["fingerprint"]
    assert "step_block" not in meta

    # 101 samples from t = 0 take baby steps of 11 and two matrices: e^{-iHh}
    # and its 11th power; the real H makes no bra factors of its own
    cfg = base_cfg(model="nonhermitian_ssh",
                   params={"N": 20, "nu": 1.1, "delta": 0.4})
    code = main(["otoc", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "nh.csv"), "--json", out_json])
    assert code == 0
    meta = json.loads(Path(out_json).read_text())["metadata"]
    assert meta["propagator"] == "scaled_expm"
    assert meta["step_block"] == 11 and meta["step_matrices"] == 2


def test_against_committed_fixture(tmp_path):
    golden = read_series_csv(str(DATA / "golden_otoc.csv"))
    cfg = json.loads((DATA / "golden_config.json").read_text())
    fresh = run_point(validate_config(cfg), observable="full_series")
    np.testing.assert_array_equal(golden["t"], fresh.times)
    assert np.abs(golden["otoc"] - fresh.values).max() <= 1e-9
    assert np.abs(golden["re_s"] - fresh.amplitudes.real).max() <= 1e-9
    assert np.abs(golden["im_s"] - fresh.amplitudes.imag).max() <= 1e-9


def test_otoc_emit_plot(tmp_path):
    svg = str(tmp_path / "run.svg")
    code = main(["otoc", "--config", write_cfg(tmp_path, base_cfg()),
                 "--out", str(tmp_path / "run.csv"), "--emit-plot", svg])
    assert code == 0
    circles = [el for el in ET.parse(svg).iter() if el.tag.endswith("circle")]
    assert len(circles) == 101


def test_otoc_rejects_ensemble_config(tmp_path, capsys):
    cfg = base_cfg(disorder={"d": 1.0, "seed0": 0, "n_configs": 3})
    code = main(["otoc", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "run.csv")])
    assert code == 2
    assert "n_configs" in capsys.readouterr().err


def test_missing_required_param_names_the_field(tmp_path, capsys):
    cfg = base_cfg(params={"N": 20})
    code = main(["otoc", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "run.csv")])
    assert code == 2
    assert "nu" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    code = main(["otoc", "--config", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "run.csv")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("section, spec, field", [
    ("initial_state", {"kind": "index", "index": -1}, "initial_state.index"),
    ("initial_state", {"kind": "index", "index": 20}, "initial_state.index"),
    ("w_operator", {"kind": "index_projector", "indices": [0, 25]},
     "w_operator.indices[1]"),
    ("w_operator", {"kind": "index_projector", "indices": [-1]},
     "w_operator.indices[0]"),
])
def test_out_of_range_index_names_the_field(tmp_path, capsys, section, spec,
                                            field):
    cfg = base_cfg(params={"N": 10, "nu": 0.5}, **{section: spec})  # dim 20
    code = main(["otoc", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "run.csv")])
    assert code == 2
    assert field in capsys.readouterr().err
    cfg["sweep"] = {"axis1": {"name": "nu", "values": [0.5, 1.5]}}
    code = main(["sweep", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "sweep.csv")])
    assert code == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("overrides, message", [
    ({"w_operator": {"kind": "index_projector", "indices": [1, 1]}},
     "duplicate indices"),
    ({"w_operator": {"kind": "site_projector", "sites": [[1, "A"], [1, "A"]]}},
     "duplicate sites"),
    ({"params": {"N": 1, "nu": 0.5}}, "need at least N=2 cells"),
    ({"initial_state": {"kind": "basis", "cell": 21, "sublattice": "A"}},
     "cell 21 out of range"),
    ({"time_grid": {"t_max": 1.0, "dt": 0.3}}, "time_grid.dt"),
    ({"params": {"N": 1, "nu": 0.5}, "disorder": {"d": 1.0, "seed": 3}}, "params.N"),
    ({"params": {"N": 1e20, "nu": 0.5}}, "params.N"),
    ({"model": "ssh2d", "params": {"Nx": 1e20, "Ny": 4, "nu_p": 0.5, "w": 1.0}},
     "params.Nx"),
])
def test_config_errors_exit_2_under_otoc_and_sweep(tmp_path, capsys,
                                                   overrides, message):
    cfg = base_cfg(**overrides)
    code = main(["otoc", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "run.csv")])
    assert code == 2
    assert message in capsys.readouterr().err
    cfg["sweep"] = {"axis1": {"name": "nu", "values": [0.5, 1.5]}}
    code = main(["sweep", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "sweep.csv")])
    assert code == 2
    assert message in capsys.readouterr().err


def test_unbounded_series_is_a_numerical_failure(tmp_path, capsys):
    # below the exceptional point the stepped series grows without bound
    cfg = base_cfg(model="nonhermitian_ssh",
                   params={"N": 20, "nu": 0.2, "delta": 0.4})
    with pytest.raises(FloatingPointError, match="opnorm_bound"):
        run_point(validate_config(cfg))
    out = tmp_path / "run.csv"
    code = main(["otoc", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(out)])
    assert code == 1
    assert "opnorm_bound" in capsys.readouterr().err
    assert not out.exists()


def test_zero_time_value_is_the_probe_expectation():
    # a staggered M=3 state sees 1/3 of its weight on the probed site
    cfg = base_cfg(initial_state={"kind": "staggered", "M": 3})
    series = run_point(validate_config(cfg))
    assert series.values[0] == pytest.approx(1 / 9, abs=1e-12)


def test_wrong_zero_time_value_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    original = pipeline.otoc_series

    def off_at_zero(*args, **kwargs):
        series = original(*args, **kwargs)
        series.values[0] -= 1e-9       # still within the operator-norm bound
        return series

    monkeypatch.setattr(pipeline, "otoc_series", off_at_zero)
    with pytest.raises(FloatingPointError, match="O\\(0\\)"):
        run_point(validate_config(base_cfg()))
    # without t = 0 among the times there is nothing to compare
    run_point(validate_config(base_cfg()), times=np.array([0.5, 1.0]))
    out = tmp_path / "run.csv"
    code = main(["otoc", "--config", write_cfg(tmp_path, base_cfg()),
                 "--out", str(out)])
    assert code == 1
    assert "O(0) differs" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_hamiltonian_is_a_numerical_failure(tmp_path, capsys):
    # nu + delta overflows to inf in the Hamiltonian
    cfg = base_cfg(model="nonhermitian_ssh",
                   params={"N": 20, "nu": 1e308, "delta": 1e308})
    out = tmp_path / "run.csv"
    code = main(["otoc", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(out)])
    assert code == 1
    assert "Hamiltonian entries are not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("eta, message", [
    (0.0, "Hamiltonian entries are not finite"),      # tridiagonal chain
    (0.3, "Hamiltonian entries are not finite"),      # dense eigh
])
def test_overflowing_chain_is_a_numerical_failure(tmp_path, capsys, eta, message):
    # epsilon * nu overflows to inf; the Hermiticity residual would then be
    # NaN, which no tolerance comparison catches, so the build refuses H
    cfg = base_cfg(params={"N": 20, "nu": 1e308, "epsilon": 10.0, "eta": eta})
    out = tmp_path / "run.csv"
    code = main(["otoc", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(out)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_reports_threshold_crossings(tmp_path, capsys):
    cfg = base_cfg(sweep={"axis1": {"name": "nu", "values": [0.5, 1.0, 1.5]}})
    out = str(tmp_path / "sweep.csv")
    code = main(["sweep", "--config", write_cfg(tmp_path, cfg), "--out", out,
                 "--threshold", "0.1"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "crossings at threshold 0.1" in printed
    lines = Path(out).read_text().strip().splitlines()
    assert lines[0] == "nu,long_time_limit"
    assert len(lines) == 4


def test_sweep_worker_counts_agree_byte_for_byte(tmp_path):
    cfg = base_cfg(sweep={"axis1": {"name": "nu", "values": [0.5, 1.0, 1.5]}})
    path = write_cfg(tmp_path, cfg)
    one = tmp_path / "w1.csv"
    two = tmp_path / "w2.csv"
    assert main(["sweep", "--config", path, "--out", str(one), "--workers", "1"]) == 0
    assert main(["sweep", "--config", path, "--out", str(two), "--workers", "2"]) == 0
    assert one.read_bytes() == two.read_bytes()


def test_worker_count_from_environment(tmp_path, capsys, monkeypatch):
    cfg = base_cfg(sweep={"axis1": {"name": "nu", "values": [0.5, 1.5]}})
    path = write_cfg(tmp_path, cfg)
    monkeypatch.setenv("OTOC_WORKERS", "2")
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "s.csv")]) == 0
    assert "workers 2" in capsys.readouterr().out
    monkeypatch.setenv("OTOC_WORKERS", "soon")
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "s.csv")]) == 2


def test_phase_diagram_needs_second_axis(tmp_path, capsys):
    cfg = base_cfg(sweep={"axis1": {"name": "nu", "values": [0.5, 1.5]}})
    code = main(["phase-diagram", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "pd.csv")])
    assert code == 2
    assert "axis2" in capsys.readouterr().err


def test_phase_diagram_writes_grid_and_heatmap(tmp_path):
    cfg = base_cfg(time_grid={"t_max": 10.0, "dt": 0.5},
                   sweep={"axis1": {"name": "nu", "values": [0.5, 1.0, 1.5]},
                          "axis2": {"name": "eta", "values": [0.0, 0.5]}})
    out = str(tmp_path / "pd.csv")
    svg = str(tmp_path / "pd.svg")
    code = main(["phase-diagram", "--config", write_cfg(tmp_path, cfg),
                 "--out", out, "--emit-plot", svg])
    assert code == 0
    lines = Path(out).read_text().strip().splitlines()
    assert lines[0] == "nu,eta,long_time_limit"
    assert len(lines) == 7
    rects = [el for el in ET.parse(svg).iter()
             if el.tag.endswith("rect") and el.get("data-value")]
    assert len(rects) == 6


def test_ensemble_envelope(tmp_path):
    cfg = base_cfg(params={"N": 20, "nu": 0.2},
                   disorder={"d": 1.0, "seed0": 3, "n_configs": 3})
    out = str(tmp_path / "ens.json")
    code = main(["ensemble", "--config", write_cfg(tmp_path, cfg), "--out", out])
    assert code == 0
    env = json.loads(Path(out).read_text())
    assert env["kind"] == "ensemble"
    assert env["d"] == 1.0
    assert env["n_configs"] == 3 and env["seed0"] == 3
    assert env["observable"] == "long_time_limit"
    assert len(env["per_config"]) == 3
    assert env["mean"] == pytest.approx(np.mean(env["per_config"]))


def test_ensemble_requires_ensemble_seeding(tmp_path, capsys):
    cfg = base_cfg(disorder={"d": 1.0, "seed": 3})
    code = main(["ensemble", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "ens.json")])
    assert code == 2
    assert "n_configs" in capsys.readouterr().err


def test_validate_default_benchmark(tmp_path, capsys):
    out = str(tmp_path / "val.csv")
    code = main(["validate", "--out", out])
    assert code == 0
    assert "ok" in capsys.readouterr().out
    lines = Path(out).read_text().strip().splitlines()
    assert lines[0] == "t,analytic,numeric,diff"
    assert len(lines) == 2002


def test_validate_flags_corruption(capsys, monkeypatch):
    closed_form = analytic.otoc_site_closed_form

    def shifted(*args, **kwargs):
        values = closed_form(*args, **kwargs)
        values[values.size // 3] += 1e-3
        return values

    monkeypatch.setattr(analytic, "otoc_site_closed_form", shifted)
    code = main(["validate"])
    assert code == 3
    assert "FAIL" in capsys.readouterr().out


def test_validate_rejects_other_models(tmp_path, capsys):
    code = main(["validate", "--config", write_cfg(tmp_path, base_cfg())])
    assert code == 2
    err = capsys.readouterr().err
    assert "extended_chain" in err


def test_validate_rejects_closed_form_domain_violation(tmp_path, capsys):
    cfg = {"model": "extended_chain", "params": {"N": 50, "nu": 0.0}}
    code = main(["validate", "--config", write_cfg(tmp_path, cfg)])
    assert code == 2
    assert "nu" in capsys.readouterr().err


def test_model_dump_round_trips(tmp_path):
    cfg = {"model": "ssh", "params": {"N": 6, "nu": 0.7}}
    out = str(tmp_path / "model.txt")
    code = main(["model-dump", "--config", write_cfg(tmp_path, cfg), "--out", out])
    assert code == 0
    M = read_dense_matrix(out)
    np.testing.assert_array_equal(M, build_ssh(6, 0.7).entries.astype(complex))


NU_AXIS = {"name": "nu", "values": [0.2, 1.5]}
T_AXIS = {"name": "t", "values": [0.0, 1.0]}


@pytest.mark.parametrize("command, overrides, field", [
    ("phase-diagram", {"sweep": {"axis1": NU_AXIS, "axis2": NU_AXIS}}, "sweep.axis2.name"),
    ("sweep", {"sweep": {"axis1": T_AXIS, "axis2": T_AXIS}}, "sweep.axis2.name"),
    ("sweep", {"observable": {"name": "full_series"}, "sweep": {"axis1": NU_AXIS}},
     "observable.name"),
    ("sweep", {}, "sweep"),
    ("phase-diagram", {}, "sweep"),
])
def test_sweep_rules_exit_2_naming_the_field(tmp_path, capsys, command, overrides,
                                             field):
    out = tmp_path / "grid.csv"
    code = main([command, "--config", write_cfg(tmp_path, base_cfg(**overrides)),
                 "--out", str(out)])
    assert code == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["otoc", "model-dump"])
def test_single_runs_need_a_single_seed(tmp_path, capsys, command):
    cfg = base_cfg(disorder={"d": 1.0, "seed0": 0, "n_configs": 3})
    code = main([command, "--config", write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "out.txt")])
    assert code == 2
    err = capsys.readouterr().err
    assert "disorder.seed" in err and "n_configs" in err


def test_out_of_memory_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    def refuse(self):
        raise MemoryError("Unable to allocate 14.6 TiB for an array")

    monkeypatch.setattr(dynamics.TimeGrid, "times", refuse)
    out = tmp_path / "run.csv"
    code = main(["otoc", "--config", write_cfg(tmp_path, base_cfg()), "--out", str(out)])
    assert code == 1
    assert "numerical failure: Unable to allocate" in capsys.readouterr().err
    assert not out.exists()


def test_otoc_metadata_records_the_tail(tmp_path, capsys):
    cfg = base_cfg(observable={"tail_fraction": 0.25})
    out_json = tmp_path / "run.json"
    assert main(["otoc", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "run.csv"), "--json", str(out_json)]) == 0
    meta = json.loads(out_json.read_text())["metadata"]
    series = run_point(validate_config(cfg))
    tail = long_time_limit(series, 0.25)
    assert (meta["tail_mean"], meta["tail_std"]) == (tail.mean, tail.std)
    assert f"tail mean {tail.mean:.6g}," in capsys.readouterr().out


@pytest.mark.parametrize("command, axes", [
    ("sweep", {"axis1": {"name": "nu", "values": [0.5, 1.0, 1.5]}}),
    ("phase-diagram", {"axis1": {"name": "nu", "values": [0.5, 1.5]},
                       "axis2": {"name": "eta", "values": [0.0, 0.5]}}),
])
def test_sweep_json_envelope_matches_the_csv(tmp_path, command, axes):
    cfg = base_cfg(time_grid={"t_max": 10.0, "dt": 0.5}, sweep=axes)
    out, out_json = tmp_path / "grid.csv", tmp_path / "grid.json"
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out),
                 "--json", str(out_json)]) == 0
    env = json.loads(out_json.read_text())
    assert env["kind"] == "sweep"
    assert env["fingerprint"] == fingerprint(validate_config(cfg))
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    names = [env["axis1"]["name"]] + ([env["axis2"]["name"]] if env["axis2"] else [])
    assert header == names + [env["observable"]]
    assert names == [axes[label]["name"] for label in sorted(axes)]
    if "axis2" not in axes:
        assert env["axis2"] is None
        expected = list(zip(env["axis1"]["values"], env["grid"]))
    else:
        expected = [(x1, x2, env["grid"][i][j])
                    for i, x1 in enumerate(env["axis1"]["values"])
                    for j, x2 in enumerate(env["axis2"]["values"])]
    assert [tuple(map(float, row)) for row in rows] == expected
