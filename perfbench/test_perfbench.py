"""Tests of the benchmark itself, on shrunken copies of its workloads.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

REFERENCE = workloads.load_reference()


def reference_output(name: str) -> tuple:
    """CLI stdout and CSV text as the seed commit wrote them."""
    entry = REFERENCE["workloads"][name]
    axis = entry["config"]["sweep"]["axis1"]
    rows = [f"{axis['name']},long_time_limit"]
    rows += ["%.17g,%.17g" % (x, y) for x, y in zip(axis["values"], entry["grid"])]
    stdout = "wrote sweep.csv\n"
    if "crossings" in entry:
        threshold = workloads.WORKLOADS[name].threshold
        stdout += (f"crossings at threshold {threshold:g}: "
                   + ", ".join("%.6g" % c for c in entry["crossings"]) + "\n")
    return entry["config"], stdout, "\n".join(rows) + "\n"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_output_passes_and_corrupted_output_fails(name):
    workload = workloads.WORKLOADS[name]
    cfg, stdout, csv_text = reference_output(name)
    assert cfg == workload.make_config(workloads.DEFAULT_SEED)
    assert workloads.check_run(workload, cfg, 0, stdout, csv_text, REFERENCE) == []

    # one value nudged by 1e-3, as `otocsim validate --corrupt` does
    lines = csv_text.splitlines()
    i = len(lines) // 3
    x, y = lines[i].split(",")
    lines[i] = f"{x},{float(y) + 1e-3!r}"
    corrupted = "\n".join(lines) + "\n"
    assert workloads.check_run(workload, cfg, 0, stdout, corrupted, REFERENCE)

    # breaches that need no reference: out of bounds, not finite, bad exit
    for bad in ("1.5", "nan", "-1e-3"):
        lines[i] = f"{x},{bad}"
        other_seed = workload.make_config(7)
        assert workloads.check_run(workload, other_seed, 0, stdout,
                                   "\n".join(lines) + "\n", REFERENCE)
    assert workloads.check_run(workload, cfg, 1, stdout, csv_text, REFERENCE)


def test_corrupted_run_counts_toward_fail_ratio():
    workload = workloads.WORKLOADS["corner_scan"]
    cfg, stdout, csv_text = reference_output("corner_scan")
    corrupted = csv_text.replace("0.039254366948019793", "0.039", 1)
    checked = [workloads.check_run(workload, cfg, 0, stdout, text, REFERENCE)
               for text in (csv_text, corrupted, csv_text)]
    line = run.result_line({"wall_s": 1.0}, {"wall_s": "s"}, checked)
    assert json.loads(line) == {"correct": False, "attempted": 3, "failed": 1,
                                "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}


def test_crossing_checks():
    nh = workloads.WORKLOADS["nonhermitian_sweep"]
    cfg, stdout, csv_text = reference_output("nonhermitian_sweep")
    moved = stdout.replace("1.09945", "1.2")
    assert workloads.check_run(nh, cfg, 0, moved, csv_text, REFERENCE)
    dis = workloads.WORKLOADS["disorder_sweep"]
    cfg, stdout, csv_text = reference_output("disorder_sweep")
    below_clean = stdout.replace("1.09325", "0.6, 1.09325")
    assert workloads.check_run(dis, cfg, 0, below_clean, csv_text, REFERENCE)


def test_powerlaw_transition_matches_the_acceptance_line():
    cfg, _, csv_text = reference_output("corner_scan")
    xs, ys = workloads.parse_sweep_csv(csv_text)
    assert abs(workloads.powerlaw_transition(xs, ys) - 1.0) <= 0.05


def shrunk(name: str) -> dict:
    """The workload's config at a size that runs in well under a second."""
    cfg = workloads.WORKLOADS[name].make_config(workloads.DEFAULT_SEED)
    params = cfg["params"]
    if name == "nonhermitian_sweep":
        params["N"] = 60        # short chains are too well conditioned to fall back
    elif "N" in params:
        params["N"] = 20
    else:
        params["Nx"] = params["Ny"] = 4
    cfg["time_grid"] = {"t_max": 20.0, "dt": 0.5}
    cfg["sweep"]["axis1"]["values"] = cfg["sweep"]["axis1"]["values"][:3]
    if "disorder" in cfg:
        cfg["disorder"]["n_configs"] = 2
    return cfg


def traced_layers(name: str, tmp_path) -> tuple:
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(shrunk(name)))
    argv = ["sweep", "--config", str(cfg_path), "--out",
            str(tmp_path / "out.csv"), "--workers", "1"]
    out = tracer.run_cli(argv, tracer.Tracer())
    assert out["returncode"] == 0
    return out["spans"], tracer.layer_metrics(out["spans"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_layer_self_times_add_up_to_the_traced_wall(name, tmp_path):
    spans, layers = traced_layers(name, tmp_path)
    assert spans[0]["name"] == "cli.main" and spans[0]["parent"] is None
    for span in spans[1:]:
        parent = spans[span["parent"]]
        assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
    total = sum(layers[k] for k in tracer.LAYER_TIMES)
    assert math.isclose(total, layers["root_s"], rel_tol=1e-9)
    assert all(layers[k] >= 0 for k in tracer.LAYER_TIMES)
    assert layers["sweep.overhead_s"] > 0


def test_idle_layers_read_zero(tmp_path):
    _, corner = traced_layers("corner_scan", tmp_path)
    assert corner["ensemble.members"] == 0 and corner["ensemble.draw_s"] == 0.0
    assert corner["lattice.calls"] == corner["dynamics.decompose_calls"] == 3

    _, dis = traced_layers("disorder_sweep", tmp_path)
    assert dis["ensemble.members"] == 3 * 2
    assert dis["dynamics.decompose_n.scaled_expm"] == 0
    assert dis["dynamics.decompose_wasted_ratio"] == 0.0
    assert dis["dynamics.decompose_n.hermitian_spectral"] == 3 * 2

    _, nh = traced_layers("nonhermitian_sweep", tmp_path)
    assert nh["ensemble.members"] == 0
    assert nh["dynamics.decompose_n.scaled_expm"] == nh["dynamics.decompose_calls"] == 3
    assert nh["dynamics.decompose_wasted_ratio"] == 1.0


def test_tracing_leaves_the_program_as_it_was(tmp_path):
    import otocsim.pipeline
    before = otocsim.pipeline.spectral_decompose
    traced_layers("corner_scan", tmp_path)
    assert otocsim.pipeline.spectral_decompose is before


def test_a_child_past_its_timeout_is_killed_with_its_group(tmp_path):
    sleeper = ("import subprocess, sys, time; "
               "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)']); "
               "time.sleep(60)")
    out = run.run_process([sys.executable, "-c", sleeper], {}, tmp_path, 1.0)
    assert out["returncode"] == -9
    assert out["wall_s"] < 30


def test_every_metric_in_benchmark_json_is_computed(tmp_path):
    e2e_units, layer_units = run.metric_units()
    e2e = run.end_to_end([{"wall_s": 2.0, "cpu_s": 3.0, "peak_rss_mb": 80.0}],
                         [0.5], points=150)
    assert set(e2e) == set(e2e_units)
    spans, _ = traced_layers("disorder_sweep", tmp_path)
    runs = [{"traced": False, "wall_s": 1.0},
            {"traced": True, "wall_s": 1.0, "spans": spans}]
    metrics = run.per_layer(tracer.summarize(runs), e2e, workers=2)
    assert set(layer_units) <= set(metrics)
    assert all(math.isfinite(metrics[k]) for k in layer_units)
