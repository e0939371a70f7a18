#!/usr/bin/env python3
"""End-to-end benchmark of `otocsim sweep`.

    python3 perfbench/run.py --workload disorder_sweep --seed 2000 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. One run:

1. runs `otocsim validate` once, untimed, and refuses to report any number
   unless it exits 0;
2. runs the workload's sweep in a fresh CLI process, one at a time (a closed
   loop), until `--seconds` of CLI wall time are measured, and checks every
   output;
3. before every CLI run, times two fresh interpreters that import
   `otocsim.cli` and load the workload's config (`setup_s`);
4. with `--trace 1`, also runs the same sweep in-process with one worker,
   alternately untraced and traced, and derives the per-layer numbers from
   the spans (see tracer.py).

Every CLI process gets OPENBLAS_NUM_THREADS = nproc // workers, so worker
processes times BLAS threads equals the core count. All outputs go to a
temporary directory under `.perfbench_tmp/` in the checkout, removed at the
end. The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
metrics with `--trace 1`); the lines before it are a readable report and the
environment record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS_PER_RUN = 2
MIN_SETUPS = 6
MIN_REPEATS = 3          # CLI runs per end-to-end run, whatever --seconds says
RUN_BUDGET_S = 160.0     # no new CLI run starts once this would be exceeded

SETUP_SNIPPET = ("import sys, otocsim.cli; from otocsim.config import load_config; "
                 "load_config(sys.argv[1])")
ENV_SNIPPET = """
import json, platform, numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version"),
                  "blas_config": blas.get("openblas configuration")}))
"""

class BenchError(RuntimeError):
    """The benchmark cannot produce numbers; nothing is reported."""


def metric_units() -> tuple:
    """Units of the end-to-end and the per-layer metrics, by name, as
    BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[kind]}
                 for kind in ("end_to_end", "per_layer"))


def run_process(cmd: list, env: dict, workdir: Path, timeout: float) -> dict:
    """Run one child to completion. Wall time runs from spawn to exit; CPU
    time and peak RSS come from wait4 and so cover the child and every
    descendant it waited for (the sweep's pool workers). A child still
    running after `timeout` seconds is killed with its whole process group."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=out, stderr=err,
                                start_new_session=True)
        killer = threading.Timer(max(timeout, 1.0), os.killpg,
                                 (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"returncode": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": out_path.read_text(), "stderr": err_path.read_text()}


def program_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return env


def environment_record(env: dict, workload: workloads.Workload, nproc: int,
                       blas_threads: int, workdir: Path) -> dict:
    probe = run_process([sys.executable, "-c", ENV_SNIPPET], env, workdir, 60)
    if probe["returncode"] != 0:
        raise BenchError(f"cannot read the numerical stack: {probe['stderr']}")
    record = json.loads(probe["stdout"])
    digest = hashlib.sha256()
    for path in sorted((SRC / "otocsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    record.update(nproc=nproc, platform=platform.platform(),
                  workers=workload.workers, OPENBLAS_NUM_THREADS=blas_threads,
                  git_commit=commit, src_sha256=digest.hexdigest(),
                  loadavg_start=list(os.getloadavg()))
    return record


def preflight(env: dict, workdir: Path) -> None:
    check = run_process([sys.executable, "-m", "otocsim", "validate"], env,
                        workdir, 120)
    if check["returncode"] != 0:
        raise BenchError("`otocsim validate` exited "
                         f"{check['returncode']}: {check['stdout']}{check['stderr']}")


def time_setup(cfg_path: Path, env: dict, workdir: Path) -> float:
    child = run_process([sys.executable, "-c", SETUP_SNIPPET, str(cfg_path)],
                        env, workdir, 60)
    if child["returncode"] != 0:
        raise BenchError(f"set-up failed: {child['stderr']}")
    return child["wall_s"]


def measure_cli(workload, cfg, cfg_path, env, workdir, seconds, min_repeats,
                deadline, reference) -> tuple:
    """Closed loop of CLI runs, each checked as it completes, with the set-up
    timings interleaved so that both sample the whole run."""
    out_csv = workdir / "sweep.csv"
    cmd = [sys.executable, "-m", "otocsim"] + workloads.cli_args(
        workload, str(cfg_path), str(out_csv), workload.workers)
    runs, setup = [], []
    while len(runs) < min_repeats or sum(r["wall_s"] for r in runs) < seconds:
        last = runs[-1]["wall_s"] if runs else 0.0
        if runs and time.monotonic() + last > deadline:
            break
        setup += [time_setup(cfg_path, env, workdir) for _ in range(SETUPS_PER_RUN)]
        out_csv.unlink(missing_ok=True)
        run = run_process(cmd, env, workdir, deadline - time.monotonic())
        csv_text = out_csv.read_text() if out_csv.exists() else ""
        run["breaches"] = workloads.check_run(workload, cfg, run["returncode"],
                                              run["stdout"], csv_text, reference)
        runs.append(run)
    while len(setup) < MIN_SETUPS:
        setup.append(time_setup(cfg_path, env, workdir))
    return runs, setup


def end_to_end(runs: list, setup: list, points: int) -> dict:
    setup_s = statistics.median(setup)
    return {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "points_per_s": statistics.median(points / (r["wall_s"] - setup_s)
                                          for r in runs),
        "setup_s": setup_s,
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def per_layer(layers: dict, e2e: dict, workers: int) -> dict:
    """Per-layer metrics; the two run-level ones relate the serial traced
    compute to the untraced multi-worker CLI run."""
    busy = e2e["wall_s"] - e2e["setup_s"]
    out = dict(layers)
    out["sweep.parallel_eff"] = layers["run_points_s"] / (workers * busy)
    # the traced total is serial; k CLI workers share it
    out["cli.unaccounted_s"] = busy - layers["root_s"] / workers
    return out


def result_line(metrics: dict, units: dict, checked: list) -> str:
    """The closing JSON line; `checked` holds the breaches of every run, and
    a run with any breach counts as failed."""
    failed = sum(1 for breaches in checked if breaches)
    return json.dumps({"correct": failed == 0, "attempted": len(checked),
                       "failed": failed,
                       "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                   for k in units}})


def report(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, unit in units.items():
        print(f"  {name:42s} {metrics[name]:>14.6g} {unit}")


def run_traced(workload, cfg, cfg_path, env, workdir, seconds, deadline,
               reference) -> list:
    result = workdir / "traced.json"
    cmd = [sys.executable, str(Path(tracer.__file__).resolve()),
           "--workload", workload.name, "--config", str(cfg_path),
           "--workdir", str(workdir), "--seconds", repr(seconds),
           "--result", str(result)]
    # the traced process gets the BLAS threads of one CLI worker process
    child = run_process(cmd, env, workdir, deadline + 15 - time.monotonic())
    if child["returncode"] != 0:
        raise BenchError(f"traced run exited {child['returncode']}: {child['stderr']}")
    runs = json.loads(result.read_text())["runs"]
    for run in runs:
        run["breaches"] = workloads.check_run(workload, cfg, run["returncode"],
                                              run["stdout"], run["csv"], reference)
    return runs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="otocsim sweep benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="CLI wall time to measure per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not (SRC / "otocsim" / "cli.py").is_file():
        print(f"no otocsim sources under {SRC}", file=sys.stderr)
        return 2

    e2e_units, layer_units = metric_units()
    workload = workloads.WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    blas_threads = max(1, nproc // workload.workers)
    env = program_env(blas_threads)
    cfg = workload.make_config(args.seed)
    deadline = time.monotonic() + RUN_BUDGET_S
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        reference = workloads.load_reference()
        cfg_path = workdir / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        preflight(env, workdir)
        record = environment_record(env, workload, nproc, blas_threads, workdir)
        cli_seconds = args.seconds / 2 if args.trace else args.seconds
        runs, setup = measure_cli(workload, cfg, cfg_path, env, workdir,
                                  cli_seconds, 1 if args.trace else MIN_REPEATS,
                                  deadline, reference)
        e2e = end_to_end(runs, setup, workloads.evaluations(cfg))
        checked = [r["breaches"] for r in runs]
        if args.trace:
            traced = run_traced(workload, cfg, cfg_path, env, workdir,
                                args.seconds / 2, deadline, reference)
            checked += [r["breaches"] for r in traced]
            layers = tracer.summarize(traced)
            metrics = per_layer(layers, e2e, workload.workers)
        record["loadavg_end"] = list(os.getloadavg())
    except BenchError as exc:
        print(f"benchmark refused: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass        # another run still uses it

    failed = sum(1 for breaches in checked if breaches)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(runs)} CLI runs, {len(setup)} set-ups, "
          f"{workloads.evaluations(cfg)} Hamiltonian evaluations per run")
    print("env " + json.dumps(record, sort_keys=True))
    for i, breaches in enumerate(checked):
        for breach in breaches:
            print(f"  run {i} FAILED: {breach}")
    report("end-to-end (medians)", e2e, e2e_units)
    for name, values in (("wall_s", [r["wall_s"] for r in runs]), ("setup_s", setup)):
        print(f"  {name} samples: " + " ".join(f"{v:.4g}" for v in values))
    print(f"  {'fail_ratio':42s} {failed / len(checked):>14.6g} ratio "
          f"({failed}/{len(checked)})")
    if not args.trace:
        print(result_line(e2e, e2e_units, checked))
        return 0
    report("per-layer (traced, in-process, 1 worker; medians)", metrics, layer_units)
    total = sum(layers[k] for k in tracer.LAYER_TIMES)
    print("  self-time shares: " + ", ".join(
        f"{k} {layers[k] / total:.1%}"
        for k in sorted(tracer.LAYER_TIMES, key=layers.get, reverse=True)))
    print(result_line(metrics, layer_units, checked))
    return 0


if __name__ == "__main__":
    sys.exit(main())
