#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Runs every workload once through the CLI on the default seed, plus the clean
(disorder-free) c11b chain at threshold 0.1, and writes the grids and
crossings to perfbench/reference.json. Run it only on a commit whose outputs
are trusted: the tier-1 acceptance checklist passes there.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def sweep_once(workload, cfg: dict, workdir: Path, env: dict) -> dict:
    cfg_path, out_csv = workdir / "config.json", workdir / "sweep.csv"
    cfg_path.write_text(json.dumps(cfg))
    cmd = [sys.executable, "-m", "otocsim"] + workloads.cli_args(
        workload, str(cfg_path), str(out_csv), 1)
    res = run.run_process(cmd, env, workdir, 600)
    if res["returncode"] != 0:
        raise SystemExit(f"{workload.name}: exit {res['returncode']}\n{res['stderr']}")
    _, grid = workloads.parse_sweep_csv(out_csv.read_text())
    entry = {"config": cfg, "grid": grid}
    if workload.threshold is not None:
        entry["crossings"] = workloads.parse_crossings(res["stdout"])
    return entry


def main() -> int:
    env = run.program_env(max(1, len(os.sched_getaffinity(0))))
    scratch = run.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=scratch))
    try:
        ref = {"workloads": {}}
        for name, workload in workloads.WORKLOADS.items():
            cfg = workload.make_config(workloads.DEFAULT_SEED)
            ref["workloads"][name] = sweep_once(workload, cfg, workdir, env)
        clean = sweep_once(workloads.WORKLOADS["disorder_sweep"],
                           workloads.clean_chain_config(), workdir, env)
        if len(clean["crossings"]) != 1:
            raise SystemExit(f"clean chain crossings {clean['crossings']}, expected one")
        ref["clean_crossing"] = clean["crossings"][0]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        scratch.rmdir()
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
