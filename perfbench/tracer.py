"""In-process span tracer for the otocsim layers.

The tracer wraps the calls into each layer's public functions from outside
the package, so no source file changes: it rebinds the names the callers
look up at call time and restores them afterwards. Spans (name, start, end,
parent, run id, plus a few counts) are kept in memory and written out when
the run ends.

Run as a script it makes the traced passes of one workload: alternately an
untraced and a traced call of `otocsim.cli.main`, always with one worker,
because wrappers do not reach pool worker processes.

    python3 perfbench/tracer.py --workload corner_scan --config CFG.json \
        --workdir DIR --seconds 10 --result spans.json
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import statistics
import sys
import time
from pathlib import Path

import workloads

KINDS = ("hermitian_spectral", "general_spectral", "scaled_expm")

# Span name -> the per-layer time metric its self time counts toward. The
# pipeline's build_* functions are the entry points into lattice and
# operators; the root and the sweep spans hold the orchestration glue.
LAYER_OF = {
    "cli.main": "sweep.overhead_s",
    "sweep.sweep": "sweep.overhead_s",
    "sweep._run_points": "sweep.overhead_s",
    "config.load_config": "config.load_s",
    "pipeline.build_hamiltonian": "lattice.build_s",
    "pipeline.build_initial_state": "operators.build_s",
    "pipeline.build_w_operator": "operators.build_s",
    "dynamics.spectral_decompose": "dynamics.decompose_s",
    "dynamics.otoc_series": "dynamics.series_s",
    "dynamics.long_time_limit": "dynamics.reduce_s",
    "ensemble.draw_disorder": "ensemble.draw_s",
    "fileio.write_sweep_csv": "fileio.write_s",
}
LAYER_TIMES = tuple(dict.fromkeys(LAYER_OF.values()))


def _hamiltonian_counts(H, args, kwargs) -> dict:
    return {"dim": H.dim, "itemsize": H.entries.itemsize}


def _propagator_kind(prop, args, kwargs) -> dict:
    return {"kind": prop.kind}


def _series_samples(series, args, kwargs) -> dict:
    return {"samples": int(series.values.size)}


def _written_bytes(_, args, kwargs) -> dict:
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute the caller looks up, span name, counts taken from the
# result). `otocsim.sweep` is reached through importlib because the package
# rebinds that name to the sweep function; pipeline imported the dynamics
# and ensemble functions by name, so they are rebound in its namespace.
TARGETS = (
    ("otocsim.cli", "load_config", "config.load_config", None),
    ("otocsim.cli", "run_sweep", "sweep.sweep", None),
    ("otocsim.sweep", "_run_points", "sweep._run_points", None),
    ("otocsim.pipeline", "build_hamiltonian", "pipeline.build_hamiltonian",
     _hamiltonian_counts),
    ("otocsim.pipeline", "build_initial_state", "pipeline.build_initial_state", None),
    ("otocsim.pipeline", "build_w_operator", "pipeline.build_w_operator", None),
    ("otocsim.pipeline", "spectral_decompose", "dynamics.spectral_decompose",
     _propagator_kind),
    ("otocsim.pipeline", "otoc_series", "dynamics.otoc_series", _series_samples),
    ("otocsim.pipeline", "long_time_limit", "dynamics.long_time_limit", None),
    ("otocsim.pipeline", "draw_disorder", "ensemble.draw_disorder", None),
    ("otocsim.fileio", "write_sweep_csv", "fileio.write_sweep_csv", _written_bytes),
)


class Tracer:
    """Collects the spans of one run in memory."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: list = []
        self._open: list = []

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "run": self.run_id,
                    "parent": self._open[-1] if self._open else None,
                    "start": time.perf_counter(), "end": None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span.update(counts(out, args, kwargs))
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target to its traced wrapper for the duration."""
        saved = []
        try:
            for module_name, attr, name, counts in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, counts))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans: list) -> dict:
    """Per-layer numbers of one traced run, plus the root wall time
    (`root_s`) and the serial compute time of the point loop
    (`run_points_s`) from which the run-level ratios are formed."""
    out = dict.fromkeys(LAYER_TIMES, 0.0)
    for span, own in zip(spans, self_times(spans)):
        out[LAYER_OF[span["name"]]] += own

    def named(name):
        return [s for s in spans if s["name"] == name]

    builds = named("pipeline.build_hamiltonian")
    decomps = named("dynamics.spectral_decompose")
    out["lattice.calls"] = len(builds)
    out["lattice.dim_max"] = max((s["dim"] for s in builds), default=0)
    out["lattice.dense_mb"] = max((s["dim"] ** 2 * s["itemsize"] for s in builds),
                                  default=0) / 2 ** 20
    out["dynamics.decompose_calls"] = len(decomps)
    for kind in KINDS:
        out[f"dynamics.decompose_n.{kind}"] = sum(s["kind"] == kind for s in decomps)
    # the scaled_expm fallback discards the eigenvectors eig() computed
    out["dynamics.decompose_wasted_ratio"] = (
        out["dynamics.decompose_n.scaled_expm"] / len(decomps) if decomps else 0.0)
    out["dynamics.series_samples"] = sum(s["samples"] for s in named("dynamics.otoc_series"))
    out["ensemble.members"] = len(named("ensemble.draw_disorder"))
    out["fileio.bytes"] = sum(s["bytes"] for s in named("fileio.write_sweep_csv"))
    roots = [s for s in spans if s["parent"] is None]
    out["root_s"] = sum(s["end"] - s["start"] for s in roots)
    out["run_points_s"] = sum(s["end"] - s["start"] for s in named("sweep._run_points"))
    return out


def run_cli(argv: list, tracer: Tracer | None = None) -> dict:
    """One in-process `otocsim` call with stdout captured; traced when a
    tracer is given."""
    from otocsim import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if tracer is None:
            start = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - start
        else:
            with tracer.installed():
                code = tracer.wrap("cli.main", cli.main)(argv)
            wall = tracer.spans[0]["end"] - tracer.spans[0]["start"]
    return {"returncode": code, "stdout": buf.getvalue(), "wall_s": wall,
            "spans": tracer.spans if tracer is not None else None}


def summarize(runs: list) -> dict:
    """Medians over the traced runs of every layer number, and the tracing
    overhead: median traced wall minus median untraced wall."""
    traced = [layer_metrics(r["spans"]) for r in runs if r["traced"]]
    out = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
    untraced = statistics.median(r["wall_s"] for r in runs if not r["traced"])
    out["trace.overhead_s"] = out["root_s"] - untraced
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--config", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)
    csv_path = Path(args.workdir) / "traced.csv"
    cli_argv = workloads.cli_args(workloads.WORKLOADS[args.workload],
                                  args.config, str(csv_path), workers=1)
    import otocsim.cli  # noqa: F401  import cost stays out of the passes
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < args.seconds:
        for tracer in (None, Tracer(run_id=len(runs) // 2)):
            csv_path.unlink(missing_ok=True)
            run = run_cli(cli_argv, tracer)
            run["traced"] = tracer is not None
            run["csv"] = csv_path.read_text() if csv_path.exists() else ""
            runs.append(run)
    with open(args.result, "w") as fh:
        json.dump({"runs": runs}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
