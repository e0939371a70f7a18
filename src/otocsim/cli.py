"""Command line entry point.

Exit codes: 0 success, 1 numerical failure, 2 config/schema violation (the
message names the offending field), 3 validation tolerance breach.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import analytic, fileio, pipeline
from .config import ConfigError, fingerprint, load_config, validate_config
from .dynamics import EigensolverError
from .ensemble import EnsembleError, ensemble_average
from .sweep import SweepError, detect_transition
from .sweep import sweep as run_sweep

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_SCHEMA = 2
EXIT_VALIDATION = 3


def _resolve_workers(args) -> int:
    if getattr(args, "workers", None) is not None:
        return max(1, args.workers)
    env = os.environ.get("OTOC_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"OTOC_WORKERS must be an integer, got {env!r}")
    return 1


def cmd_otoc(args) -> int:
    cfg = load_config(args.config)
    series = pipeline.run_point(cfg, observable="full_series")
    fileio.write_series_csv(args.out, series)
    if args.json:
        fileio.write_json(args.json, fileio.series_envelope(cfg, series))
    if args.emit_plot:
        fileio.write_series_svg(args.emit_plot, series)
    print(f"wrote {args.out}  ({series.times.size} samples, tail mean "
          f"{series.metadata['tail_mean']:.6g}, fingerprint {fingerprint(cfg)[:12]})")
    return EXIT_OK


def _sweep_common(args, need_2d: bool) -> int:
    cfg = load_config(args.config)
    if need_2d and (cfg.get("sweep") or {}).get("axis2") is None:
        raise ConfigError("sweep.axis2 is required for phase-diagram")
    workers = _resolve_workers(args)
    result = run_sweep(cfg, workers=workers)
    fileio.write_sweep_csv(args.out, result)
    if args.json:
        fileio.write_json(args.json, fileio.sweep_envelope(cfg, result))
    if args.emit_plot:
        fileio.write_sweep_svg(args.emit_plot, result)
    msg = f"wrote {args.out}  (grid {result.grid.shape}, workers {workers})"
    if result.axis2 is None and args.threshold is not None:
        crossings = detect_transition(result, args.threshold)
        pts = ", ".join(f"{c:.6g}" for c in crossings) or "none"
        msg += f"\ncrossings at threshold {args.threshold:g}: {pts}"
    print(msg)
    return EXIT_OK


def cmd_sweep(args) -> int:
    return _sweep_common(args, need_2d=False)


def cmd_phase_diagram(args) -> int:
    return _sweep_common(args, need_2d=True)


def cmd_ensemble(args) -> int:
    cfg = load_config(args.config)
    dis = cfg.get("disorder")
    if dis is None or "n_configs" not in dis:
        raise ConfigError("ensemble requires disorder.seed0 and disorder.n_configs")
    res = ensemble_average(cfg, n_configs=dis["n_configs"], seed0=dis["seed0"],
                           observable=cfg["observable"]["name"])
    fileio.write_json(args.out, fileio.ensemble_envelope(cfg, res))
    if res.observable == "full_series":
        print(f"wrote {args.out}  ({res.n_configs} configs, series mean)")
    else:
        print(f"wrote {args.out}  ({res.n_configs} configs, "
              f"mean {res.mean:.6g}, std {res.std:.6g})")
    return EXIT_OK


_DEFAULT_VALIDATE = {
    "model": "extended_chain",
    "params": {"N": 200, "nu": 0.5},
}


def cmd_validate(args) -> int:
    if args.config:
        cfg = load_config(args.config, require_run=False)
    else:
        cfg = validate_config(_DEFAULT_VALIDATE, require_run=False)
    if cfg["model"] != "extended_chain":
        raise ConfigError("validate runs on model 'extended_chain'")
    params = cfg["params"]
    system = analytic.analytic_eigenpairs(**params)
    point = {"model": "extended_chain", "params": params,
             "initial_state": {"kind": "index", "index": 0},
             "w_operator": {"kind": "index_projector", "indices": [0]},
             "time_grid": cfg["time_grid"]}
    series = pipeline.run_point(point, observable="full_series")
    closed = analytic.otoc_site_closed_form(system, series.times, L=1, M=1)
    diff = np.abs(closed - series.values)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("t,analytic,numeric,diff\n")
            for row in zip(series.times, closed, series.values, diff):
                fh.write(",".join("%.17g" % v for v in row) + "\n")
    worst = float(diff.max())
    status = "ok" if worst <= args.tol else "FAIL"
    print(f"validate N={params['N']} nu={params['nu']:g}: max |analytic - "
          f"numeric| = {worst:.3e} (tol {args.tol:g}) {status}")
    return EXIT_OK if worst <= args.tol else EXIT_VALIDATION


def cmd_model_dump(args) -> int:
    cfg = load_config(args.config, require_run=False)
    disorder = pipeline._disorder_from_config(cfg, None)
    H = pipeline.build_hamiltonian(cfg["model"], cfg["params"], disorder)
    fileio.write_dense_matrix(args.out, H.entries)
    print(f"wrote {args.out}  (dim {H.dim}, hermitian {H.hermitian}, "
          f"fingerprint {fingerprint(cfg)[:12]})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="otocsim",
                                description="OTOC dynamics for tight-binding "
                                            "lattice models")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("otoc", help="single OTOC time series")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default="otoc.csv")
    sp.add_argument("--json", default=None, help="also write a JSON envelope")
    sp.add_argument("--emit-plot", default=None, metavar="SVG")
    sp.set_defaults(func=cmd_otoc)

    for name, func, help_ in (("sweep", cmd_sweep, "1D/2D parameter sweep"),
                              ("phase-diagram", cmd_phase_diagram,
                               "2D sweep (requires axis2)")):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=f"{name.replace('-', '_')}.csv")
        sp.add_argument("--json", default=None)
        sp.add_argument("--emit-plot", default=None, metavar="SVG")
        sp.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: OTOC_WORKERS or 1)")
        sp.add_argument("--threshold", type=float, default=None,
                        help="report 1D threshold crossings")
        sp.set_defaults(func=func)

    sp = sub.add_parser("ensemble", help="disorder-averaged observable")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default="ensemble.json")
    sp.set_defaults(func=cmd_ensemble)

    sp = sub.add_parser("validate",
                        help="closed form vs numerics on the benchmark chain")
    sp.add_argument("--config", default=None)
    sp.add_argument("--out", default=None, help="write (t,analytic,numeric,diff) CSV")
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("model-dump", help="write the dense Hamiltonian matrix")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default="model.txt")
    sp.set_defaults(func=cmd_model_dump)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (EigensolverError, EnsembleError, SweepError, FloatingPointError,
            np.linalg.LinAlgError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
