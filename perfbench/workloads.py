"""The benchmark's workloads: seeded sweep configs and the checks on their
outputs.

Each workload is one `otocsim sweep` invocation. The seed becomes the
disorder seed0 of the workload that has disorder; the other two have no
random input, so every seed gives them the same config. The checks read only
what the CLI leaves behind (exit code, printed crossings, CSV grid), so they
apply unchanged to any implementation of the program.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 2000          # the disorder seed0 of acceptance line c11b
CROSSING_TOL = 0.05          # acceptance tolerance on a located transition
# Absolute tolerance of the reference-grid check. The suite's closed-form
# tolerance is 1e-6; thread counts and BLAS builds move these grids by ~1e-14.
REFERENCE_TOL = 1e-10
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
OPNORM_BOUND = 1.0           # every probe here is a projector


def _grid(start: float, stop: float, step: float = 0.05) -> list:
    n = int(round((stop - start) / step)) + 1
    return [round(start + i * step, 10) for i in range(n)]


def _chain_probe(model: str, params: dict) -> dict:
    return {"model": model, "params": params,
            "initial_state": {"kind": "basis", "cell": 1, "sublattice": "A"},
            "w_operator": {"kind": "site_projector", "sites": [[1, "A"]]},
            "time_grid": {"t_max": 400.0, "dt": 0.2}}


def disorder_config(seed: int) -> dict:
    cfg = clean_chain_config()
    cfg["disorder"] = {"d1": 1.0, "d2": 2.0, "seed0": seed, "n_configs": 10}
    return cfg


def clean_chain_config() -> dict:
    """The c11b chain without disorder; its crossing is the reference the
    disordered crossing must lie above."""
    cfg = _chain_probe("ssh", {"N": 200, "nu": 0.6})
    cfg["sweep"] = {"axis1": {"name": "nu", "values": _grid(0.6, 1.3)}}
    return cfg


def corner_config(seed: int) -> dict:
    return {"model": "ssh2d", "params": {"Nx": 20, "Ny": 20, "nu_p": 0.55, "w": 1.0},
            "initial_state": {"kind": "site", "x": 1, "y": 1},
            "w_operator": {"kind": "index_projector", "indices": [2]},
            "time_grid": {"t_max": 100.0, "dt": 0.2},
            "sweep": {"axis1": {"name": "nu_p", "values": _grid(0.55, 0.90)}}}


def nonhermitian_config(seed: int) -> dict:
    # Two grid points on each side of sqrt(1 + delta^2) ~ 1.077; every point
    # costs about two seconds on the scaled_expm stepping path.
    cfg = _chain_probe("nonhermitian_ssh", {"N": 200, "nu": 0.8, "delta": 0.4})
    cfg["sweep"] = {"axis1": {"name": "nu", "values": [0.8, 0.95, 1.1, 1.25, 1.4]}}
    return cfg


@dataclass(frozen=True)
class Workload:
    name: str
    make_config: Callable[[int], dict]
    workers: int
    threshold: float | None


WORKLOADS = {w.name: w for w in (
    Workload("disorder_sweep", disorder_config, workers=2, threshold=0.1),
    Workload("corner_scan", corner_config, workers=1, threshold=None),
    Workload("nonhermitian_sweep", nonhermitian_config, workers=1, threshold=2e-5),
)}


def evaluations(cfg: dict) -> int:
    """Hamiltonian evaluations of one sweep: grid points x ensemble members."""
    members = (cfg.get("disorder") or {}).get("n_configs", 1)
    return len(cfg["sweep"]["axis1"]["values"]) * members


def cli_args(workload: Workload, config_path: str, out_path: str,
             workers: int) -> list:
    args = ["sweep", "--config", config_path, "--out", out_path,
            "--workers", str(workers)]
    if workload.threshold is not None:
        args += ["--threshold", repr(workload.threshold)]
    return args


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- parsing

def parse_sweep_csv(text: str) -> tuple:
    """(axis values, grid values) of a 1D sweep CSV."""
    lines = text.strip().splitlines()
    if not lines or len(lines[0].split(",")) != 2:
        raise ValueError("not a 1D sweep CSV")
    xs, ys = [], []
    for line in lines[1:]:
        x, y = line.split(",")
        xs.append(float(x))
        ys.append(float(y))
    return xs, ys


def parse_crossings(stdout: str) -> list:
    """Crossings printed by `otocsim sweep --threshold`."""
    for line in stdout.splitlines():
        if line.startswith("crossings at threshold"):
            rest = line.split(":", 1)[1].strip()
            return [] if rest == "none" else [float(v) for v in rest.split(",")]
    raise ValueError("no crossings line in the CLI output")


def powerlaw_transition(xs: list, ys: list, power: int = 6,
                        fit_window: tuple = (0.55, 0.85)) -> float:
    """Root of the least-squares line through (x^2, y^(1/power)) inside the
    window: the corner-mode extrapolation of acceptance line c09."""
    lo, hi = fit_window
    if not all(math.isfinite(y) and y >= 0 for y in ys):
        raise ValueError("grid values must be finite and nonnegative")
    pts = [(x * x, y ** (1.0 / power)) for x, y in zip(xs, ys) if lo <= x <= hi]
    if len(pts) < 2:
        raise ValueError("fit window keeps fewer than two points")
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    slope = (sum((p[0] - mx) * (p[1] - my) for p in pts)
             / sum((p[0] - mx) ** 2 for p in pts))
    intercept = my - slope * mx
    if slope >= 0 or intercept <= 0:
        raise ValueError("no decaying power-law trend in the fit window")
    return math.sqrt(-intercept / slope)


# ---------------------------------------------------------------- checks

def check_run(workload: Workload, cfg: dict, returncode: int, stdout: str,
              csv_text: str, reference: dict) -> list:
    """Breaches of the output contract for one run; empty when it passed.

    Every run: exit 0, the configured axis, every value finite and inside
    [0, opnorm_bound^2], and the workload's physics. The reference grid is
    compared whenever the config is the one the reference was recorded
    from; for disorder_sweep that is the default seed only, and so is its
    crossing check, because the crossing of a 10-member average moves with
    the disorder draw.
    """
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        xs, ys = parse_sweep_csv(csv_text)
        crossings = (parse_crossings(stdout)
                     if workload.threshold is not None else None)
    except ValueError as exc:
        return [f"unreadable output: {exc}"]
    breaches = []
    axis = cfg["sweep"]["axis1"]["values"]
    if len(xs) != len(axis) or any(abs(a - b) > 1e-12 for a, b in zip(xs, axis)):
        breaches.append("CSV axis differs from the configured axis")
    ceiling = OPNORM_BOUND ** 2
    bad = [y for y in ys if not (math.isfinite(y) and 0.0 <= y <= ceiling)]
    if bad:
        breaches.append(f"{len(bad)} values outside [0, {ceiling:g}] or not finite")

    ref = reference["workloads"][workload.name]
    recorded = cfg == ref["config"]
    if recorded:
        worst = max((abs(a - b) for a, b in zip(ys, ref["grid"])), default=0.0)
        if len(ys) != len(ref["grid"]) or worst > REFERENCE_TOL:
            breaches.append(f"grid differs from the reference by {worst:.3g} "
                            f"(tolerance {REFERENCE_TOL:g})")

    if workload.name == "nonhermitian_sweep":
        delta = cfg["params"]["delta"]
        target = math.sqrt(1.0 + delta ** 2)
        if len(crossings) != 1 or abs(crossings[0] - target) > CROSSING_TOL:
            breaches.append(f"crossings {crossings} not one within "
                            f"{CROSSING_TOL} of {target:.6g}")
    elif workload.name == "disorder_sweep" and recorded:
        clean = reference["clean_crossing"]
        if len(crossings) != 1 or not crossings[0] > clean:
            breaches.append(f"crossings {crossings} not one above the clean "
                            f"crossing {clean:.6g}")
    elif workload.name == "corner_scan":
        try:
            xc = powerlaw_transition(xs, ys)
        except ValueError as exc:
            breaches.append(f"power-law extrapolation failed: {exc}")
        else:
            if abs(xc - 1.0) > CROSSING_TOL:
                breaches.append(f"power-law crossing {xc:.6g} not within "
                                f"{CROSSING_TOL} of 1")
    return breaches
