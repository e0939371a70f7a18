"""Parameter-grid phase diagrams: parallel evaluation and transition location.

The work unit is one grid point (one Hamiltonian build, one decomposition,
one series); point-level parallelism saturates cores without shared state.
Results land in pre-sized slots by point index, which makes 1-worker and
K-worker grids bit-identical. An axis named "t" samples O(t) itself along
that direction, so a whole row shares one decomposition.
"""

from __future__ import annotations

import copy
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError, fingerprint, validate_config
from .ensemble import ensemble_average


class SweepError(RuntimeError):
    """A grid point failed; the message identifies the point."""


@dataclass
class SweepAxis:
    name: str
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.size == 0:
            raise ValueError("axis needs at least one value")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("axis values must be finite")


@dataclass
class SweepResult:
    axis1: SweepAxis
    axis2: SweepAxis | None
    grid: np.ndarray
    observable: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        expected = (self.axis1.values.size,)
        if self.axis2 is not None:
            expected += (self.axis2.values.size,)
        if self.grid.shape != expected:
            raise ValueError(f"grid shape {self.grid.shape} does not match axes {expected}")


def _assigned(cfg: dict, name: str, value: float) -> dict:
    out = copy.deepcopy(cfg)
    if name == "d":
        out["disorder"]["d1"] = float(value) / 2.0
        out["disorder"]["d2"] = float(value)
    else:
        out["params"][name] = float(value)
    return out


def _point(job):
    """One grid point as a disorder ensemble; a point without an ensemble is
    a one-member ensemble of the config itself."""
    cfg, observable, times = job
    dis = cfg.get("disorder") or {}
    return ensemble_average(cfg, n_configs=dis.get("n_configs", 1),
                            seed0=dis.get("seed0"), observable=observable,
                            times=times).mean


def _failure(label: str, exc: Exception) -> Exception:
    kind = ConfigError if isinstance(exc, ConfigError) else SweepError
    return kind(f"grid point {label} failed: {exc}")


def _run_points(worker, jobs, labels, workers: int):
    results = [None] * len(jobs)
    if workers <= 1:
        for i, job in enumerate(jobs):
            try:
                results[i] = worker(job)
            except Exception as exc:
                raise _failure(labels[i], exc) from exc
        return results
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(worker, job) for job in jobs]
        for i, fut in enumerate(futures):
            try:
                results[i] = fut.result()
            except Exception as exc:
                raise _failure(labels[i], exc) from exc
    return results


def sweep(cfg: dict, workers: int = 1) -> SweepResult:
    """Evaluate the configured observable over the sweep axes. The config is
    validated here, so its sweep rules hold below: the axes have distinct
    names, and full_series comes with a 't' axis."""
    cfg = validate_config(cfg)
    spec = cfg.get("sweep")
    if spec is None:
        raise ConfigError("sweep section is required")
    axes = [SweepAxis(**spec[label]) for label in ("axis1", "axis2")
            if spec.get(label) is not None]
    observable = cfg["observable"]["name"]
    meta = {"fingerprint": fingerprint(cfg), "model": cfg["model"],
            "params": cfg["params"]}
    if cfg.get("disorder") is not None:
        meta["disorder"] = cfg["disorder"]

    t_axes = [ax for ax in axes if ax.name == "t"]
    if t_axes:
        times, point_observable, observable = t_axes[0].values, "full_series", "otoc"
    else:
        times, point_observable = None, observable
    p_axes = [ax for ax in axes if ax.name != "t"]
    jobs, labels = [], []
    for values in itertools.product(*(ax.values for ax in p_axes)):
        point = cfg
        for ax, v in zip(p_axes, values):
            point = _assigned(point, ax.name, v)
        jobs.append((point, point_observable, times))
        names = ", ".join(f"{ax.name}={v:g}" for ax, v in zip(p_axes, values))
        labels.append(f"({names or 't'})")
    vals = _run_points(_point, jobs, labels, workers)
    grid = np.asarray(vals, dtype=float).reshape(
        [ax.values.size for ax in p_axes + t_axes])
    if t_axes and p_axes and t_axes[0] is axes[0]:
        grid = grid.T            # (t, param)
    return SweepResult(axis1=axes[0], axis2=axes[1] if len(axes) > 1 else None,
                       grid=grid, observable=observable, metadata=meta)


def detect_transition(result: SweepResult, threshold: float | None = None) -> list:
    """Axis positions where a 1D sweep crosses the threshold, located by
    linear interpolation between adjacent grid values. Default threshold is
    5% of the grid maximum. Empty and constant grids yield no crossings."""
    if result.axis2 is not None:
        raise ValueError("detect_transition needs a 1D sweep")
    g = np.asarray(result.grid, dtype=float)
    x = result.axis1.values
    if g.size == 0 or np.all(g == g.flat[0]):
        return []
    if threshold is None:
        threshold = 0.05 * float(g.max())
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    crossings = []
    rel = g - threshold
    for i in range(g.size - 1):
        a, b = rel[i], rel[i + 1]
        if a == 0.0 and b != 0.0:
            crossings.append(float(x[i]))
        elif a * b < 0.0:
            crossings.append(float(x[i] + (x[i + 1] - x[i]) * (-a) / (b - a)))
    return crossings


def estimate_transition_powerlaw(result: SweepResult, power: int = 6,
                                 fit_window: tuple | None = None) -> float:
    """Transition estimate for observables vanishing like (x_c^2 - x^2)^power:
    fit grid^(1/power) linearly against x^2 inside fit_window and return the
    positive root of the fitted line. Used where the plateau sinks into the
    dephasing floor before the crossing point itself is resolvable. The
    default exponent matches the measured vanishing rate of corner-probe
    plateaus on the four-component square lattice at accessible sizes."""
    if result.axis2 is not None:
        raise ValueError("estimate_transition_powerlaw needs a 1D sweep")
    x = result.axis1.values
    g = np.asarray(result.grid, dtype=float)
    if fit_window is not None:
        lo, hi = fit_window
        keep = (x >= lo) & (x <= hi)
        x, g = x[keep], g[keep]
    if x.size < 2:
        raise ValueError("fit window keeps fewer than two points")
    if np.any(g < 0):
        raise ValueError("grid values must be nonnegative")
    y = g ** (1.0 / power)
    slope, intercept = np.polyfit(x ** 2, y, 1)
    if slope >= 0 or intercept <= 0:
        raise ValueError("no decaying power-law trend in the fit window")
    return float(np.sqrt(-intercept / slope))
