"""Result persistence: CSV tables, JSON envelopes, dense matrix dumps, and
self-contained SVG plots.

Floats go through %.17g so every value round-trips bit-exactly; JSON numbers
use Python's shortest round-trip repr, which is equally lossless. JSON
envelopes carry the config and its sha256 fingerprint; CSVs stay clean
tables.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from . import __version__
from .config import fingerprint

TOOL_NAME = "otocsim"

_F = "%.17g"


def _fmt(x) -> str:
    return _F % float(x)


# ---------------------------------------------------------------- CSV

def write_series_csv(path: str, series) -> None:
    with open(path, "w", newline="") as fh:
        if series.amplitudes is not None:
            fh.write("t,otoc,re_s,im_s\n")
            for t, v, s in zip(series.times, series.values, series.amplitudes):
                fh.write(f"{_fmt(t)},{_fmt(v)},{_fmt(s.real)},{_fmt(s.imag)}\n")
        else:
            fh.write("t,otoc\n")
            for t, v in zip(series.times, series.values):
                fh.write(f"{_fmt(t)},{_fmt(v)}\n")


def read_series_csv(path: str) -> dict:
    """Columns of a series CSV as float arrays keyed by header name."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = {name: [] for name in header}
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"malformed row in {path}: {row!r}")
            for name, cell in zip(header, row):
                cols[name].append(float(cell))
    return {name: np.asarray(vals) for name, vals in cols.items()}


def write_sweep_csv(path: str, result) -> None:
    with open(path, "w", newline="") as fh:
        if result.axis2 is None:
            fh.write(f"{result.axis1.name},{result.observable}\n")
            for x, v in zip(result.axis1.values, result.grid):
                fh.write(f"{_fmt(x)},{_fmt(v)}\n")
        else:
            fh.write(f"{result.axis1.name},{result.axis2.name},{result.observable}\n")
            for i, x1 in enumerate(result.axis1.values):
                for j, x2 in enumerate(result.axis2.values):
                    fh.write(f"{_fmt(x1)},{_fmt(x2)},{_fmt(result.grid[i, j])}\n")


# ---------------------------------------------------------------- JSON

def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def series_envelope(cfg: dict, series) -> dict:
    """The series with its config and, under "metadata", how it was made:
    the propagator kind, the eigensolver or the Chebyshev term count and
    scale, the energy unit, the model and the config fingerprint."""
    env = {"tool": TOOL_NAME, "version": __version__, "kind": "otoc_series",
           "fingerprint": fingerprint(cfg), "config": cfg,
           "times": series.times, "otoc": series.values,
           "metadata": series.metadata}
    if series.amplitudes is not None:
        env["amplitude_re"] = np.real(series.amplitudes)
        env["amplitude_im"] = np.imag(series.amplitudes)
    return env


def sweep_envelope(cfg: dict, result) -> dict:
    env = {"tool": TOOL_NAME, "version": __version__, "kind": "sweep",
           "fingerprint": fingerprint(cfg), "config": cfg,
           "observable": result.observable,
           "axis1": {"name": result.axis1.name, "values": result.axis1.values},
           "axis2": None, "grid": result.grid}
    if result.axis2 is not None:
        env["axis2"] = {"name": result.axis2.name, "values": result.axis2.values}
    return env


def _disorder_d(dis: dict):
    if abs(dis["d2"] - 2.0 * dis["d1"]) <= 1e-15 * max(1.0, abs(dis["d2"])):
        return dis["d2"]
    return [dis["d1"], dis["d2"]]


def ensemble_envelope(cfg: dict, result) -> dict:
    dis = cfg["disorder"]
    return {"tool": TOOL_NAME, "version": __version__, "kind": "ensemble",
            "fingerprint": fingerprint(cfg),
            "model": cfg["model"], "params": cfg["params"],
            "d": _disorder_d(dis), "n_configs": result.n_configs,
            "seed0": result.seed0, "observable": result.observable,
            "mean": result.mean, "std": result.std,
            "per_config": result.per_config,
            "times": result.times}


# ---------------------------------------------------------------- dense matrix

def write_dense_matrix(path: str, entries: np.ndarray) -> None:
    """Text dump: first line the dimension, then one row per line as
    whitespace-separated re im pairs."""
    arr = np.asarray(entries, dtype=complex)
    n = arr.shape[0]
    if arr.shape != (n, n):
        raise ValueError("dense matrix dump needs a square matrix")
    with open(path, "w") as fh:
        fh.write(f"{n}\n")
        for row in arr:
            parts = []
            for z in row:
                parts.append(_fmt(z.real))
                parts.append(_fmt(z.imag))
            fh.write(" ".join(parts) + "\n")


def read_dense_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline().strip()
        try:
            n = int(first)
        except ValueError:
            raise ValueError(f"bad dimension header {first!r} in {path}")
        out = np.empty((n, n), dtype=complex)
        for i in range(n):
            line = fh.readline()
            if not line:
                raise ValueError(f"{path} ends after {i} of {n} rows")
            vals = [float(v) for v in line.split()]
            if len(vals) != 2 * n:
                raise ValueError(f"row {i} of {path} has {len(vals)} values, expected {2 * n}")
            arr = np.asarray(vals)
            out[i] = arr[0::2] + 1j * arr[1::2]
    return out


# ---------------------------------------------------------------- SVG

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 72, 24, 24, 56


def _scaled(vals, lo, hi, out_lo, out_hi):
    if hi == lo:
        return np.full_like(np.asarray(vals, dtype=float), 0.5 * (out_lo + out_hi))
    return out_lo + (np.asarray(vals, dtype=float) - lo) * (out_hi - out_lo) / (hi - lo)


def _svg_header(title: str) -> list:
    return [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">',
            f'<title>{title}</title>',
            f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>']


def _axis_labels(xlabel: str, ylabel: str, xlo, xhi, ylo, yhi) -> list:
    e = []
    e.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>')
    e.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>')
    e.append(f'<text x="{(_ML + _W - _MR) // 2}" y="{_H - 12}" text-anchor="middle" '
             f'font-size="14">{xlabel}</text>')
    e.append(f'<text x="16" y="{(_MT + _H - _MB) // 2}" text-anchor="middle" font-size="14" '
             f'transform="rotate(-90 16 {(_MT + _H - _MB) // 2})">{ylabel}</text>')
    e.append(f'<text x="{_ML}" y="{_H - _MB + 18}" text-anchor="middle" font-size="12">{xlo:g}</text>')
    e.append(f'<text x="{_W - _MR}" y="{_H - _MB + 18}" text-anchor="middle" font-size="12">{xhi:g}</text>')
    e.append(f'<text x="{_ML - 6}" y="{_H - _MB + 4}" text-anchor="end" font-size="12">{ylo:g}</text>')
    e.append(f'<text x="{_ML - 6}" y="{_MT + 4}" text-anchor="end" font-size="12">{yhi:g}</text>')
    return e


def write_svg_line(path: str, xs, ys, xlabel: str, ylabel: str,
                   title: str = "otoc") -> None:
    """One-curve line plot; every point is its own circle element carrying
    data-axis/data-value attributes. Switches to log10 on the y axis when the
    positive data span more than three decades."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    ylab = ylabel
    yplot = ys
    pos = ys[ys > 0]
    if pos.size == ys.size and pos.size and pos.max() / pos.min() > 1e3:
        yplot = np.log10(ys)
        ylab = f"log10 {ylabel}"
    xlo, xhi = float(xs.min()), float(xs.max())
    ylo, yhi = float(yplot.min()), float(yplot.max())
    if ylo == yhi:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    px = _scaled(xs, xlo, xhi, _ML, _W - _MR)
    py = _scaled(yplot, ylo, yhi, _H - _MB, _MT)
    e = _svg_header(title)
    e += _axis_labels(xlabel, ylab, xlo, xhi, ylo, yhi)
    pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
    e.append(f'<polyline points="{pts}" fill="none" stroke="#1f4e9c" stroke-width="1.5"/>')
    for x, y, a, b in zip(xs, ys, px, py):
        e.append(f'<circle cx="{a:.2f}" cy="{b:.2f}" r="2.5" fill="#1f4e9c" '
                 f'data-axis="{_fmt(x)}" data-value="{_fmt(y)}"/>')
    e.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(e) + "\n")


def _heat_color(u: float) -> str:
    # dark blue -> teal -> yellow, clamped
    u = min(1.0, max(0.0, u))
    stops = [(13, 8, 135), (33, 145, 140), (253, 231, 37)]
    if u <= 0.5:
        f, (c0, c1) = u / 0.5, (stops[0], stops[1])
    else:
        f, (c0, c1) = (u - 0.5) / 0.5, (stops[1], stops[2])
    rgb = [round(a + (b - a) * f) for a, b in zip(c0, c1)]
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def write_svg_heatmap(path: str, xs, ys, grid, xlabel: str, ylabel: str,
                      title: str = "sweep") -> None:
    """2D grid as colored cells; one rect per grid point with data-x/data-y/
    data-value attributes. grid[i, j] belongs to (xs[i], ys[j])."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    grid = np.asarray(grid, dtype=float)
    lo, hi = float(grid.min()), float(grid.max())
    span = hi - lo if hi > lo else 1.0
    nx, ny = xs.size, ys.size
    cw = (_W - _ML - _MR) / nx
    ch = (_H - _MT - _MB) / ny
    e = _svg_header(title)
    e += _axis_labels(xlabel, ylabel, float(xs.min()), float(xs.max()),
                      float(ys.min()), float(ys.max()))
    for i in range(nx):
        for j in range(ny):
            u = (grid[i, j] - lo) / span
            x0 = _ML + i * cw
            y0 = _H - _MB - (j + 1) * ch
            e.append(f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{cw:.2f}" height="{ch:.2f}" '
                     f'fill="{_heat_color(u)}" data-x="{_fmt(xs[i])}" data-y="{_fmt(ys[j])}" '
                     f'data-value="{_fmt(grid[i, j])}"/>')
    e.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(e) + "\n")


def write_sweep_svg(path: str, result) -> None:
    if result.axis2 is None:
        write_svg_line(path, result.axis1.values, result.grid,
                       result.axis1.name, result.observable)
    else:
        write_svg_heatmap(path, result.axis1.values, result.axis2.values,
                          result.grid, result.axis1.name, result.axis2.name)


def write_series_svg(path: str, series) -> None:
    write_svg_line(path, series.times, series.values, "t", "otoc")
