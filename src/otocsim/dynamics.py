"""Time evolution and OTOC series evaluation.

The correlator tracked everywhere is O(t) = |s(t)|^2 with
s(t) = <psi0| e^{+iHt} W e^{-iHt} |psi0>, evaluated on a grid of times.
Times are dimensionless multiples of 1/energy_unit of the Hamiltonian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .lattice import HamiltonianMatrix
from .operators import OperatorMatrix, StateVector

_ORACLE_MAX_DIM = 64
_GRID_RTOL = 1e-13


class EigensolverError(RuntimeError):
    """Dense eigensolver failed to converge."""


@dataclass
class TimeGrid:
    """Uniform grid 0, dt, 2*dt, ..., t_max in units of 1/energy_unit."""

    t_max: float = 400.0
    dt: float = 0.2

    def __post_init__(self):
        if self.t_max <= 0 or self.dt <= 0:
            raise ValueError("t_max and dt must be positive")
        if self.dt > self.t_max:
            raise ValueError("dt exceeds t_max")

    def times(self) -> np.ndarray:
        n = int(round(self.t_max / self.dt))
        return np.arange(n + 1) * self.dt


@dataclass
class Propagator:
    """Diagonalized (or exponential-stepping) form of a Hamiltonian.

    kind is "hermitian_spectral" for Hermitian input, which keeps the
    eigenpairs, and "scaled_expm" for non-Hermitian input, which keeps the
    Hamiltonian and evolves by matrix exponentials: the eigenbasis of a
    non-Hermitian chain is too ill conditioned to trust.
    """

    kind: str
    dim: int
    energy_unit: float
    eigenvalues: np.ndarray | None = None
    eigenvectors: np.ndarray | None = None
    hamiltonian: np.ndarray | None = None


@dataclass
class TailStats:
    mean: float
    std: float


@dataclass
class OtocSeries:
    times: np.ndarray
    values: np.ndarray
    amplitudes: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have matching shape")


def spectral_decompose(H: HamiltonianMatrix) -> Propagator:
    """Diagonalize a Hermitian H; keep a non-Hermitian H for exponential
    stepping."""
    if not H.hermitian:
        if not np.isfinite(H.entries).all():
            raise FloatingPointError("Hamiltonian entries are not finite")
        return Propagator(kind="scaled_expm", dim=H.dim,
                          energy_unit=H.energy_unit,
                          hamiltonian=np.asarray(H.entries))
    try:
        lam, V = np.linalg.eigh(H.entries)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"hermitian eigensolver failed: {exc}") from exc
    return Propagator(kind="hermitian_spectral", dim=H.dim,
                      energy_unit=H.energy_unit, eigenvalues=lam,
                      eigenvectors=V)


def _phase_blocks(lam: np.ndarray, tau: np.ndarray):
    """Factors of exp(-i lam tau) on a uniform grid of n_t >= 4 samples, or
    None on any other grid. With B = ceil(sqrt(n_t)),
    coarse[:, b] = exp(-i lam tau[b*B]) and fine[:, m] = exp(-i lam (tau[m] -
    tau[0])), so exp(-i lam tau[b*B + m]) = coarse[:, b] * fine[:, m]: 2*n*B
    exponentials instead of n*n_t. Uniform means that tau deviates from the
    line through its end points by at most _GRID_RTOL times the largest
    |tau| (the rounding of k*dt grows with k)."""
    if tau.size < 4:
        return None
    h = (tau[-1] - tau[0]) / (tau.size - 1)
    if (np.abs(tau - (tau[0] + h * np.arange(tau.size))).max()
            > _GRID_RTOL * np.abs(tau).max()):
        return None
    B = math.isqrt(tau.size - 1) + 1
    coarse = np.exp(-1j * np.multiply.outer(lam, tau[::B]))
    fine = np.exp(-1j * np.multiply.outer(lam, tau[:B] - tau[0]))
    return coarse, fine


def _phase_table(lam: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """exp(-i lam tau) as an n x n_t table, assembled from _phase_blocks
    where they apply."""
    blocks = _phase_blocks(lam, tau)
    if blocks is None:
        return np.exp(-1j * np.multiply.outer(lam, tau))
    coarse, fine = blocks
    table = coarse[:, :, None] * fine[:, None, :]
    return table.reshape(lam.size, -1)[:, :tau.size]


def _evolve_ket(prop: Propagator, psi: np.ndarray, tau: float) -> np.ndarray:
    """e^{-i H tau} psi."""
    if prop.kind == "scaled_expm":
        return scipy.linalg.expm(-1j * prop.hamiltonian * tau) @ psi
    V = prop.eigenvectors
    return V @ (np.exp(-1j * prop.eigenvalues * tau) * (V.conj().T @ psi))


def _evolve_bra(prop: Propagator, psi: np.ndarray, tau: float) -> np.ndarray:
    """e^{-i H^dag tau} psi; equals forward evolution for Hermitian H."""
    if prop.kind == "scaled_expm":
        return scipy.linalg.expm(-1j * prop.hamiltonian.conj().T * tau) @ psi
    return _evolve_ket(prop, psi, tau)


def evolve(prop: Propagator, state: StateVector, t: float) -> StateVector:
    """Apply e^{-iHt} (t in units of 1/energy_unit; negative t runs the exact
    inverse). No renormalization is applied."""
    out = _evolve_ket(prop, state.amplitudes, t / prop.energy_unit)
    return StateVector(dim=state.dim, amplitudes=out, normalized=False)


def otoc_amplitude(prop: Propagator, W: OperatorMatrix, psi0: StateVector,
                   t: float) -> complex:
    """s(t) in three matrix-vector stages: evolve the ket, apply W, close with
    the (adjoint-evolved) bra."""
    tau = t / prop.energy_unit
    f = _evolve_ket(prop, psi0.amplitudes, tau)
    g = _evolve_bra(prop, psi0.amplitudes, tau)
    return complex(np.vdot(g, W.entries @ f))


def _diagonal_weights(prop, w, psi0, tau):
    """sum_r w_r |<r| e^{-iHt} |psi0>|^2 for a diagonal W and Hermitian H. A
    support of at most B rows is contracted block by block and never forms
    the n x n_t phase table; a wider support is one matrix product with the
    table, which is faster there than the block loop."""
    rows = np.nonzero(w)[0]
    A = prop.eigenvectors[rows, :] * (prop.eigenvectors.conj().T @ psi0)
    blocks = _phase_blocks(prop.eigenvalues, tau)
    if blocks is None or rows.size > blocks[1].shape[1]:
        U = A @ _phase_table(prop.eigenvalues, tau)
    else:
        coarse, fine = blocks
        U = np.empty((rows.size, coarse.shape[1], fine.shape[1]), dtype=complex)
        for b in range(coarse.shape[1]):
            U[:, b, :] = (A * coarse[:, b]) @ fine
        U = U.reshape(rows.size, -1)[:, :tau.size]
    return (w[rows, None] * (np.abs(U) ** 2)).sum(axis=0).astype(complex)


def _series_amplitudes_spectral(prop, W, psi0, tau):
    if W.is_diagonal:
        return _diagonal_weights(prop, np.diagonal(W.entries), psi0, tau)
    Vh = prop.eigenvectors.conj().T
    phi = _phase_table(prop.eigenvalues, tau) * (Vh @ psi0)[:, None]
    Wt = Vh @ W.entries @ prop.eigenvectors
    return np.einsum("kt,kt->t", np.conj(phi), Wt @ phi)


def _series_amplitudes_stepping(prop, W, psi0, tau):
    """Ket and bra stepped from t = 0 by matrix exponentials. One pair of
    step factors serves every step within _GRID_RTOL*max|tau| of the step it
    was made for, so a uniform grid from 0 takes one pair; a changed step
    makes a new pair. A diagonal W acts as its diagonal."""
    H = prop.hamiltonian
    w = np.diagonal(W.entries) if W.is_diagonal else None
    f = psi0.astype(complex)
    g = psi0.astype(complex)
    tol = _GRID_RTOL * np.abs(tau).max(initial=0.0)
    out = np.empty(tau.shape, dtype=complex)
    h = None
    prev = 0.0
    for k, t in enumerate(tau):
        step = t - prev
        if step != 0.0:
            if h is None or abs(step - h) > tol:
                h = step
                U = scipy.linalg.expm(-1j * H * h)
                Ub = scipy.linalg.expm(-1j * H.conj().T * h)
            f = U @ f
            g = Ub @ g
        out[k] = np.vdot(g, W.entries @ f if w is None else w * f)
        prev = t
    return out


def otoc_series(prop: Propagator, W: OperatorMatrix, psi0: StateVector,
                grid: TimeGrid | None = None,
                times: np.ndarray | None = None) -> OtocSeries:
    """O(t) on the whole grid, reusing a single decomposition. An explicit
    times array, uniform or not, overrides the uniform grid.

    On a uniform grid of n_t >= 4 samples the spectral form evaluates
    2*ceil(sqrt(n_t)) exponentials per eigenvalue (_phase_blocks), 90 for
    the default 2001 samples, instead of n_t; other grids take n_t per
    eigenvalue. Stepping takes one pair of matrix exponentials per distinct
    step."""
    if times is None:
        if grid is None:
            grid = TimeGrid()
        times = grid.times()
    else:
        times = np.asarray(times, dtype=float)
    tau = times / prop.energy_unit
    if prop.kind == "scaled_expm":
        s = _series_amplitudes_stepping(prop, W, psi0.amplitudes, tau)
    else:
        s = _series_amplitudes_spectral(prop, W, psi0.amplitudes, tau)
    values = np.abs(s) ** 2
    return OtocSeries(times=times, values=values, amplitudes=s,
                      metadata={"propagator": prop.kind,
                                "energy_unit": prop.energy_unit})


def otoc_trace_oracle(H: HamiltonianMatrix, W: np.ndarray, rho0: np.ndarray,
                      t: float) -> float:
    """Independent small-system reference: O = tr[rho W(t)^dag rho W(t)] with
    W(t) assembled from full matrix exponentials. Limited to dim <= 64."""
    if H.dim > _ORACLE_MAX_DIM:
        raise ValueError(f"trace oracle limited to dim <= {_ORACLE_MAX_DIM}")
    tau = t / H.energy_unit
    Hm = np.asarray(H.entries)
    U = scipy.linalg.expm(-1j * Hm * tau)
    Uback = scipy.linalg.expm(1j * Hm * tau)
    Wt = Uback @ np.asarray(W) @ U
    rho = np.asarray(rho0)
    val = complex(np.trace(rho @ Wt.conj().T @ rho @ Wt))
    if abs(val.imag) > 1e-10 * max(1.0, abs(val)):
        raise FloatingPointError(f"trace oracle returned imaginary residual {val.imag:.3e}")
    return float(val.real)


def long_time_limit(series: OtocSeries, tail_fraction: float = 0.5) -> TailStats:
    """Mean and spread of the series over its trailing fraction."""
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must lie in (0, 1]")
    n = series.values.size
    start = n - max(1, int(round(n * tail_fraction)))
    tail = series.values[start:]
    return TailStats(mean=float(tail.mean()), std=float(tail.std()))


def time_average(series: OtocSeries) -> float:
    return float(series.values.mean())
