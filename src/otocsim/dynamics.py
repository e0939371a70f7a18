"""Time evolution and OTOC series evaluation.

The correlator tracked everywhere is O(t) = |s(t)|^2 with
s(t) = <psi0| e^{+iHt} W e^{-iHt} |psi0>, evaluated on a uniform time grid.
Times are dimensionless multiples of 1/energy_unit of the Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .lattice import HamiltonianMatrix
from .operators import OperatorMatrix, StateVector

CONDITION_FALLBACK = 1e8
_ORACLE_MAX_DIM = 64


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

    kind is "hermitian_spectral" for Hermitian input, "general_spectral" for
    diagonalizable non-Hermitian input, and "scaled_expm" when the eigenbasis
    is too ill-conditioned to trust (condition number above 1e8); the last
    form keeps the Hamiltonian and evolves by matrix exponentials.
    """

    kind: str
    dim: int
    energy_unit: float
    eigenvalues: np.ndarray | None = None
    eigenvectors: np.ndarray | None = None
    inverse_eigenvectors: np.ndarray | None = None
    condition_estimate: float = 1.0
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
    """Diagonalize H, falling back to exponential stepping when the
    eigenvector matrix is numerically unusable."""
    if H.hermitian:
        try:
            lam, V = np.linalg.eigh(H.entries)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"hermitian eigensolver failed: {exc}") from exc
        return Propagator(kind="hermitian_spectral", dim=H.dim,
                          energy_unit=H.energy_unit, eigenvalues=lam,
                          eigenvectors=V, inverse_eigenvectors=V.conj().T,
                          condition_estimate=1.0)
    try:
        lam, V = np.linalg.eig(H.entries)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"general eigensolver failed: {exc}") from exc
    cond = float(np.linalg.cond(V))
    if not np.isfinite(cond) or cond > CONDITION_FALLBACK:
        return Propagator(kind="scaled_expm", dim=H.dim,
                          energy_unit=H.energy_unit, eigenvalues=lam,
                          condition_estimate=cond,
                          hamiltonian=np.asarray(H.entries))
    return Propagator(kind="general_spectral", dim=H.dim,
                      energy_unit=H.energy_unit, eigenvalues=lam,
                      eigenvectors=V, inverse_eigenvectors=np.linalg.inv(V),
                      condition_estimate=cond,
                      hamiltonian=np.asarray(H.entries))


def _phases(prop: Propagator, tau) -> np.ndarray:
    return np.exp(-1j * np.multiply.outer(prop.eigenvalues, tau))


def evolve(prop: Propagator, state: StateVector, t: float) -> StateVector:
    """Apply e^{-iHt} (t in units of 1/energy_unit; negative t runs the exact
    inverse). No renormalization is applied."""
    tau = t / prop.energy_unit
    psi = state.amplitudes
    if prop.kind == "scaled_expm":
        out = scipy.linalg.expm(-1j * prop.hamiltonian * tau) @ psi
    else:
        c = prop.inverse_eigenvectors @ psi
        out = prop.eigenvectors @ (np.exp(-1j * prop.eigenvalues * tau) * c)
    return StateVector(dim=state.dim, amplitudes=out, normalized=False)


def _evolve_bra(prop: Propagator, psi: np.ndarray, tau: float) -> np.ndarray:
    """e^{-i H^dag tau} psi; equals forward evolution for Hermitian H."""
    if prop.kind == "hermitian_spectral":
        c = prop.inverse_eigenvectors @ psi
        return prop.eigenvectors @ (np.exp(-1j * prop.eigenvalues * tau) * c)
    if prop.kind == "general_spectral":
        c = prop.eigenvectors.conj().T @ psi
        return prop.inverse_eigenvectors.conj().T @ (np.exp(-1j * np.conj(prop.eigenvalues) * tau) * c)
    return scipy.linalg.expm(-1j * prop.hamiltonian.conj().T * tau) @ psi


def otoc_amplitude(prop: Propagator, W: OperatorMatrix, psi0: StateVector,
                   t: float) -> complex:
    """s(t) in three matrix-vector stages: evolve the ket, apply W, close with
    the (adjoint-evolved) bra."""
    tau = t / prop.energy_unit
    if prop.kind == "scaled_expm":
        f = scipy.linalg.expm(-1j * prop.hamiltonian * tau) @ psi0.amplitudes
    else:
        c = prop.inverse_eigenvectors @ psi0.amplitudes
        f = prop.eigenvectors @ (np.exp(-1j * prop.eigenvalues * tau) * c)
    g = _evolve_bra(prop, psi0.amplitudes, tau)
    return complex(np.vdot(g, W.entries @ f))


def _series_amplitudes_spectral(prop, W, psi0, tau):
    lam = prop.eigenvalues
    if prop.kind == "hermitian_spectral":
        c = prop.inverse_eigenvectors @ psi0
        phi = _phases(prop, tau) * c[:, None]
        if W.is_diagonal:
            w = np.real(np.diagonal(W.entries))
            rows = np.nonzero(w)[0]
            U = prop.eigenvectors[rows, :] @ phi
            return (w[rows, None] * (np.abs(U) ** 2)).sum(axis=0).astype(complex)
        Wt = prop.inverse_eigenvectors @ W.entries @ prop.eigenvectors
        return np.einsum("kt,kt->t", np.conj(phi), Wt @ phi)
    c = prop.inverse_eigenvectors @ psi0
    d = prop.eigenvectors.conj().T @ psi0
    M = prop.inverse_eigenvectors @ W.entries @ prop.eigenvectors
    A = M @ (_phases(prop, tau) * c[:, None])
    B = np.exp(-1j * np.multiply.outer(np.conj(lam), tau)) * d[:, None]
    return np.einsum("kt,kt->t", np.conj(B), A)


def _series_amplitudes_stepping(prop, W, psi0, tau):
    steps = np.diff(tau)
    if steps.size and not np.allclose(steps, steps[0], rtol=1e-12, atol=1e-15):
        raise ValueError("exponential stepping needs a uniform time grid")
    H = prop.hamiltonian
    f = psi0.astype(complex)
    g = psi0.astype(complex)
    if tau[0] != 0.0:
        f = scipy.linalg.expm(-1j * H * tau[0]) @ f
        g = scipy.linalg.expm(-1j * H.conj().T * tau[0]) @ g
    out = np.empty(tau.shape, dtype=complex)
    if steps.size:
        U = scipy.linalg.expm(-1j * H * steps[0])
        Ub = scipy.linalg.expm(-1j * H.conj().T * steps[0])
    Wm = W.entries
    for k in range(tau.size):
        out[k] = np.vdot(g, Wm @ f)
        if k + 1 < tau.size:
            f = U @ f
            g = Ub @ g
    return out


def otoc_series(prop: Propagator, W: OperatorMatrix, psi0: StateVector,
                grid: TimeGrid | None = None,
                times: np.ndarray | None = None) -> OtocSeries:
    """O(t) on the whole grid, reusing a single decomposition. An explicit
    times array overrides the uniform grid (exponential stepping still needs
    uniform spacing)."""
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
