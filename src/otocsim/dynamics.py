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
# The Chebyshev series replaces eigh when _CHEBYSHEV_COST * M * n_t * R is
# below the price of eigh: dim^3 for dense eigh, _TRIDIAGONAL_COST * dim^2
# for the tridiagonal solver (M terms, n_t samples, R support rows of a
# diagonal W). Timed with one BLAS thread on ssh2d patches with a one-row
# probe and 501 samples (M = 452), decomposition plus series cost about
# 85 ns per term and sample by the series and 0.28 ns per dim^3 by dense
# eigh at dim 400, where the two break even (C = 310). The break-even C is
# 90-210 at dim 144-256 and 560-1350 at dim 576-1600, so 300 picks the
# faster path at each size. On clean ssh chains with a site probe the
# tridiagonal solver plus its series takes 11, 74, 216 and 369 ms at dim
# 400, 1000, 1600 and 2000 (70-90 ns, or 250-330 of the dense units, per
# dim^2), against 77, 129, 176 and 192 ms for the series with 2001 samples
# (M = 847): the break-even lies between dim 1000 and 1600, and 300 per
# dim^2 puts it at dim 1300. A corner_scan point weighs 6.8e7 against
# dim^3 = 4.1e9, a disorder_sweep member (dim 400, 2001 samples, M = 1674)
# 1.0e9 against 300 * dim^2 = 4.8e7.
_CHEBYSHEV_COST = 300
_TRIDIAGONAL_COST = 300
_CHEBYSHEV_TOL = 1e-15      # bound on the dropped tail of each amplitude
_BESSEL_RESCALE = 1e250


class EigensolverError(RuntimeError):
    """Hermitian eigensolver failed to converge."""


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
    eigenpairs and names the solver that made them in eigensolver:
    "tridiagonal" for a real tridiagonal H, "dense" otherwise. "scaled_expm"
    is for non-Hermitian input; it keeps the dense Hamiltonian and evolves by
    matrix exponentials: the eigenbasis of a non-Hermitian chain is too ill
    conditioned to trust. "chebyshev" keeps H/scale as a sparse CSR matrix,
    with scale a Gershgorin bound of the spectrum, and evolves by the
    Chebyshev series of e^{-iHt}.
    """

    kind: str
    dim: int
    energy_unit: float
    eigenvalues: np.ndarray | None = None
    eigenvectors: np.ndarray | None = None
    hamiltonian: object = None
    scale: float | None = None
    eigensolver: str | None = None


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


def spectral_decompose(H: HamiltonianMatrix, W: OperatorMatrix | None = None,
                       times: np.ndarray | None = None) -> Propagator:
    """Diagonalize a Hermitian H; keep a non-Hermitian H for exponential
    stepping. A real H with no entries off its three central diagonals (the
    ssh chain without third-neighbor hops, extended_chain) goes to the
    tridiagonal divide-and-conquer solver (LAPACK ?stevd), any other
    Hermitian H to dense eigh. On a tridiagonal H dense eigh runs the same
    divide and conquer after a reduction that leaves H as it is (the
    eigenpairs agree bit for bit with OpenBLAS 0.3.31); ?stevd skips that
    O(dim^3) reduction and is 3x faster at dim 400, 15x at dim 2000. MRRR
    (?stemr) is slower here: 19 ms against 6 ms at dim 400.

    Given the probe W and the times it is sampled at, a Hermitian H with a
    diagonal W takes the Chebyshev series instead where the cost rule at
    _CHEBYSHEV_COST favours it."""
    if not H.hermitian:
        if not np.isfinite(H.values).all():
            raise FloatingPointError("Hamiltonian entries are not finite")
        return Propagator(kind="scaled_expm", dim=H.dim,
                          energy_unit=H.energy_unit, hamiltonian=H.entries)
    band = _tridiagonal_band(H)
    if W is not None and times is not None:
        prop = _chebyshev_propagator(H, W, np.asarray(times, dtype=float),
                                     band is not None)
        if prop is not None:
            return prop
    if band is not None and not all(np.isfinite(b).all() for b in band):
        raise FloatingPointError("Hamiltonian entries are not finite")
    try:
        if band is None:
            lam, V = np.linalg.eigh(H.entries)
        else:
            lam, V = scipy.linalg.eigh_tridiagonal(*band, check_finite=False,
                                                   lapack_driver="stevd")
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"hermitian eigensolver failed: {exc}") from exc
    return Propagator(kind="hermitian_spectral", dim=H.dim,
                      energy_unit=H.energy_unit, eigenvalues=lam,
                      eigenvectors=V,
                      eigensolver="dense" if band is None else "tridiagonal")


def _tridiagonal_band(H: HamiltonianMatrix):
    """The diagonal and first subdiagonal of a real H that has no nonzero
    entry outside them, else None. Non-finite entries count as nonzero."""
    if (np.iscomplexobj(H.values)
            or np.abs(H.rows - H.cols).max(initial=0) > 1):
        return None
    d = np.zeros(H.dim, dtype=H.values.dtype)
    e = np.zeros(H.dim - 1, dtype=H.values.dtype)
    on, below = H.rows == H.cols, H.rows == H.cols + 1
    d[H.rows[on]] = H.values[on]
    e[H.cols[below]] = H.values[below]
    return d, e


def _abs_row_sums(dim: int, rows, cols, values) -> np.ndarray:
    """np.abs(A).sum(axis=1) of the dim x dim matrix A with the given
    row-major entries, bit for bit, without forming A. numpy adds a row
    pairwise: a run of more than 128 entries splits after half its length
    rounded down to a multiple of 8; a shorter run adds its leading multiple
    of 8 into 8 interleaved partial sums r_k, combines them as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and adds the rest one
    by one (a run of fewer than 8 entries only has the rest). A zero changes
    no partial sum, so only the given entries and the runs holding them are
    visited, and an empty run adds 0.0."""
    def run(lo, n, r, c, a):
        if r.size == 0:
            return 0.0
        if n > 128:
            half = n // 2 - (n // 2) % 8
            left = c < lo + half
            return (run(lo, half, r[left], c[left], a[left])
                    + run(lo + half, n - half, r[~left], c[~left], a[~left]))
        body = n - n % 8 if n >= 8 else 0
        at = c - lo
        ids, row = np.unique(r, return_inverse=True)
        split = at < body
        acc = np.zeros((8, ids.size))
        np.add.at(acc, (at[split] % 8, row[split]), a[split])
        total = (((acc[0] + acc[1]) + (acc[2] + acc[3]))
                 + ((acc[4] + acc[5]) + (acc[6] + acc[7])))
        rest = np.zeros((8, ids.size))
        rest[at[~split] - body, row[~split]] = a[~split]
        for k in range(n - body):
            total += rest[k]
        out = np.zeros(dim)
        out[ids] = total
        return out

    return np.zeros(dim) + run(0, dim, rows, cols, np.abs(values))


def _chebyshev_propagator(H: HamiltonianMatrix, W: OperatorMatrix,
                          times: np.ndarray, tridiagonal: bool):
    """The Chebyshev propagator of a Hermitian H for the probe W, or None
    where eigh is cheaper, W is not diagonal or H is not finite (the eigh
    branch reports that). eigh is priced at dim^3, or _TRIDIAGONAL_COST *
    dim^2 for a tridiagonal H. The cheap tests come first, because most
    points that stay on eigh fail them: the largest |H_ij| bounds the
    Gershgorin scale from below, and so M, before the rows are summed. The
    row sums, and so the scale, are those of the dense matrix bit for bit
    (_abs_row_sums), and the CSR matrix holds the triplets of H."""
    if W.weights is None:
        return None
    work = _CHEBYSHEV_COST * times.size * np.count_nonzero(W.weights)
    eigh_cost = _TRIDIAGONAL_COST * H.dim ** 2 if tridiagonal else H.dim ** 3
    tau_max = np.abs(times).max(initial=0.0) / H.energy_unit
    x_low = float(np.abs(H.values).max(initial=0.0)) * tau_max
    if not np.isfinite(x_low) or work * _chebyshev_terms(x_low) >= eigh_cost:
        return None
    scale = float(_abs_row_sums(H.dim, H.rows, H.cols, H.values).max()) or 1.0
    x_max = scale * tau_max
    if not np.isfinite(x_max) or work * _chebyshev_terms(x_max) >= eigh_cost:
        return None
    import scipy.sparse  # only here: it stays out of the CLI's import time
    S = scipy.sparse.csr_array(
        (H.values / scale, H.cols, np.searchsorted(H.rows, np.arange(H.dim + 1))),
        shape=(H.dim, H.dim))
    return Propagator(kind="chebyshev", dim=H.dim, energy_unit=H.energy_unit,
                      hamiltonian=S, scale=scale)


def _chebyshev_terms(x: float) -> int:
    """The least M for which 2 b_M / (1 - q) < _CHEBYSHEV_TOL, where
    b_n = (x/2)^n / n! bounds |J_n(x)| and q = (x/2) / (M + 1) bounds the
    ratio of successive b_n from M on. Since |<r| T_n(H/a) |psi0>| <= 1 for a
    unit psi0, dropping the orders from M on moves no amplitude by more than
    the tolerance. The search starts at n = e x/2, below which
    n! <= e sqrt(n) (n/e)^n keeps b_n above 1/(e sqrt(n)), far above the
    tolerance."""
    half = x / 2
    if half == 0:
        return 1
    n = max(1, int(math.e * half))
    log_tol = math.log(_CHEBYSHEV_TOL / 2)
    while (n * math.log(half) - math.lgamma(n + 1) - math.log1p(-half / (n + 1))
           >= log_tol):
        n += 1
    return n


def _bessel_table(M: int, x: np.ndarray) -> np.ndarray:
    """J_n(x) for n < M and x >= 0, as an M x n_x table, by Miller's backward
    recurrence J_{n-1} = (2n/x) J_n - J_{n+1}, started at order
    max(M, _chebyshev_terms(max x)) and normalized by J_0 + 2 sum_k J_2k = 1.
    A column passing _BESSEL_RESCALE is scaled down together with its stored
    orders. At x <= 1e-20 the table holds J_0 = 1 and zeros (off by < x/2)."""
    J = np.zeros((M, x.size))
    J[0] = 1.0
    live = x > 1e-20
    xs = x[live]
    if xs.size == 0:
        return J
    out = np.zeros((M, xs.size))
    nxt, cur, norm = np.zeros(xs.size), np.ones(xs.size), np.zeros(xs.size)
    for n in range(max(M, _chebyshev_terms(xs.max())), 0, -1):
        if n < M:
            out[n] = cur
        if n % 2 == 0:
            norm += 2 * cur
        nxt, cur = cur, (2 * n / xs) * cur - nxt
        big = np.abs(cur) > _BESSEL_RESCALE
        if big.any():
            for v in (cur, nxt, norm):
                v[big] /= _BESSEL_RESCALE
            out[n:, big] /= _BESSEL_RESCALE
    out[0] = cur
    J[:, live] = out / (norm + cur)
    return J


def _chebyshev_amplitudes(prop: Propagator, psi: np.ndarray, rows, tau):
    """<r| e^{-iH tau} |psi> for the given rows as an n_t x R array, and the
    term count M: sum_{n<M} (2 - delta_n0) (-i)^n J_n(a tau) <r| T_n(H/a) |psi>,
    with the moments from the three-term recurrence on the sparse H/a and
    J_n(-x) = (-1)^n J_n(x) for negative tau."""
    x = prop.scale * tau
    M = _chebyshev_terms(np.abs(x).max(initial=0.0))
    S = prop.hamiltonian
    prev = psi.astype(complex)
    moments = np.empty((M,) + prev[rows].shape, dtype=complex)
    moments[0] = prev[rows]
    cur = S @ prev
    for n in range(1, M):
        moments[n] = cur[rows]
        prev, cur = cur, 2 * (S @ cur) - prev
    J = _bessel_table(M, np.abs(x))
    J[1::2, x < 0] *= -1
    n = np.arange(M)
    coef = np.where(n == 0, 1, 2) * np.array([1, -1j, -1, 1j])[n % 4]
    return J.T @ (coef[:, None] * moments), M


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
    if prop.kind == "chebyshev":
        amplitudes, _ = _chebyshev_amplitudes(prop, psi, slice(None), np.array([tau]))
        return amplitudes[0]
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
    return complex(np.vdot(g, W.apply(f)))


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


def _series_amplitudes_chebyshev(prop, W, psi0, tau):
    """sum_r w_r |<r| e^{-iHt} |psi0>|^2 over the support rows of a diagonal
    W, and the Chebyshev term count."""
    w = W.weights
    if w is None:
        raise ValueError("the chebyshev propagator needs a diagonal probe")
    rows = np.nonzero(w)[0]
    A, M = _chebyshev_amplitudes(prop, psi0, rows, tau)
    return (np.abs(A) ** 2 @ w[rows]).astype(complex), M


def _series_amplitudes_spectral(prop, W, psi0, tau):
    if W.weights is not None:
        return _diagonal_weights(prop, W.weights, psi0, tau)
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
        out[k] = np.vdot(g, W.apply(f))
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
    step. The Chebyshev series takes M sparse products for the moments, an
    M x n_t Bessel table and an n_t x M by M x R product, with M about
    e * a * max|t| / 2 + 30; on the corner_scan patch (M = 452, 501
    samples) the sparse products take about 13 ms and the table 11 ms."""
    if times is None:
        if grid is None:
            grid = TimeGrid()
        times = grid.times()
    else:
        times = np.asarray(times, dtype=float)
    tau = times / prop.energy_unit
    metadata = {"propagator": prop.kind, "energy_unit": prop.energy_unit}
    if prop.kind == "scaled_expm":
        s = _series_amplitudes_stepping(prop, W, psi0.amplitudes, tau)
    elif prop.kind == "chebyshev":
        s, metadata["chebyshev_terms"] = _series_amplitudes_chebyshev(
            prop, W, psi0.amplitudes, tau)
        metadata["chebyshev_scale"] = prop.scale
    else:
        s = _series_amplitudes_spectral(prop, W, psi0.amplitudes, tau)
        metadata["eigensolver"] = prop.eigensolver
    values = np.abs(s) ** 2
    return OtocSeries(times=times, values=values, amplitudes=s,
                      metadata=metadata)


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
