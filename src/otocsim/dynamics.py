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
TAIL_FRACTION = 0.5          # the trailing share of a series long_time_limit averages
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
_SUBNORMAL_FLOOR = math.sqrt(np.finfo(float).tiny)   # about 1.5e-154


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

    Every kind answers one question, _amplitudes: the ket and bra amplitudes
    of a state evolved to each sample time, on the rows asked for. kind is
    "hermitian_spectral" for Hermitian input, which keeps the eigenpairs and
    names the solver that made them in eigensolver: "tridiagonal" for a real
    tridiagonal H, "dense" otherwise. "scaled_expm" is for non-Hermitian
    input; it keeps the dense Hamiltonian and evolves by matrix exponentials:
    the eigenbasis of a non-Hermitian chain is too ill conditioned to trust;
    a uniform grid is stepped in giant and baby steps where few rows are
    asked for (_stepping_amplitudes). "chebyshev" keeps H/scale as a sparse
    CSR matrix, scale a Gershgorin bound of the spectrum with a rounding
    margin, and evolves by the Chebyshev series of e^{-iHt}.
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
    _CHEBYSHEV_COST favours it. H is finite, as its build checks."""
    if not H.hermitian:
        return Propagator(kind="scaled_expm", dim=H.dim,
                          energy_unit=H.energy_unit, hamiltonian=H.entries)
    band = _tridiagonal_band(H)
    if W is not None and times is not None:
        prop = _chebyshev_propagator(H, W, np.asarray(times, dtype=float),
                                     band is not None)
        if prop is not None:
            return prop
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
    entry outside them, else None."""
    if (np.iscomplexobj(H.values)
            or np.abs(H.rows - H.cols).max(initial=0) > 1):
        return None
    d = np.zeros(H.dim, dtype=H.values.dtype)
    e = np.zeros(H.dim - 1, dtype=H.values.dtype)
    on, below = H.rows == H.cols, H.rows == H.cols + 1
    d[H.rows[on]] = H.values[on]
    e[H.cols[below]] = H.values[below]
    return d, e


def _chebyshev_propagator(H: HamiltonianMatrix, W: OperatorMatrix,
                          times: np.ndarray, tridiagonal: bool):
    """The Chebyshev propagator of a Hermitian H for the probe W, or None
    where eigh is cheaper, W is not diagonal or the scale overflows. eigh is
    priced at dim^3, or _TRIDIAGONAL_COST * dim^2 for a tridiagonal H. As
    M > x = a max|t|, work * x at that price rules the series out before the
    search for M, which would not end for a huge x (or an infinite one).

    The scale bounds the spectrum by Gershgorin: the largest sum of |H_ij|
    over a row, raised by the factor 1 + (k + 1) eps for the rounding, with
    k the most entries stored in one row and eps the spacing of floats at 1.
    Each |H_ij| is within a relative eps of its true value (exact if real),
    and each of the at most k - 1 additions of nonnegative terms loses at
    most a relative eps/2 whatever their order. So a computed row sum is at
    least the true one times 1 - (k + 1) eps/2, and the factor, itself
    exact, more than makes up for that and for the rounding of the product.
    The CSR matrix holds the triplets of H."""
    if W.weights is None:
        return None
    sums = np.bincount(H.rows, weights=np.abs(H.values), minlength=H.dim)
    k = np.bincount(H.rows, minlength=H.dim).max()
    scale = float(sums.max() * (1 + (k + 1) * np.finfo(float).eps)) or 1.0
    x_max = scale * (np.abs(times).max(initial=0.0) / H.energy_unit)
    work = _CHEBYSHEV_COST * times.size * np.count_nonzero(W.weights)
    eigh_cost = _TRIDIAGONAL_COST * H.dim ** 2 if tridiagonal else H.dim ** 3
    if not work * x_max < eigh_cost or work * _chebyshev_terms(x_max) >= eigh_cost:
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
    """<r| e^{-iH tau} |psi> for the given rows as an R x n_t array, and the
    term count M: sum_{n<M} (2 - delta_n0) (-i)^n J_n(a tau) <r| T_n(H/a) |psi>,
    with the moments from the three-term recurrence on the sparse H/a and
    J_n(-x) = (-1)^n J_n(x) for negative tau."""
    x = prop.scale * tau
    M = _chebyshev_terms(np.abs(x).max(initial=0.0))
    S = prop.hamiltonian
    prev = psi.astype(complex)
    moments = np.empty((M, rows.size), dtype=complex)
    moments[0] = prev[rows]
    cur = S @ prev
    for n in range(1, M):
        moments[n] = cur[rows]
        prev, cur = cur, 2 * (S @ cur) - prev
    J = _bessel_table(M, np.abs(x))
    J[1::2, x < 0] *= -1
    n = np.arange(M)
    coef = np.where(n == 0, 1, 2) * np.array([1, -1j, -1, 1j])[n % 4]
    return (J.T @ (coef[:, None] * moments)).T, M


def _grid_block(tau: np.ndarray) -> int | None:
    """B = ceil(sqrt(n_t)) on a uniform grid of n_t >= 4 samples, None on any
    other grid: sample b*B + m is reached by b giant steps of B samples and m
    baby steps of one. Uniform means that tau deviates from the line through
    its end points by at most _GRID_RTOL times the largest |tau| (the
    rounding of k*dt grows with k)."""
    if tau.size < 4:
        return None
    h = (tau[-1] - tau[0]) / (tau.size - 1)
    if (np.abs(tau - (tau[0] + h * np.arange(tau.size))).max()
            > _GRID_RTOL * np.abs(tau).max()):
        return None
    return math.isqrt(tau.size - 1) + 1


def _phase_blocks(lam: np.ndarray, tau: np.ndarray):
    """Factors of exp(-i lam tau) on a grid that _grid_block splits into
    blocks of B, or None on any other grid: coarse[:, b] = exp(-i lam
    tau[b*B]) and fine[:, m] = exp(-i lam (tau[m] - tau[0])), so
    exp(-i lam tau[b*B + m]) = coarse[:, b] * fine[:, m]: 2*n*B exponentials
    instead of n*n_t."""
    B = _grid_block(tau)
    if B is None:
        return None
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


def _amplitudes(prop: Propagator, psi: np.ndarray, rows: np.ndarray, tau):
    """The ket amplitudes <r| e^{-iH tau} |psi> and the bra amplitudes
    <r| e^{-iH^dag tau} |psi> on the given rows as R x n_t arrays, and the
    metadata of the propagator kind. A Hermitian kind returns one array
    object for both."""
    if prop.kind == "scaled_expm":
        f, g, block, formed = _stepping_amplitudes(prop.hamiltonian, psi, rows, tau)
        return f, g, {"step_block": block, "step_matrices": formed}
    if prop.kind == "chebyshev":
        f, M = _chebyshev_amplitudes(prop, psi, rows, tau)
        return f, f, {"chebyshev_terms": M, "chebyshev_scale": prop.scale}
    f = _spectral_rows(prop, psi, rows, tau)
    return f, f, {"eigensolver": prop.eigensolver}


def evolve(prop: Propagator, state: StateVector, t: float) -> StateVector:
    """Apply e^{-iHt} (t in units of 1/energy_unit; negative t runs the exact
    inverse). No renormalization is applied."""
    f, _, _ = _amplitudes(prop, state.amplitudes, np.arange(prop.dim),
                          np.array([t / prop.energy_unit]))
    return StateVector(dim=state.dim, amplitudes=f[:, 0], normalized=False)


def otoc_amplitude(prop: Propagator, W: OperatorMatrix, psi0: StateVector,
                   t: float) -> complex:
    """s(t) in three matrix-vector stages: evolve the ket, apply W, close with
    the (adjoint-evolved) bra."""
    f, g, _ = _amplitudes(prop, psi0.amplitudes, np.arange(prop.dim),
                          np.array([t / prop.energy_unit]))
    return complex(np.vdot(g[:, 0], W.apply(f[:, 0])))


def _spectral_rows(prop, psi0, rows, tau):
    """<r| e^{-iH tau} |psi0> on the given rows of a Hermitian H as an
    R x n_t array. At most B rows are evolved block by block and never form
    the n x n_t phase table; more rows take one matrix product with the
    table, which is faster there than the block loop."""
    A = prop.eigenvectors[rows, :] * (prop.eigenvectors.conj().T @ psi0)
    blocks = _phase_blocks(prop.eigenvalues, tau)
    if blocks is None or rows.size > blocks[1].shape[1]:
        return A @ _phase_table(prop.eigenvalues, tau)
    coarse, fine = blocks
    U = np.empty((rows.size, coarse.shape[1], fine.shape[1]), dtype=complex)
    for b in range(coarse.shape[1]):
        U[:, b, :] = (A * coarse[:, b]) @ fine
    return U.reshape(rows.size, -1)[:, :tau.size]


def _flush(M: np.ndarray) -> np.ndarray:
    """M with every real and imaginary part below _SUBNORMAL_FLOOR in
    magnitude set to zero, in place. The product of two kept parts is then
    never subnormal. The step factors of a non-Hermitian chain hold parts
    down to 1e-323, and subnormal arithmetic made one product of two
    400 x 400 factors take 52 ms against 6 ms once flushed."""
    for part in (M.real, M.imag):
        part[np.abs(part) < _SUBNORMAL_FLOOR] = 0.0
    return M


def _power(U: np.ndarray, B: int) -> np.ndarray:
    """U^B by repeated squaring, each product flushed."""
    out, P = None, U
    while True:
        if B & 1:
            out = P if out is None else _flush(out @ P)
        B >>= 1
        if not B:
            return out
        P = _flush(P @ P)


def _stepped_rows(U, UB, start, rows, B, n_t):
    """<r| U^k |start> for the given rows and k < n_t as an R x n_t array,
    with UB = U^B: the giant steps UB^b |start> for b < ceil(n_t / B), then
    one product with the baby-step rows <r| U^m for m < B."""
    n, R, nb = start.size, rows.size, -(-n_t // B)
    coarse = np.empty((nb, n), dtype=complex)
    coarse[0] = start
    for b in range(1, nb):
        coarse[b] = UB @ coarse[b - 1]
    fine = np.zeros((B, R, n), dtype=complex)
    fine[0, np.arange(R), rows] = 1.0
    for m in range(1, B):
        fine[m] = fine[m - 1] @ U
    out = (fine.reshape(B * R, n) @ coarse.T).reshape(B, R, nb)
    return out.transpose(1, 2, 0).reshape(R, nb * B)[:, :n_t]


def _stepping_amplitudes(H, psi0, rows, tau):
    """Ket and bra amplitudes on the given rows stepped from t = 0 by matrix
    exponentials, the baby-step length and the count of matrix exponentials
    and powers formed.

    On a grid that _grid_block splits into blocks of B, at most B rows take
    giant and baby steps: U = e^{-iHh} for the step h = tau[1] - tau[0] (the
    one the loop makes its factors for), U^B, and for tau[0] != 0 one
    e^{-iH tau[0]} to reach the first sample, each with its bra factor from
    _step_factors. Kets and bras are stepped whole only at every B-th
    sample, and on the rows in between (_stepped_rows). Any other input
    takes _step_each_sample."""
    B = _grid_block(tau)
    if B is None or rows.size > B:
        return _step_each_sample(H, psi0, rows, tau)
    real = np.isrealobj(H)
    U, Ub = _step_factors(H, tau[1] - tau[0])
    UB = _power(U, B)
    UbB = UB.T if real else _power(Ub, B)
    ket, bra = ((psi0, psi0) if tau[0] == 0
                else (F @ psi0 for F in _step_factors(H, tau[0])))
    f = _stepped_rows(U, UB, ket, rows, B, tau.size)
    g = _stepped_rows(Ub, UbB, bra, rows, B, tau.size)
    formed = (1 if real else 2) * (2 if tau[0] == 0 else 3)
    return f, g, B, formed


def _step_factors(H, h):
    """The ket and bra step factors e^{-iHh} and e^{-iH^dag h}, flushed. A
    real H makes no bra factor of its own: e^{-iH^dag h} = (e^{-iHh})^T."""
    U = _flush(scipy.linalg.expm(-1j * H * h))
    if np.isrealobj(H):
        return U, U.T
    return U, _flush(scipy.linalg.expm(-1j * H.conj().T * h))


def _step_each_sample(H, psi0, rows, tau):
    """The stepped amplitudes sample by sample, as _stepping_amplitudes
    returns them (baby-step length 1). One pair of _step_factors serves
    every step within _GRID_RTOL*max|tau| of the step it was made for, so a
    uniform grid from 0 takes one pair; a changed step makes a new pair."""
    f = g = psi0.astype(complex)
    tol = _GRID_RTOL * np.abs(tau).max(initial=0.0)
    kets = np.empty((rows.size, tau.size), dtype=complex)
    bras = np.empty_like(kets)
    h, formed = None, 0
    for k, step in enumerate(np.diff(tau, prepend=0.0)):
        if step != 0.0:
            if h is None or abs(step - h) > tol:
                h = step
                U, Ub = _step_factors(H, h)
                formed += 1 if np.isrealobj(H) else 2
            f, g = U @ f, Ub @ g
        kets[:, k], bras[:, k] = f[rows], g[rows]
    return kets, bras, 1, formed


def otoc_series(prop: Propagator, W: OperatorMatrix, psi0: StateVector,
                grid: TimeGrid | None = None,
                times: np.ndarray | None = None) -> OtocSeries:
    """O(t) on the whole grid, reusing a single decomposition. An explicit
    times array, uniform or not, overrides the uniform grid.

    The propagator gives the ket and bra amplitudes f and g on the support
    rows of a diagonal W, or on every row of a dense one (_amplitudes), and
    they are contracted here: s = sum_r w_r |f_r|^2 for a Hermitian kind,
    sum_r w_r conj(g_r) f_r for stepping, and sum conj(g) (W f) over the
    rows for a dense W.

    On a uniform grid of n_t >= 4 samples the spectral form evaluates
    2*ceil(sqrt(n_t)) exponentials per eigenvalue (_phase_blocks), 90 for
    the default 2001 samples, instead of n_t; other grids take n_t per
    eigenvalue. Stepping at most B = ceil(sqrt(n_t)) rows on such a grid
    forms e^{-iHh} and its B-th power and makes about 4*B matrix-vector
    products; other inputs take one matrix exponential (two for a complex
    H) per distinct step and two products per sample. The metadata holds B
    (1 for the sample loop) under step_block and the count of exponentials
    and powers under step_matrices. The Chebyshev series takes M sparse
    products for the moments, an M x n_t Bessel table and an R x M by
    M x n_t product, with M about e * a * max|t| / 2 + 30; on the
    corner_scan patch (M = 452, 501 samples) the sparse products take about
    13 ms and the table 11 ms."""
    if times is None:
        if grid is None:
            grid = TimeGrid()
        times = grid.times()
    else:
        times = np.asarray(times, dtype=float)
    tau = times / prop.energy_unit
    w = W.weights
    rows = np.arange(prop.dim) if w is None else np.nonzero(w)[0]
    f, g, kind_metadata = _amplitudes(prop, psi0.amplitudes, rows, tau)
    if w is None:
        s = np.einsum("kt,kt->t", np.conj(g), W.entries @ f)
    elif g is f:
        s = (w[rows, None] * (np.abs(f) ** 2)).sum(axis=0).astype(complex)
    else:
        s = (w[rows, None] * np.conj(g) * f).sum(axis=0)
    metadata = {"propagator": prop.kind, "energy_unit": prop.energy_unit,
                **kind_metadata}
    return OtocSeries(times=times, values=np.abs(s) ** 2, amplitudes=s,
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


def long_time_limit(series: OtocSeries, tail_fraction: float = TAIL_FRACTION) -> TailStats:
    """Mean and spread of the series over its trailing fraction."""
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must lie in (0, 1]")
    n = series.values.size
    start = n - max(1, int(round(n * tail_fraction)))
    tail = series.values[start:]
    return TailStats(mean=float(tail.mean()), std=float(tail.std()))


def time_average(series: OtocSeries) -> float:
    return float(series.values.mean())
