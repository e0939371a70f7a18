"""Closed-form benchmark results for the dimerized chain.

Everything here refers to the odd extended chain with 2N+1 sites and
alternating bond pattern nu, 1, nu, 1, ..., nu (in units of epsilon): its
spectrum splits into one zero mode and N pairs +/-lambda_k, all known in
closed form, which makes it the reference model for validating the numerical
pipeline. A sites sit on even indices (cells m = 1..N+1), B sites on odd
indices (cells m = 1..N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import HamiltonianMatrix, LatticeLayout, _tile


@dataclass(frozen=True)
class AnalyticEigenSystem:
    """Spectral data of the extended chain: theta[k-1] = k*pi/(N+1),
    lambda_plus[k-1] = epsilon*sqrt(1 + nu^2 + 2 nu cos theta_k), plus the
    normalization constants A0 (zero mode) and A_pm[k-1] (band modes)."""

    N: int
    nu: float
    epsilon: float
    theta: np.ndarray
    lambda_plus: np.ndarray
    A0: float
    A_pm: np.ndarray

    @property
    def lambda0(self) -> float:
        return 0.0

    def all_eigenvalues(self) -> np.ndarray:
        """Full sorted spectrum of the (2N+1)-site chain."""
        return np.sort(np.concatenate([[0.0], self.lambda_plus, -self.lambda_plus]))


def analytic_eigenpairs(N: int, nu: float, epsilon: float = 1.0) -> AnalyticEigenSystem:
    if N < 1:
        raise ValueError("N must be at least 1")
    if nu <= 0:
        raise ValueError("closed forms require nu > 0")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    theta = np.arange(1, N + 1) * math.pi / (N + 1)
    lam = epsilon * np.sqrt(1.0 + nu * nu + 2.0 * nu * np.cos(theta))
    # summed term by term: the closed geometric ratio loses digits near nu = 1
    A0 = math.fsum(nu ** (2 * n) for n in range(N + 1))
    A_pm = (N + 1) * lam ** 2 / (epsilon ** 2 * nu ** 2)
    return AnalyticEigenSystem(N=N, nu=nu, epsilon=epsilon, theta=theta,
                               lambda_plus=lam, A0=A0, A_pm=A_pm)


def extended_chain_hamiltonian(N: int, nu: float, epsilon: float = 1.0) -> HamiltonianMatrix:
    """The (2N+1)-site chain whose top-left 2N x 2N block is the dimerized
    chain of N cells."""
    if N < 1:
        raise ValueError("N must be at least 1")
    dim = 2 * N + 1
    layout = LatticeLayout(kind="chain1d", cells_x=dim, cells_y=1,
                           sublattices=1, sublattice_names=("s",))
    bonds = epsilon * np.where(np.arange(dim - 1) % 2 == 0, nu, 1.0)
    triplets = _tile(layout, None, [((1, 0), bonds[:, None, None])])
    return HamiltonianMatrix(dim=dim, triplets=triplets, hermitian=True, layout=layout,
                             energy_unit=epsilon)


def zero_mode(system: AnalyticEigenSystem) -> np.ndarray:
    """Zero-energy eigenvector: (-nu)^(m-1)/sqrt(A0) on A site m, zero on B."""
    v = np.zeros(2 * system.N + 1)
    v[0::2] = (-system.nu) ** np.arange(system.N + 1) / math.sqrt(system.A0)
    return v


def _f_matrix(system: AnalyticEigenSystem) -> np.ndarray:
    """f[m-1, k-1] = sin((m-1) theta_k)/nu + sin(m theta_k), m = 1..N+1."""
    m = np.arange(1, system.N + 2)[:, None]
    th = system.theta[None, :]
    return np.sin((m - 1) * th) / system.nu + np.sin(m * th)


def band_mode(system: AnalyticEigenSystem, k: int, sign: int = 1) -> np.ndarray:
    """Eigenvector at energy sign*lambda_k (k = 1..N, sign = +/-1)."""
    if not 1 <= k <= system.N:
        raise ValueError(f"k must be in 1..{system.N}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    th = system.theta[k - 1]
    lam = sign * system.lambda_plus[k - 1]
    norm = math.sqrt(system.A_pm[k - 1])
    v = np.zeros(2 * system.N + 1)
    mA = np.arange(1, system.N + 2)
    v[0::2] = (np.sin((mA - 1) * th) / system.nu + np.sin(mA * th)) / norm
    mB = np.arange(1, system.N + 1)
    v[1::2] = lam / (system.epsilon * system.nu) * np.sin(mB * th) / norm
    return v


def _staggered_weights(system: AnalyticEigenSystem, M: int):
    """Zm and F_k for the M-cell staggered initial state on the A sublattice."""
    if not 1 <= M <= system.N + 1:
        raise ValueError(f"M must be in 1..{system.N + 1}")
    Zm = math.fsum(system.nu ** (m - 1) for m in range(1, M + 1))
    fmk = _f_matrix(system)
    signs = (-1.0) ** np.arange(M)
    Fk = (signs @ fmk[:M]) / math.sqrt(M)
    return Zm, Fk, fmk


def otoc_site_closed_form(system: AnalyticEigenSystem, times, L: int = 1,
                          M: int = 1) -> np.ndarray:
    """O(t) for the staggered M-cell initial state probed by the projector on
    the first L A sites. L = M = 1 is the single-site return probe."""
    if not 1 <= L <= system.N + 1:
        raise ValueError(f"L must be in 1..{system.N + 1}")
    times = np.asarray(times, dtype=float)
    Zm, Fk, fmk = _staggered_weights(system, M)
    ls = np.arange(1, L + 1)
    z_l = (-system.nu) ** (ls - 1) * Zm / (system.A0 * math.sqrt(M))
    C = np.cos(np.multiply.outer(system.lambda_plus, times) / system.epsilon)
    c_lt = z_l[:, None] + (fmk[:L] * (2.0 * Fk / system.A_pm)[None, :]) @ C
    s = (c_lt ** 2).sum(axis=0)
    return np.abs(s) ** 2


@dataclass
class ChiralDecomposition:
    """Pieces of the bulk-probe closed form: O(t) = |O1 + O2(t) - O3(t) + O4(t)|^2.
    O1 is the static zero-mode weight, O2 the oscillatory bulk double sum, O3
    and O4 the boundary corrections from the last cell. r12 is the ratio
    O1/O2 per sample (infinite where O2 crosses zero)."""

    O1: float
    O2: np.ndarray
    O3: np.ndarray
    O4: np.ndarray
    values: np.ndarray
    approx: np.ndarray
    r12: np.ndarray


def otoc_chiral_closed_form(system: AnalyticEigenSystem, times,
                            M: int = 1) -> ChiralDecomposition:
    """O(t) for the staggered M-cell initial state probed by the sublattice
    parity operator on cells 1..N-1 (diag +1 on A, -1 on B, last cell open)."""
    times = np.asarray(times, dtype=float)
    N = system.N
    Zm, Fk, fmk = _staggered_weights(system, M)
    lam = system.lambda_plus
    Ak = system.A_pm
    O1 = Zm ** 2 / (M * system.A0)
    lt = np.multiply.outer(lam, times) / system.epsilon
    O2 = (2.0 * Fk ** 2 / Ak) @ np.cos(2.0 * lt)
    C1 = np.cos(lt)
    S1 = np.sin(lt)
    cNA = ((-system.nu) ** (N - 1) * Zm / (system.A0 * math.sqrt(M))
           + (2.0 * Fk * fmk[N - 1] / Ak) @ C1)
    cN1A = ((-system.nu) ** N * Zm / (system.A0 * math.sqrt(M))
            + (2.0 * Fk * fmk[N] / Ak) @ C1)
    cNB = (2.0 * lam * Fk * np.sin(N * system.theta)
           / (system.epsilon * system.nu * Ak)) @ S1
    O3 = cNA ** 2 + cN1A ** 2
    O4 = cNB ** 2
    values = np.abs(O1 + O2 - O3 + O4) ** 2
    approx = np.abs(O1 + O2) ** 2
    with np.errstate(divide="ignore"):
        r12 = O1 / O2
    return ChiralDecomposition(O1=float(O1), O2=O2, O3=O3, O4=O4,
                               values=values, approx=approx, r12=r12)


def site_plateau(nu: float) -> float:
    """Long-time, large-N limit of the single-site probe for |nu| < 1."""
    if abs(nu) >= 1:
        raise ValueError("plateau formula holds for |nu| < 1")
    return (1.0 - nu * nu) ** 4


def chiral_plateau(nu: float) -> float:
    """Long-time, large-N limit of the sublattice-parity probe for |nu| < 1."""
    if abs(nu) >= 1:
        raise ValueError("plateau formula holds for |nu| < 1")
    return (1.0 - nu * nu) ** 2
