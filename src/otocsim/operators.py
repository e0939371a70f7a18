"""Probe operators and initial states for the OTOC pipeline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError
from .lattice import (SIGMA_2, SIGMA_3, HamiltonianMatrix, LatticeError,
                      LatticeLayout, TripletMatrix, _tile, chiral_matrix)

_NORM_TOL = 1e-12


class OperatorMatrix(TripletMatrix):
    """Probe operator, held as triplets like the Hamiltonian: built from its
    diagonal, weights, from triplets or from a dense entries. weights is the
    diagonal, or None when W has an entry off it. support holds the rows and
    columns that carry an entry, in order: a series needs its amplitudes on
    these rows only, and contract closes them. opnorm_bound is any upper
    bound on the spectral norm; it caps the admissible OTOC values."""

    def __init__(self, dim: int, *, opnorm_bound: float, entries=None,
                 triplets=None, weights=None):
        if weights is not None:
            if np.shape(weights) != (dim,):
                raise ValueError(f"weights must have length {dim}")
            rows = np.flatnonzero(weights)
            triplets = rows, rows, np.asarray(weights)[rows]
        super().__init__(dim, entries=entries, triplets=triplets)
        if opnorm_bound < 0:
            raise ValueError("opnorm_bound must be nonnegative")
        self.opnorm_bound = opnorm_bound
        self.support = np.union1d(self.rows, self.cols)
        self.weights = None
        if (self.rows == self.cols).all():
            self.weights = np.zeros(dim, dtype=self.values.dtype)
            self.weights[self.rows] = self.values

    def contract(self, g: np.ndarray, f: np.ndarray) -> np.ndarray:
        """sum_ij conj(g_i) W_ij f_j for g and f given on the support rows
        (first axis), for each index of their other axes; a diagonal W with
        g is f takes sum_i w_i |f_i|^2."""
        w = self.values.reshape((-1,) + (1,) * (f.ndim - 1))
        if g is f and self.weights is not None:
            return (w * (np.abs(f) ** 2)).sum(axis=0).astype(complex)
        i, j = (np.searchsorted(self.support, k) for k in (self.rows, self.cols))
        return (w * np.conj(g[i]) * f[j]).sum(axis=0)


@dataclass
class StateVector:
    dim: int
    amplitudes: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.dim,):
            raise ValueError(f"amplitudes must have length {self.dim}")
        if self.normalized:
            nrm2 = float(np.vdot(self.amplitudes, self.amplitudes).real)
            if abs(nrm2 - 1.0) > _NORM_TOL:
                raise ValueError(f"normalized flag set but ||psi||^2 = {nrm2!r}")


def as_operator(entries: np.ndarray, opnorm_bound: float | None = None) -> OperatorMatrix:
    entries = np.asarray(entries)
    if opnorm_bound is None:
        nrm = float(np.linalg.norm(entries, 2))
        opnorm_bound = nrm * (1.0 + 1e-12) + 1e-15
    return OperatorMatrix(dim=entries.shape[0], entries=entries, opnorm_bound=opnorm_bound)


def _projector(dim: int, indices, what: str) -> OperatorMatrix:
    """Diagonal projector onto the given rows; a repeated row is a config
    error that names what the rows are."""
    if len(set(indices)) != len(indices):
        raise ConfigError(f"duplicate {what} in projector")
    weights = np.zeros(dim)
    weights[indices] = 1.0
    return OperatorMatrix(dim=dim, weights=weights, opnorm_bound=1.0)


def site_projector(layout: LatticeLayout, sites) -> OperatorMatrix:
    """Projector onto the listed (cell, sublattice) sites. Duplicate or
    out-of-range sites are rejected."""
    indices = [layout.index_of(cell, subl) for cell, subl in sites]
    if not indices:
        raise ConfigError("projector needs at least one site")
    return _projector(layout.dim, indices, "sites")


def sublattice_projector(layout: LatticeLayout, sublattice) -> OperatorMatrix:
    """Projector onto every site of one sublattice, all cells."""
    s = layout.sublattice_index(sublattice)
    return _projector(layout.dim, range(s, layout.dim, layout.sublattices), "sites")


def chiral_partial(layout: LatticeLayout, j: int = 3) -> OperatorMatrix:
    """Sublattice-symmetry block operator summed over all cells but the last:
    sigma_j on cells 1..N-1, a zero block on cell N. j is 3 for the dimerized
    chain and 2 for the ladder."""
    if layout.kind != "chain1d" or layout.sublattices != 2:
        raise LatticeError("chiral_partial applies to two-sublattice chains")
    if j not in (2, 3):
        raise ConfigError("j must be 2 or 3")
    block = SIGMA_2 if j == 2 else SIGMA_3.real
    onsite = np.zeros((layout.cells_x, 2, 2), dtype=block.dtype)
    onsite[:-1] = block
    return OperatorMatrix(dim=layout.dim, opnorm_bound=1.0,
                          triplets=_tile(layout, onsite))


def chiral_operator(model: str, N: int) -> OperatorMatrix:
    """Full sublattice-symmetry operator C with C^2 = I (Hermitian, unitary):
    diag(+1,-1) per cell for the dimerized chain, sigma_2 per cell for the
    ladder."""
    return OperatorMatrix(dim=2 * N, entries=chiral_matrix(model, N),
                          opnorm_bound=1.0)


def _basis(dim: int, index: int) -> StateVector:
    amp = np.zeros(dim, dtype=complex)
    amp[index] = 1.0
    return StateVector(dim=dim, amplitudes=amp, normalized=True)


def basis_state(layout: LatticeLayout, cell, sublattice="A") -> StateVector:
    return _basis(layout.dim, layout.index_of(cell, sublattice))


def staggered_state(layout: LatticeLayout, M: int, flavor: str = "ssh_A") -> StateVector:
    """Sign-alternating superposition over the first M cells.

    ssh_A: sum_m (-1)^(m-1) |m,A> / sqrt(M)
    creutz_AB: sum_m (-1)^(m-1) (|m,A> + i|m,B>) / sqrt(2M)
    """
    if layout.kind != "chain1d" or layout.sublattices != 2:
        raise LatticeError("staggered states are defined on two-sublattice chains")
    if not 1 <= M <= layout.cells_x:
        raise ConfigError(f"M must lie in 1..{layout.cells_x}")
    amp = np.zeros(layout.dim, dtype=complex)
    signs = (-1.0) ** np.arange(M)
    if flavor == "ssh_A":
        amp[0:2 * M:2] = signs / np.sqrt(M)
    elif flavor == "creutz_AB":
        amp[0:2 * M:2] = signs / np.sqrt(2 * M)
        amp[1:2 * M:2] = 1j * signs / np.sqrt(2 * M)
    else:
        raise ConfigError(f"unknown staggered flavor {flavor!r}")
    return StateVector(dim=layout.dim, amplitudes=amp, normalized=True)


def _sublattice_a_mask(layout: LatticeLayout) -> np.ndarray:
    mask = np.zeros(layout.dim)
    mask[0::layout.sublattices] = 1.0
    return mask


def lowest_abs_eigenstate(H: HamiltonianMatrix,
                          degeneracy_tol: float | None = None,
                          eigenpairs: tuple | None = None) -> StateVector:
    """Eigenstate of smallest |energy|, from the given eigenpairs (lam, V) of
    H or, without them, from a fresh eigh.

    When the two smallest-|energy| levels are within degeneracy_tol of each
    other (default 1e-8 * energy_unit), the returned state is the combination
    inside that two-dimensional eigenspace with maximal weight on sublattice A.
    Ties among distinct levels of equal |energy| resolve to the lower signed
    energy.
    """
    if not H.hermitian:
        raise ConfigError("lowest_abs_eigenstate needs a Hermitian Hamiltonian")
    if degeneracy_tol is None:
        degeneracy_tol = 1e-8 * H.energy_unit
    lam, V = np.linalg.eigh(H.entries) if eigenpairs is None else eigenpairs
    order = np.lexsort((lam, np.abs(lam)))
    i0, i1 = order[0], order[1]
    if abs(lam[i0] - lam[i1]) <= degeneracy_tol:
        vs = V[:, [i0, i1]]
        mask = _sublattice_a_mask(H.layout)
        G = vs.conj().T @ (mask[:, None] * vs)
        gval, gvec = np.linalg.eigh(G)
        psi = vs @ gvec[:, -1]
    else:
        psi = V[:, i0]
    psi = psi / np.linalg.norm(psi)
    return StateVector(dim=H.dim, amplitudes=psi.astype(complex), normalized=True)


def eigenstate(H: HamiltonianMatrix, eigenpairs: tuple | None = None,
               degeneracy_tol: float | None = None, project_a: bool = True) -> StateVector:
    """lowest_abs_eigenstate, projected onto sublattice A and renormalized."""
    state = lowest_abs_eigenstate(H, degeneracy_tol, eigenpairs)
    if not project_a:
        return state
    amp = project_sublattice_a(H.layout, state).amplitudes
    nrm = float(np.linalg.norm(amp))
    if nrm == 0.0:
        raise ConfigError("eigenstate has no sublattice-A weight to project onto")
    return StateVector(dim=H.dim, amplitudes=amp / nrm, normalized=True)


def project_sublattice_a(layout: LatticeLayout, state: StateVector) -> StateVector:
    """Zero out every amplitude off sublattice A. The result is not
    renormalized; its norm measures the A-sublattice weight."""
    amp = state.amplitudes * _sublattice_a_mask(layout)
    return StateVector(dim=state.dim, amplitudes=amp, normalized=False)
