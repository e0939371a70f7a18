"""Real-space tight-binding Hamiltonians on finite lattices.

Every lattice matrix comes from one block tiler, ``_tile``: a builder only
names its on-site block and one hopping block per cell offset, and the tiler
lays them out by vectorized indexing and returns the nonzero entries as
row-major (row, col, value) triplets, with entries that land on one position
summed in the order they were placed and zeros dropped. Builders wrap the
triplets in :class:`HamiltonianMatrix`, which builds the dense matrix only
when a caller asks for it; probes (``operators.OperatorMatrix``) share the
same triplet form. Site indexing is row-major, cell-major with the
sublattice index innermost: cell n (1-based) with sublattice s occupies row
``(n-1)*n_sub + s``; :class:`LatticeLayout` and ``_tile`` are the only places
that compute it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError

SIGMA_1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_HERMITICITY_TOL = 1e-12


class LatticeError(ConfigError):
    """Invalid lattice geometry or site addressing (a config error: exit 2)."""


@dataclass(frozen=True)
class LatticeLayout:
    """Geometry bookkeeping: maps (cell, sublattice) to a dense matrix index.

    kind: "chain1d", "square2d" or "honeycomb2d".
    Cells are 1-based; chains address cells by a single integer, 2d lattices
    by an (x, y) pair with x the slow (row-major) coordinate.
    """

    kind: str
    cells_x: int
    cells_y: int
    sublattices: int
    sublattice_names: tuple = ("A", "B")

    def __post_init__(self):
        if self.kind not in ("chain1d", "square2d", "honeycomb2d"):
            raise LatticeError(f"unknown lattice kind {self.kind!r}")
        if self.cells_x < 1 or self.cells_y < 1 or self.sublattices < 1:
            raise LatticeError("lattice must have at least one cell and one sublattice")
        if len(self.sublattice_names) != self.sublattices:
            raise LatticeError("sublattice_names length must match sublattices")

    @property
    def n_cells(self) -> int:
        return self.cells_x * self.cells_y

    @property
    def dim(self) -> int:
        return self.n_cells * self.sublattices

    def sublattice_index(self, sublattice) -> int:
        """Accept a 0-based integer or a name from sublattice_names."""
        if isinstance(sublattice, str):
            try:
                return self.sublattice_names.index(sublattice)
            except ValueError:
                raise LatticeError(f"unknown sublattice {sublattice!r}") from None
        s = int(sublattice)
        if not 0 <= s < self.sublattices:
            raise LatticeError(f"sublattice index {s} out of range")
        return s

    def cell_index(self, cell) -> int:
        if self.kind == "chain1d":
            if isinstance(cell, (tuple, list)):
                if len(cell) != 1:
                    raise LatticeError(f"chain cells are addressed by one integer, got {cell!r}")
                cell = cell[0]
            n = int(cell)
            if not 1 <= n <= self.cells_x:
                raise LatticeError(f"cell {n} out of range 1..{self.cells_x}")
            return n - 1
        if not isinstance(cell, (tuple, list)) or len(cell) != 2:
            raise LatticeError(f"2d cells are addressed by an (x, y) pair, got {cell!r}")
        cx, cy = int(cell[0]), int(cell[1])
        if not 1 <= cx <= self.cells_x or not 1 <= cy <= self.cells_y:
            raise LatticeError(f"cell {(cx, cy)} out of range")
        return (cx - 1) * self.cells_y + (cy - 1)

    def index_of(self, cell, sublattice) -> int:
        return self.cell_index(cell) * self.sublattices + self.sublattice_index(sublattice)

    def site_of(self, index: int):
        """Inverse of index_of. Returns (cell, sublattice_name)."""
        if not 0 <= index < self.dim:
            raise LatticeError(f"site index {index} out of range")
        c, s = divmod(index, self.sublattices)
        name = self.sublattice_names[s]
        if self.kind == "chain1d":
            return c + 1, name
        cx, cy = divmod(c, self.cells_y)
        return (cx + 1, cy + 1), name


@dataclass(frozen=True)
class DisorderConfig:
    """One disorder realization. r modulates intercell bonds (length N-1),
    r_prime intracell bonds (length N); raw draws live in [-0.5, 0.5] and the
    builder applies the strengths d1, d2."""

    r: np.ndarray
    r_prime: np.ndarray
    seed: int
    d1: float
    d2: float

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        rp = np.asarray(self.r_prime, dtype=float)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "r_prime", rp)
        if r.size and (r.min() < -0.5 or r.max() > 0.5):
            raise ValueError("disorder draws r must lie in [-0.5, 0.5]")
        if rp.size and (rp.min() < -0.5 or rp.max() > 0.5):
            raise ValueError("disorder draws r_prime must lie in [-0.5, 0.5]")
        if rp.size != r.size + 1:
            raise ValueError("need one intracell draw per cell and one intercell draw per bond")


class TripletMatrix:
    """A dim x dim matrix held as its nonzero entries: the arrays rows, cols
    and values in row-major order with no position twice, as ``_tile``
    emits them. A dense ``entries`` given instead is reduced to that form
    here. The dense matrix, ``entries``, is built from the triplets on first
    use and kept."""

    def __init__(self, dim: int, *, entries=None, triplets=None):
        if (entries is None) == (triplets is None):
            raise ValueError("give either entries or triplets")
        if entries is not None:
            entries = np.asarray(entries)
            if entries.shape != (dim, dim):
                raise ValueError(f"entries must be {dim}x{dim}")
            rows, cols = np.nonzero(entries)
            triplets = rows, cols, entries[rows, cols]
        self.rows, self.cols, self.values = (np.asarray(a) for a in triplets)
        if (np.diff(self.rows * dim + self.cols) <= 0).any():
            raise ValueError("triplets must be distinct positions in row-major order")
        self.dim = dim
        self._dense = None

    @property
    def entries(self) -> np.ndarray:
        """The dense dim x dim matrix."""
        if self._dense is None:
            self._dense = np.zeros((self.dim, self.dim), dtype=self.values.dtype)
            self._dense[self.rows, self.cols] = self.values
        return self._dense


class HamiltonianMatrix(TripletMatrix):
    """Hamiltonian with its layout and the energy scale that sets the time
    unit (times are handled in units of 1/energy_unit), held as triplets. A
    non-finite entry raises FloatingPointError here."""

    def __init__(self, dim: int, *, hermitian: bool, layout: LatticeLayout,
                 energy_unit: float = 1.0, entries=None, triplets=None):
        super().__init__(dim, entries=entries, triplets=triplets)
        if layout.dim != dim:
            raise ValueError("layout dimension does not match matrix dimension")
        if energy_unit <= 0:
            raise ValueError("energy_unit must be positive")
        if not np.isfinite(self.values).all():
            raise FloatingPointError("Hamiltonian entries are not finite")
        self.hermitian, self.layout = hermitian, layout
        self.energy_unit = energy_unit
        if hermitian:
            # |H_ij - conj(H_ji)| at every stored (i, j) covers every nonzero
            # of H - H^dag; the largest |H_ij| is the scale
            key = self.rows * dim + self.cols
            mirror_key = self.cols * dim + self.rows
            pos = np.searchsorted(key, mirror_key)
            pos[pos == key.size] = 0
            mirror = np.where(key[pos] == mirror_key, self.values[pos], 0)
            scale = max(1.0, np.abs(self.values).max(initial=0.0))
            resid = np.abs(self.values - np.conjugate(mirror)).max(initial=0.0)
            if resid > _HERMITICITY_TOL * scale:
                raise ValueError(f"hermitian flag set but residual {resid:.3e} exceeds tolerance")


def _tile(layout: LatticeLayout, onsite, hops=()):
    """The layout's matrix as row-major (rows, cols, values) triplets.

    onsite sits on every cell. Each ((dx, dy), T) in hops places T from cell
    c to cell c + (dx, dy) (rows of c, columns of the neighbor) and T^dag
    back, for every c whose neighbor lies inside the open patch; a chain
    uses dy = 0. A block is one nb x nb matrix, or an array of them with one
    per cell (onsite) or one per bond (hops, in the order of the cells c);
    an onsite of None places nothing. Entries that land on one position are
    summed in the order they were placed, starting from zero, as adding the
    blocks onto a zero matrix would; zero sums are dropped.
    """
    nb, ny = layout.sublattices, layout.cells_y
    cells = np.arange(layout.n_cells)
    cx, cy = np.divmod(cells, ny)
    sub = np.arange(nb)
    placed = []

    def add(src, dst, B):
        shape = (src.size, nb, nb)
        placed.append((np.broadcast_to((nb * src)[:, None, None] + sub[:, None], shape),
                       np.broadcast_to((nb * dst)[:, None, None] + sub, shape),
                       np.broadcast_to(B, shape)))

    if onsite is not None:
        add(cells, cells, np.asarray(onsite))
    for (dx, dy), T in hops:
        T = np.asarray(T)
        src = cells[(0 <= cx + dx) & (cx + dx < layout.cells_x)
                    & (0 <= cy + dy) & (cy + dy < ny)]
        dst = src + dx * ny + dy
        add(src, dst, T)
        add(dst, src, np.swapaxes(T.conj(), -1, -2))
    rows, cols, values = (np.concatenate([p[i].ravel() for p in placed])
                          for i in range(3))
    # a zero added to a partial sum that starts at +0.0 changes no bit
    nz = values != 0
    keys, where = np.unique(rows[nz] * layout.dim + cols[nz], return_inverse=True)
    sums = np.zeros(keys.size, dtype=values.dtype)
    np.add.at(sums, where, values[nz])
    keep = sums != 0
    rows, cols = np.divmod(keys[keep], layout.dim)
    return rows, cols, sums[keep]


def _chain_layout(N: int) -> LatticeLayout:
    return LatticeLayout(kind="chain1d", cells_x=N, cells_y=1, sublattices=2)


def build_ssh(N: int, nu: float, eta: float = 0.0, epsilon: float = 1.0,
              disorder: DisorderConfig | None = None) -> HamiltonianMatrix:
    """Dimerized chain with N two-site cells, open ends.

    Intracell bond epsilon*nu on (n,A)-(n,B), intercell bond epsilon on
    (n,B)-(n+1,A), and an optional third-neighbor bond epsilon*eta on
    (n,B)-(n+2,A). Disorder, when given, modulates the two nearest-neighbor
    bond families only.
    """
    if N < 2:
        raise LatticeError("need at least N=2 cells")
    if epsilon <= 0:
        raise LatticeError("epsilon must be positive")
    intra = np.full(N, float(nu))
    inter = np.ones(N - 1)
    if disorder is not None:
        if disorder.r_prime.size != N:
            raise LatticeError("disorder realization length does not match N")
        intra = intra + disorder.d2 * disorder.r_prime
        inter = inter + disorder.d1 * disorder.r
    onsite = np.zeros((N, 2, 2))
    onsite[:, 0, 1] = onsite[:, 1, 0] = epsilon * intra
    hop = np.zeros((N - 1, 2, 2))
    hop[:, 1, 0] = epsilon * inter
    far = np.array([[0.0, 0.0], [epsilon * eta, 0.0]])
    layout = _chain_layout(N)
    triplets = _tile(layout, onsite, [((1, 0), hop), ((2, 0), far)])
    return HamiltonianMatrix(dim=2 * N, triplets=triplets, hermitian=True,
                             layout=layout, energy_unit=epsilon)


def build_nonhermitian_ssh(N: int, nu: float, delta: float,
                           epsilon: float = 1.0) -> HamiltonianMatrix:
    """SSH chain with asymmetric intracell hopping nu +/- delta.

    At delta=0 this coincides bit-for-bit with build_ssh. The matrix is real
    but not symmetric for delta != 0; its spectrum stays real for nu > delta.
    """
    if N < 2:
        raise LatticeError("need at least N=2 cells")
    if epsilon <= 0:
        raise LatticeError("epsilon must be positive")
    layout = _chain_layout(N)
    onsite = np.array([[0.0, epsilon * (nu + delta)], [epsilon * (nu - delta), 0.0]])
    triplets = _tile(layout, onsite, [((1, 0), np.array([[0.0, 0.0], [epsilon, 0.0]]))])
    hermitian = delta == 0.0
    return HamiltonianMatrix(dim=2 * N, triplets=triplets, hermitian=hermitian,
                             layout=layout, energy_unit=epsilon)


# Directed intercell block of the two-leg ladder: eta0p * (sigma_1 - i sigma_3)/2
# on cell n -> n+1, plus its conjugate.
_CREUTZ_HOP = (SIGMA_1 - 1j * SIGMA_3) / 2.0


def build_creutz(N: int, eta0: float, eta0p: float) -> HamiltonianMatrix:
    """Two-leg ladder with rung coupling eta0 and flux-pi diagonal hopping eta0p."""
    if N < 2:
        raise LatticeError("need at least N=2 cells")
    layout = _chain_layout(N)
    triplets = _tile(layout, eta0 * SIGMA_1, [((1, 0), eta0p * _CREUTZ_HOP)])
    unit = eta0p if eta0p > 0 else 1.0
    return HamiltonianMatrix(dim=2 * N, triplets=triplets, hermitian=True,
                             layout=layout, energy_unit=unit)


def build_haldane(Nx: int, Ny: int, eta1: float, eta2: float, phi: float,
                  mu: float) -> HamiltonianMatrix:
    """Honeycomb flake of Nx x Ny cells with staggered on-site energy +mu on A,
    -mu on B, nearest-neighbor hopping eta1 and complex second-neighbor hopping
    eta2*exp(+i phi) along the directed triangular loops (conjugated on B)."""
    if Nx < 2 or Ny < 2:
        raise LatticeError("need at least 2x2 cells")
    layout = LatticeLayout(kind="honeycomb2d", cells_x=Nx, cells_y=Ny, sublattices=2)
    # second-neighbor amplitude from cell c to c + (0, 1) or c + (1, -1), per
    # sublattice; the hop to c + (1, 0) carries its conjugate
    amp = np.diag([eta2 * np.exp(1j * phi), eta2 * np.exp(-1j * phi)])
    tx, ty = amp.conj(), amp.copy()
    tx[1, 0] = ty[1, 0] = eta1       # (B, c) -> (A, c + x) and (A, c + y)
    onsite = np.array([[mu, eta1], [eta1, -mu]], dtype=complex)
    triplets = _tile(layout, onsite, [((1, 0), tx), ((0, 1), ty), ((1, -1), amp)])
    unit = eta1 if eta1 > 0 else 1.0
    return HamiltonianMatrix(dim=layout.dim, triplets=triplets, hermitian=True,
                             layout=layout, energy_unit=unit)


def bloch_hamiltonian(H0: np.ndarray, Tx: np.ndarray, Ty: np.ndarray,
                      kx: float, ky: float) -> np.ndarray:
    """Bloch matrix H0 + Tx e^{ikx} + Tx^dag e^{-ikx} + Ty e^{iky} + Ty^dag e^{-iky}."""
    H0 = np.asarray(H0)
    Tx = np.asarray(Tx)
    Ty = np.asarray(Ty)
    return (H0 + Tx * np.exp(1j * kx) + Tx.conj().T * np.exp(-1j * kx)
            + Ty * np.exp(1j * ky) + Ty.conj().T * np.exp(-1j * ky))


def bloch_to_realspace(H0: np.ndarray, Tx: np.ndarray, Ty: np.ndarray,
                       Nx: int, Ny: int, kind: str = "square2d",
                       sublattice_names: tuple | None = None,
                       energy_unit: float = 1.0) -> HamiltonianMatrix:
    """Tile intracell block H0 and hopping blocks Tx (+x direction) and
    Ty (+y direction) over an Nx x Ny open-boundary patch: the public face of
    the block tiler every builder uses. Nx=Ny=1 is allowed and returns just
    H0; a None hopping block places nothing."""
    H0 = np.asarray(H0)
    nb = H0.shape[0]
    if H0.shape != (nb, nb):
        raise LatticeError("H0 must be square")
    Tx = np.zeros_like(H0) if Tx is None else np.asarray(Tx)
    Ty = np.zeros_like(H0) if Ty is None else np.asarray(Ty)
    if Tx.shape != H0.shape or Ty.shape != H0.shape:
        raise LatticeError("hopping blocks must match H0 shape")
    if Nx < 1 or Ny < 1:
        raise LatticeError("need at least one cell in each direction")
    if sublattice_names is None:
        sublattice_names = tuple(str(i + 1) for i in range(nb))
    layout = LatticeLayout(kind=kind, cells_x=Nx, cells_y=Ny, sublattices=nb,
                           sublattice_names=sublattice_names)
    triplets = _tile(layout, H0, [((1, 0), Tx), ((0, 1), Ty)])
    herm = (np.abs(H0 - H0.conj().T).max()
            <= _HERMITICITY_TOL * max(1.0, np.abs(H0).max()))
    return HamiltonianMatrix(dim=layout.dim, triplets=triplets, hermitian=herm,
                             layout=layout, energy_unit=energy_unit)


def ssh2d_blocks(nu_p: float, w: float):
    """Intracell and hopping blocks of the four-site-cell dimerized square
    lattice with a pi flux through each plaquette (one flipped bond sign)."""
    H0 = nu_p * np.array([[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, -1.0, 0.0],
                          [0.0, -1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0]])
    Tx = w * np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0],
                       [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    Ty = w * np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
                       [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    return H0, Tx, Ty


def build_ssh2d(Nx: int, Ny: int, nu_p: float, w: float) -> HamiltonianMatrix:
    """Two-dimensional dimerized lattice (four sites per cell, pi flux per
    plaquette) on an open Nx x Ny patch of cells."""
    if Nx < 2 or Ny < 2:
        raise LatticeError("need at least 2x2 cells")
    H0, Tx, Ty = ssh2d_blocks(nu_p, w)
    unit = w if w > 0 else 1.0
    return bloch_to_realspace(H0, Tx, Ty, Nx, Ny, kind="square2d",
                              sublattice_names=("1", "2", "3", "4"),
                              energy_unit=unit)


# In-cell positions of the four components, in (x offset, y offset) form.
# Component 3 sits at the cell's lower-left site, so global odd/odd site
# coordinates land on component 3. Fixed by the sign structure of the
# hopping blocks (each closed plaquette carries flux pi).
_SSH2D_COMPONENT_AT = {(1, 1): "1", (1, 0): "2", (0, 0): "3", (0, 1): "4"}


def ssh2d_site_index(layout: LatticeLayout, x: int, y: int) -> int:
    """Matrix index of the physical site at 1-based coordinates (x, y) of the
    dimerized square lattice (two sites per cell in each direction)."""
    if layout.sublattices != 4 or layout.kind != "square2d":
        raise LatticeError("site coordinates only apply to the four-component square lattice")
    if not (1 <= x <= 2 * layout.cells_x and 1 <= y <= 2 * layout.cells_y):
        raise LatticeError(f"site {(x, y)} out of range")
    cell = ((x + 1) // 2, (y + 1) // 2)
    comp = _SSH2D_COMPONENT_AT[((x - 1) % 2, (y - 1) % 2)]
    return layout.index_of(cell, comp)


def build_qwz(Nx: int, Ny: int, eta0: float, mu_p: float) -> HamiltonianMatrix:
    """Two-band square-lattice model with spin-orbit-like hopping
    eta0*(sigma_3 + i sigma_1)/2 along x, eta0*(sigma_3 + i sigma_2)/2 along y
    and on-site mass mu_p*sigma_3."""
    if Nx < 2 or Ny < 2:
        raise LatticeError("need at least 2x2 cells")
    H0 = mu_p * SIGMA_3
    Tx = eta0 * (SIGMA_3 + 1j * SIGMA_1) / 2.0
    Ty = eta0 * (SIGMA_3 + 1j * SIGMA_2) / 2.0
    unit = abs(eta0) if eta0 != 0 else 1.0
    return bloch_to_realspace(H0, Tx, Ty, Nx, Ny, kind="square2d",
                              sublattice_names=("A", "B"), energy_unit=unit)


def chiral_matrix(model: str, N: int) -> np.ndarray:
    """Sublattice-symmetry operator of the chain models as a dense matrix:
    diag(+1,-1) per cell for the dimerized chain, sigma_2 per cell for the
    ladder. operators.chiral_operator wraps this with an operator norm."""
    if N < 1:
        raise LatticeError("need at least one cell")
    if model == "ssh":
        blk = SIGMA_3
    elif model == "creutz":
        blk = SIGMA_2
    else:
        raise LatticeError(f"no chiral operator defined for model {model!r}")
    return TripletMatrix(2 * N, triplets=_tile(_chain_layout(N), blk)).entries


def symmetry_residual(H, C) -> float:
    """Max-norm of C H C^{-1} + H; zero iff C anticommutes with H."""
    entries = H.entries if isinstance(H, HamiltonianMatrix) else np.asarray(H)
    C = np.asarray(getattr(C, "entries", C))
    if C.shape != entries.shape:
        raise LatticeError(f"operator shape {C.shape} does not match {entries.shape}")
    Cinv = np.linalg.inv(C)
    return float(np.abs(C @ entries @ Cinv + entries).max())
