"""Config-driven single runs: model -> propagator -> probe -> observable.

Everything here consumes plain validated config mappings (see config.py) so
that grid points and ensemble members can be shipped to worker processes.
"""

from __future__ import annotations

import numpy as np

from . import lattice, operators
from .config import ConfigError, fingerprint
from .dynamics import (Propagator, TimeGrid, long_time_limit, otoc_series,
                       spectral_decompose, time_average)
from .ensemble import draw_disorder
from .analytic import extended_chain_hamiltonian
from .lattice import DisorderConfig, HamiltonianMatrix
from .operators import OperatorMatrix, StateVector

MODELS = ("ssh", "nonhermitian_ssh", "creutz", "haldane", "qwz", "ssh2d",
          "extended_chain")


def build_hamiltonian(model: str, params: dict,
                      disorder: DisorderConfig | None = None) -> HamiltonianMatrix:
    if disorder is not None and model != "ssh":
        raise ConfigError(f"disorder is only supported for model 'ssh', not {model!r}")
    if model == "ssh":
        return lattice.build_ssh(int(params["N"]), params["nu"],
                                 eta=params.get("eta", 0.0),
                                 epsilon=params.get("epsilon", 1.0),
                                 disorder=disorder)
    if model == "nonhermitian_ssh":
        return lattice.build_nonhermitian_ssh(int(params["N"]), params["nu"],
                                              params["delta"],
                                              epsilon=params.get("epsilon", 1.0))
    if model == "creutz":
        return lattice.build_creutz(int(params["N"]), params["eta0"],
                                    params["eta0p"])
    if model == "haldane":
        return lattice.build_haldane(int(params["Nx"]), int(params["Ny"]),
                                     params["eta1"], params["eta2"],
                                     params["phi"], params["mu"])
    if model == "qwz":
        return lattice.build_qwz(int(params["Nx"]), int(params["Ny"]),
                                 params["eta0"], params["mu_p"])
    if model == "ssh2d":
        return lattice.build_ssh2d(int(params["Nx"]), int(params["Ny"]),
                                   params["nu_p"], params["w"])
    if model == "extended_chain":
        return extended_chain_hamiltonian(int(params["N"]), params["nu"],
                                          epsilon=params.get("epsilon", 1.0))
    raise ConfigError(f"unknown model {model!r}")


def build_initial_state(H: HamiltonianMatrix, spec: dict,
                        prop: Propagator | None = None) -> StateVector:
    """The configured psi0; an eigenstate reuses the eigenpairs of prop when
    it is given."""
    kind = spec["kind"]
    layout = H.layout
    if kind == "basis":
        cell = spec["cell"]
        if isinstance(cell, list):
            cell = tuple(cell)
        return operators.basis_state(layout, cell, spec.get("sublattice", "A"))
    if kind == "index":
        return operators._basis(H.dim, _check_index(int(spec["index"]), H.dim,
                                                     "initial_state.index"))
    if kind == "site":
        # 1-based site coordinates of the four-component square lattice
        return operators._basis(H.dim, lattice.ssh2d_site_index(
            layout, int(spec["x"]), int(spec["y"])))
    if kind == "staggered":
        return operators.staggered_state(layout, int(spec["M"]),
                                         flavor=spec.get("flavor", "ssh_A"))
    if kind == "eigenstate":
        eigenpairs = None if prop is None else (prop.eigenvalues, prop.eigenvectors)
        state = operators.lowest_abs_eigenstate(H, spec.get("degeneracy_tol"),
                                                eigenpairs)
        if spec.get("project_a", True):
            projected = operators.project_sublattice_a(layout, state)
            nrm = float(np.linalg.norm(projected.amplitudes))
            if nrm == 0.0:
                raise ValueError("eigenstate has no sublattice-A weight to project onto")
            state = StateVector(dim=H.dim, amplitudes=projected.amplitudes / nrm,
                                normalized=True)
        return state
    raise ConfigError(f"unknown initial state kind {kind!r}")


def build_w_operator(H: HamiltonianMatrix, spec: dict) -> OperatorMatrix:
    kind = spec["kind"]
    layout = H.layout
    if kind == "site_projector":
        sites = []
        for cell, subl in spec["sites"]:
            if isinstance(cell, list):
                cell = tuple(cell)
            sites.append((cell, subl))
        return operators.site_projector(layout, sites)
    if kind == "sublattice_projector":
        return operators.sublattice_projector(layout, spec["sublattice"])
    if kind == "chiral_partial":
        return operators.chiral_partial(layout, j=int(spec.get("j", 3)))
    if kind == "index_projector":
        indices = [_check_index(int(i), H.dim, f"w_operator.indices[{k}]")
                   for k, i in enumerate(spec["indices"])]
        return operators._projector(H.dim, indices, "indices")
    if kind == "identity":
        return OperatorMatrix(dim=H.dim, weights=np.ones(H.dim), opnorm_bound=1.0)
    raise ConfigError(f"unknown operator kind {kind!r}")


def _disorder_from_config(cfg: dict, seed: int | None) -> DisorderConfig | None:
    dis = cfg.get("disorder")
    if dis is None:
        return None
    if seed is None:
        seed = dis.get("seed")
    if seed is None:
        raise ValueError("disorder requires a seed (or seed0 via the ensemble runner)")
    N = int(cfg["params"]["N"])
    return draw_disorder(int(seed), N, dis["d1"], dis["d2"])


def _check_index(index: int, dim: int, where: str) -> int:
    if not 0 <= index < dim:
        raise ConfigError(f"{where} = {index} is out of range 0..{dim - 1}")
    return index


def _check_contracts(series, W: OperatorMatrix, psi0: StateVector) -> None:
    """O(t) must be finite, at most the squared operator-norm bound of W, and
    equal to |<psi0|W|psi0>|^2 within 1e-12 wherever t = 0."""
    values = series.values
    if not np.all(np.isfinite(values)):
        raise FloatingPointError("O(t) is not finite")
    worst = float(values.max())
    bound = W.opnorm_bound
    if worst > bound ** 2 * (1.0 + 1e-9):
        raise FloatingPointError(f"O(t) reaches {worst:.6g}, above the bound "
                                 f"opnorm_bound^2 = {bound ** 2:g}")
    at_zero = series.times == 0
    if at_zero.any():
        psi = psi0.amplitudes
        expected = abs(np.vdot(psi, W.apply(psi))) ** 2
        err = float(np.abs(values[at_zero] - expected).max())
        if err > 1e-12:
            raise FloatingPointError(f"O(0) differs from |<psi0|W|psi0>|^2 = "
                                     f"{expected:.6g} by {err:.3e}")


def run_point(cfg: dict, observable: str = "full_series",
              seed: int | None = None, times=None):
    """One pipeline pass: build, decompose once, evolve, check, reduce.

    O(t) is sampled on the config's time grid unless explicit times are
    given. The decomposition sees the probe and the times, so it can pick the
    Chebyshev series; an eigenstate psi0 needs the eigenpairs and always
    takes eigh. Returns an OtocSeries for "full_series", otherwise a
    float.
    """
    disorder = _disorder_from_config(cfg, seed)
    H = build_hamiltonian(cfg["model"], cfg["params"], disorder)
    W = build_w_operator(H, cfg["w_operator"])
    if times is None:
        tg = cfg.get("time_grid", {})
        times = TimeGrid(t_max=tg.get("t_max", 400.0), dt=tg.get("dt", 0.2)).times()
    state = cfg["initial_state"]
    if state["kind"] == "eigenstate":
        prop = spectral_decompose(H)
    else:
        prop = spectral_decompose(H, W, times)
    psi0 = build_initial_state(H, state, prop)
    series = otoc_series(prop, W, psi0, times=times)
    _check_contracts(series, W, psi0)
    series.metadata.update(model=cfg["model"], fingerprint=fingerprint(cfg))
    if observable == "full_series":
        return series
    if observable == "long_time_limit":
        frac = cfg.get("observable", {}).get("tail_fraction", 0.5)
        return long_time_limit(series, frac).mean
    if observable == "time_average":
        return time_average(series)
    raise ValueError(f"unknown observable {observable!r}")
