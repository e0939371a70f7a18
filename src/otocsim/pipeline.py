"""Config-driven single runs: model -> propagator -> probe -> observable.

Everything here consumes plain validated config mappings (see config.py) so
that grid points and ensemble members can be shipped to worker processes.
config.py owns every field; the builders take the fields by name.
"""

from __future__ import annotations

import functools

import numpy as np

from . import lattice, operators
from .config import _INT_PARAMS, ConfigError, fingerprint
from .dynamics import (TAIL_FRACTION, PhaseBudgetError, Propagator, TimeGrid,
                       long_time_limit, otoc_series, spectral_decompose,
                       time_average)
from .ensemble import draw_disorder
from .analytic import extended_chain_hamiltonian
from .lattice import DisorderConfig, HamiltonianMatrix
from .operators import OperatorMatrix, StateVector

_BUILDERS = dict(ssh=lattice.build_ssh, nonhermitian_ssh=lattice.build_nonhermitian_ssh,
                 creutz=lattice.build_creutz, haldane=lattice.build_haldane,
                 qwz=lattice.build_qwz, ssh2d=lattice.build_ssh2d,
                 extended_chain=extended_chain_hamiltonian)


def _names(section: str):
    """Decorator: a config error the builder raises names the config section
    it builds from, unless its message already does."""
    def wrap(build):
        @functools.wraps(build)
        def named(*args, **kwargs):
            try:
                return build(*args, **kwargs)
            except ConfigError as exc:
                if section not in str(exc):
                    exc.args = (f"{exc} (in {section})",)
                raise
        return named
    return wrap


@_names("params")
def build_hamiltonian(model: str, params: dict,
                      disorder: DisorderConfig | None = None) -> HamiltonianMatrix:
    """The model's builder called with params by name. N, Nx and Ny are cast
    to int because a sweep assigns its axis values as floats."""
    kwargs = {k: int(v) if k in _INT_PARAMS else v for k, v in params.items()}
    if disorder is not None:
        kwargs["disorder"] = disorder
    return _BUILDERS[model](**kwargs)


@_names("initial_state")
def build_initial_state(H: HamiltonianMatrix, spec: dict,
                        prop: Propagator | None = None) -> StateVector:
    """The configured psi0; an eigenstate reuses the eigenpairs of prop when
    it is given and holds them."""
    kind = spec["kind"]
    fields = {k: v for k, v in spec.items() if k != "kind"}
    if kind == "basis":
        return operators.basis_state(H.layout, **fields)
    if kind == "index":
        return operators._basis(H.dim, _check_index(spec["index"], H.dim,
                                                     "initial_state.index"))
    if kind == "site":
        # 1-based site coordinates of the four-component square lattice
        return operators._basis(H.dim, lattice.ssh2d_site_index(H.layout, **fields))
    if kind == "staggered":
        return operators.staggered_state(H.layout, **fields)
    if kind == "eigenstate":
        eigenpairs = (None if prop is None or prop.eigenvectors is None
                      else (prop.eigenvalues, prop.eigenvectors))
        return operators.eigenstate(H, eigenpairs, **fields)
    raise ConfigError(f"unknown initial state kind {kind!r}")


@_names("w_operator")
def build_w_operator(H: HamiltonianMatrix, spec: dict) -> OperatorMatrix:
    kind = spec["kind"]
    fields = {k: v for k, v in spec.items() if k != "kind"}
    if kind == "site_projector":
        return operators.site_projector(H.layout, **fields)
    if kind == "sublattice_projector":
        return operators.sublattice_projector(H.layout, **fields)
    if kind == "chiral_partial":
        return operators.chiral_partial(H.layout, **fields)
    if kind == "index_projector":
        # the schema takes whole floats here as they are
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
    seed = dis.get("seed") if seed is None else seed
    if seed is None:
        raise ConfigError("disorder.seed is required for a single run; seed0 and "
                          "n_configs are for the ensemble and sweep subcommands")
    return draw_disorder(seed, int(cfg["params"]["N"]), dis["d1"], dis["d2"])


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
        psi = psi0.amplitudes[W.support]
        expected = abs(W.contract(psi, psi)) ** 2
        err = float(np.abs(values[at_zero] - expected).max())
        if err > 1e-12:
            raise FloatingPointError(f"O(0) differs from |<psi0|W|psi0>|^2 = "
                                     f"{expected:.6g} by {err:.3e}")


def run_point(cfg: dict, observable: str = "full_series",
              seed: int | None = None, times=None):
    """One pipeline pass: build, decompose once, evolve, check, reduce.

    O(t) is sampled on the config's time grid unless explicit times are
    given. spectral_decompose plans the point (dynamics.plan) from H, the
    probe and the times; an eigenstate psi0 needs the eigenpairs, so it
    passes no probe and keeps eigh. The plan refuses a point whose largest
    phase float64 resolves worse than PHASE_BUDGET (exit 1), naming
    time_grid.t_max or the t axis. The series evolves psi0 on the support
    rows of the probe. Its metadata records the plan's x = a max|t| /
    energy_unit and eps * x as phase_x and phase_eps_x, and the mean and
    spread of its tail as tail_mean and tail_std. Returns an OtocSeries for
    "full_series", otherwise a float.
    """
    disorder = _disorder_from_config(cfg, seed)
    H = build_hamiltonian(cfg["model"], cfg["params"], disorder)
    W = build_w_operator(H, cfg["w_operator"])
    field = "the t axis" if times is not None else "time_grid.t_max"
    if times is None:
        times = TimeGrid(**cfg.get("time_grid", {})).times()
    state = cfg["initial_state"]
    try:
        prop = spectral_decompose(H, None if state["kind"] == "eigenstate" else W,
                                  times)
    except PhaseBudgetError as exc:
        exc.args = (field, exc.args[1])
        raise
    psi0 = build_initial_state(H, state, prop)
    series = otoc_series(prop, W, psi0, times=times)
    _check_contracts(series, W, psi0)
    obs = cfg.get("observable", {})
    tail = long_time_limit(series, obs.get("tail_fraction", TAIL_FRACTION))
    x = prop.plan.x
    series.metadata.update(model=cfg["model"], fingerprint=fingerprint(cfg),
                           phase_x=x, phase_eps_x=np.finfo(float).eps * x,
                           tail_mean=tail.mean, tail_std=tail.std)
    if observable == "full_series":
        return series
    if observable == "long_time_limit":
        return tail.mean
    if observable == "time_average":
        return time_average(series)
    raise ValueError(f"unknown observable {observable!r}")
