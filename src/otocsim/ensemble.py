"""Seeded disorder generation and disorder-averaged observables.

Draws come from the counter-based Philox generator so that published
fixtures are bit-reproducible across platforms and languages: raw 64-bit
words are mapped to [-0.5, 0.5) through the 53-bit mantissa rule
(u64 >> 11) * 2^-53 - 0.5. Within one configuration the intercell vector r
is drawn before the intracell vector r', from a single stream; configuration
index i uses seed0 + i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .config import OBSERVABLES, ConfigError
from .lattice import DisorderConfig

DEFAULT_N_CONFIGS = 30


class EnsembleError(RuntimeError):
    """A member configuration failed; carries the config index."""

    def __init__(self, config_index: int, message: str):
        super().__init__(f"config {config_index}: {message}")
        self.config_index = config_index


def uniform_pm_half(seed: int, count: int) -> np.ndarray:
    """count draws uniform on [-0.5, 0.5) from the fixed generator/mapping."""
    g = Generator(Philox(seed))
    raw = g.integers(0, 2 ** 64, size=count, dtype=np.uint64)
    return (raw >> np.uint64(11)).astype(np.float64) * (2.0 ** -53) - 0.5


def draw_disorder(seed: int, N: int, d1: float, d2: float) -> DisorderConfig:
    """Disorder realization for an N-cell chain: N-1 intercell draws r and N
    intracell draws r', in that order, from one stream."""
    if N < 2:
        raise ConfigError("params.N must be at least 2 for a disordered chain")
    if d1 < 0 or d2 < 0:
        raise ValueError("disorder strengths must be nonnegative")
    u = uniform_pm_half(seed, (N - 1) + N)
    return DisorderConfig(r=u[:N - 1], r_prime=u[N - 1:], seed=seed, d1=d1, d2=d2)


@dataclass
class EnsembleResult:
    observable: str
    n_configs: int
    seed0: int
    mean: float | np.ndarray
    std: float | np.ndarray
    per_config: list = field(default_factory=list)
    times: np.ndarray | None = None


def ensemble_average(model_spec: dict, n_configs: int = DEFAULT_N_CONFIGS,
                     seed0: int | None = 0,
                     observable: str = "long_time_limit",
                     times=None) -> EnsembleResult:
    """Run the full OTOC pipeline once per disorder configuration and average
    the chosen observable (the observable is averaged, not the Hamiltonians).

    model_spec is a config mapping as accepted by pipeline.run_point, minus
    any per-config seed; its disorder section supplies d1/d2. Member i uses
    seed0 + i. With seed0 None the single member is model_spec itself (its
    own disorder.seed, if any), and its errors pass through unwrapped.
    Explicit times replace the config's time grid.
    """
    if n_configs < 1:
        raise ValueError("n_configs must be at least 1")
    if seed0 is None and n_configs != 1:
        raise ValueError("an ensemble of more than one config needs seed0")
    if observable not in OBSERVABLES:
        raise ValueError(f"unknown observable {observable!r}")
    from . import pipeline  # deferred: pipeline imports draw_disorder from here

    per_config = []
    series_times = None
    for i in range(n_configs):
        seed = None if seed0 is None else seed0 + i
        try:
            out = pipeline.run_point(model_spec, observable=observable,
                                     seed=seed, times=times)
        except Exception as exc:
            if seed is None or isinstance(exc, ConfigError):
                raise
            raise EnsembleError(i, str(exc)) from exc
        if observable == "full_series":
            series_times = out.times
            per_config.append(out.values)
        else:
            per_config.append(float(out))
    stacked = np.asarray(per_config)
    mean = stacked.mean(axis=0)
    if n_configs > 1:
        std = stacked.std(axis=0, ddof=1)
    else:
        std = np.zeros_like(mean)
    if observable != "full_series":
        mean = float(mean)
        std = float(std)
    return EnsembleResult(observable=observable, n_configs=n_configs,
                          seed0=seed0, mean=mean, std=std,
                          per_config=per_config, times=series_times)
