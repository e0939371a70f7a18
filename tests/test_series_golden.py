"""The Hermitian series at production sizes, pinned case by case.

tests/data/series_golden.npz holds the amplitudes s(t) of each case below,
as pipeline.run_point (or, for a state no config can express, the same
spectral_decompose and otoc_series calls) evaluates them, on 501 samples to
t = 400 or on one non-uniform grid of 251. It also records the revision that wrote
it and the propagator each case took then. The cases cover the models,
probe families and kinds that dynamics.plan picks between, at dims 200-1600
where the trace oracle (dim <= 64) cannot follow. Each amplitude must agree
with the record to 1e-12 relative to max(1, |s|); BLAS thread counts move
them by about 1e-14. Re-record only when the physics changes on purpose,
with one BLAS thread, and say why with the largest change seen:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/test_series_golden.py
"""

import math
import subprocess
from pathlib import Path

import numpy as np
import pytest

from otocsim import pipeline
from otocsim.dynamics import otoc_series, spectral_decompose
from otocsim.lattice import build_ssh
from otocsim.operators import StateVector, site_projector

GOLDEN = Path(__file__).parent / "data" / "series_golden.npz"
# t_max 400 keeps the one-row chain probes on eigh, as on the disorder_sweep
# grid; 501 samples to t = 100 would hand them to the Chebyshev series
UNIFORM = {"t_max": 400.0, "dt": 0.8}
UNIFORM_TIMES = np.arange(501) * 0.8
NONUNIFORM = 400.0 * (np.arange(251) / 250) ** 2
SITE = {"kind": "site_projector", "sites": [[1, "A"]]}
CELL_1A = {"kind": "basis", "cell": 1, "sublattice": "A"}


def chain(model="ssh", w_operator=SITE, initial_state=CELL_1A, **params):
    return {"model": model, "params": params, "initial_state": initial_state,
            "w_operator": w_operator, "time_grid": UNIFORM}


def point(cfg, times=None):
    return pipeline.run_point(cfg, times=times)


def two_class_rows(times):
    """A two-row probe on both classes of the chain, (1, A) and (2, B), and a
    complex psi with weight on both: the one case no config expresses."""
    H = build_ssh(200, 0.6)
    W = site_projector(H.layout, [[1, "A"], [2, "B"]])
    amplitudes = np.zeros(H.dim, dtype=complex)
    amplitudes[[0, 3]] = [0.6, 0.8j]
    psi = StateVector(dim=H.dim, amplitudes=amplitudes)
    return otoc_series(spectral_decompose(H, W, times), W, psi, times=times)


CASES = {
    "ssh_site": lambda: point(chain(N=200, nu=0.6)),
    "ssh_site_edge": lambda: point(chain(N=200, nu=0.2)),
    "ssh_sublattice": lambda: point(chain(
        N=200, nu=0.6, w_operator={"kind": "sublattice_projector", "sublattice": "A"})),
    "ssh_chiral_partial_j3": lambda: point(chain(
        N=200, nu=0.5, w_operator={"kind": "chiral_partial", "j": 3})),
    "ssh_staggered_m3": lambda: point(chain(
        N=200, nu=0.6, initial_state={"kind": "staggered", "M": 3})),
    "ssh_eigenstate": lambda: point(chain(
        N=200, nu=2.0, initial_state={"kind": "eigenstate"},
        w_operator={"kind": "sublattice_projector", "sublattice": "A"})),
    "ssh_nonuniform": lambda: point(chain(N=200, nu=0.6), times=NONUNIFORM),
    "ssh_two_class_rows": lambda: two_class_rows(UNIFORM_TIMES),
    "ssh_two_class_rows_nonuniform": lambda: two_class_rows(NONUNIFORM),
    "disorder_member": lambda: point(dict(
        chain(N=200, nu=0.6), disorder={"d1": 1.0, "d2": 2.0, "seed": 2000})),
    "extended_chain": lambda: point(chain(
        "extended_chain", N=200, nu=0.5, initial_state={"kind": "index", "index": 0},
        w_operator={"kind": "index_projector", "indices": [0]})),
    "ssh_eta_dense": lambda: point(chain(N=200, nu=0.6, eta=0.3)),
    "creutz_dense": lambda: point(chain(
        "creutz", N=100, eta0=0.5, eta0p=1.0,
        w_operator={"kind": "chiral_partial", "j": 2})),
    "haldane_dense": lambda: point(chain(
        "haldane", Nx=10, Ny=10, eta1=1.0, eta2=1.0, phi=math.pi / 2, mu=3.0,
        initial_state={"kind": "basis", "cell": [1, 1], "sublattice": "A"},
        w_operator={"kind": "sublattice_projector", "sublattice": "B"})),
    "qwz_dense": lambda: point(chain(
        "qwz", Nx=10, Ny=10, eta0=1.0, mu_p=1.0,
        initial_state={"kind": "basis", "cell": [1, 1], "sublattice": "A"},
        w_operator={"kind": "sublattice_projector", "sublattice": "B"})),
    "ssh2d_chebyshev": lambda: point(chain(
        "ssh2d", Nx=20, Ny=20, nu_p=0.55, w=1.0,
        initial_state={"kind": "site", "x": 1, "y": 1},
        w_operator={"kind": "index_projector", "indices": [2]})),
}
NAMES = sorted(CASES)


def plan_name(series):
    meta = series.metadata
    return f"{meta['propagator']}/{meta.get('eigensolver')}"


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return {name: data[name] for name in data.files}


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(NAMES + ["_plans", "_revision"])
    recorded = dict(entry.split("=") for entry in golden["_plans"])
    assert sorted(recorded) == NAMES
    assert recorded["ssh2d_chebyshev"] == "chebyshev/None"
    assert recorded["creutz_dense"] == "hermitian_spectral/dense"


@pytest.mark.parametrize("name", NAMES)
def test_series_matches_golden(golden, name):
    got = CASES[name]().amplitudes
    want = golden[name]
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def revision():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, check=True,
                              cwd=Path(__file__).parent).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


if __name__ == "__main__":
    series = {name: CASES[name]() for name in NAMES}
    np.savez_compressed(
        GOLDEN, **{name: s.amplitudes for name, s in series.items()},
        _plans=np.array([f"{name}={plan_name(s)}" for name, s in series.items()]),
        _revision=np.array(revision()))
    print(f"wrote {len(NAMES)} series to {GOLDEN} at revision {revision()}")
