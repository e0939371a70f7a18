"""OTOC dynamics for tight-binding lattice models with topological
transitions.

The working quantity is O(t) = |<psi0| e^{+iHt} W e^{-iHt} |psi0>|^2 for a
probe operator W; its long-time plateau jumps from zero to a finite value
across a topological phase transition, which the sweep engine locates on
parameter grids.
"""

__version__ = "0.1.0"   # pyproject.toml reads the version from here

from .analytic import (AnalyticEigenSystem, analytic_eigenpairs, band_mode,
                       chiral_plateau, extended_chain_hamiltonian,
                       otoc_chiral_closed_form, otoc_site_closed_form,
                       site_plateau, zero_mode)
from .config import ConfigError, fingerprint, load_config, validate_config
from .dynamics import (EigensolverError, OtocSeries, Propagator, TimeGrid,
                       long_time_limit, otoc_amplitude, otoc_series,
                       otoc_trace_oracle, spectral_decompose, time_average)
from .ensemble import (DisorderConfig, EnsembleError, EnsembleResult,
                       draw_disorder, ensemble_average, uniform_pm_half)
from .lattice import (HamiltonianMatrix, LatticeError, LatticeLayout,
                      bloch_hamiltonian, bloch_to_realspace, build_creutz,
                      build_haldane, build_nonhermitian_ssh, build_qwz,
                      build_ssh, build_ssh2d, chiral_matrix, ssh2d_blocks,
                      ssh2d_site_index, symmetry_residual)
from .operators import (OperatorMatrix, StateVector, as_operator, basis_state,
                        chiral_operator, chiral_partial,
                        lowest_abs_eigenstate, project_sublattice_a,
                        site_projector, staggered_state, sublattice_projector)
from .pipeline import (build_hamiltonian, build_initial_state,
                       build_w_operator, run_point)
from .sweep import (SweepResult, SweepAxis, SweepError, detect_transition,
                    estimate_transition_powerlaw, sweep)
