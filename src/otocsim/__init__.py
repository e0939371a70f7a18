"""OTOC dynamics for tight-binding lattice models with topological
transitions.

The working quantity is O(t) = |<psi0| e^{+iHt} W e^{-iHt} |psi0>|^2 for a
probe operator W; its long-time plateau jumps from zero to a finite value
across a topological phase transition, which the sweep engine locates on
parameter grids.
"""

__version__ = "0.1.0"   # pyproject.toml reads the version from here
