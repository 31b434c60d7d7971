"""Numerical laboratory for the J-flow on the flat complex 2-torus.

Modules:

* ``torus``        spectral calculus and the pointwise form algebra on blocks
* ``cohomology``   classes, pairings, cone conditions, divisor model
* ``split``        ``SplitPotential``, the product backend's factor potentials
* ``flow``         the RKC / RK4 method-of-lines integrator and family driver
* ``ma``           complex Monge-Ampere solver
* ``krylov``       restarted, preconditioned GMRES on numpy arrays
* ``functionals``  energy functionals (J, I, E, Mabuchi)
* ``diagnostics``  estimate monitors and fits
* ``presets``      pinned experiment configurations
* ``cli``          command-line driver (``jflow``)

The test oracles (path quadratures of J and M, ``split_critical``,
``flow_rhs``) are not part of the package: see ``tests/oracles.py``.
"""

__version__ = "0.1.0"

from .cohomology import (
    ClosedForm,
    CohomologyClass,
    c_constant,
    class_pairing,
    cone_condition,
)
from .flow import FlowConfig, epsilon_family, evolve
from .ma import MASolverConfig, solve_ma
from .presets import build_preset
from .torus import Grid, ScalarField

__all__ = [
    "__version__",
    "CohomologyClass",
    "ClosedForm",
    "class_pairing",
    "c_constant",
    "cone_condition",
    "FlowConfig",
    "evolve",
    "epsilon_family",
    "MASolverConfig",
    "solve_ma",
    "build_preset",
    "Grid",
    "ScalarField",
]
