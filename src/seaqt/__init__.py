"""Steepest-entropy-ascent quantum thermodynamics toolkit.

A numpy library for the nonlinear (entropy-ascent) density-operator
equation of motion for single and composite systems, generalized Gibbs
equilibrium theory, linear (Kossakowski-Lindblad/Pauli) comparison dynamics,
and statistical-weight-measure ensembles, plus a structure-preserving
adaptive integrator and a scenario-driven CLI.
"""

from . import (composite, ensemble, equilibrium, integrate, lindblad,
               operators, sea, serialize, states)
from .errors import SeaqtError
from .operators import UnitSystem
from .states import StateOperator

__all__ = [
    "SeaqtError",
    "StateOperator",
    "UnitSystem",
    "composite",
    "ensemble",
    "equilibrium",
    "integrate",
    "lindblad",
    "operators",
    "sea",
    "serialize",
    "states",
]

__version__ = "0.1.0"
