"""Reshuffled SGD with per-block zeroth-order/first-order updates.

The x-block of a point can be updated from a two-point Gaussian directional
estimate of the gradient (no backprop through that block), the y-block from
exact gradients, both from the same pre-update iterate.  The package bundles
the estimator, the optimizer loop, finite-difference curvature probes,
a learning-rate planner, and slow reference oracles for validating all of it.

The package exports each module's ``__all__``, the validated API; the raw
array layer and the CLI's writers and constants are imported from their
modules.
"""
from . import core, estimator, objectives, optimizer, oracle, planner, probe
from .core import *
from .estimator import *
from .objectives import *
from .optimizer import *
from .oracle import *
from .planner import *
from .probe import *

__version__ = "0.1.0"

__all__ = [name for module in (core, estimator, objectives, optimizer, oracle, planner, probe)
           for name in module.__all__]
