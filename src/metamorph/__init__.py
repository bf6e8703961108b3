"""Joint geometric-photometric geodesic matching of textured simplicial meshes.

The package root holds what a library user needs: meshes and their
validation, kernel and metric specs, configs, ``match`` / ``shoot`` /
``objective``, the fidelity, and the sphere oracle. Layer functions (metric
assembly, kernel sums, the adjoint, ...) are imported from their modules.
"""

from .dynamics import DynamicsConfig, MatchProblem, Trajectory, integrate_forward
from .fem import FunctionalMetric
from .fshape import DiscreteFshape, ShootingDiverged, ShootingState, validate_fshape
from .kernels import GrassmannKernelSpec, RadialKernelSpec
from .matching import (
    MatchConfig,
    MatchResult,
    ScaleStage,
    digits_preset,
    match,
    objective,
    shoot,
)
from .sphere import SphereState, integrate_sphere
from .varifold import VarifoldKernels, fidelity, to_varifold

__version__ = "0.1.0"

__all__ = [
    "DiscreteFshape",
    "DynamicsConfig",
    "FunctionalMetric",
    "GrassmannKernelSpec",
    "MatchConfig",
    "MatchProblem",
    "MatchResult",
    "RadialKernelSpec",
    "ScaleStage",
    "ShootingDiverged",
    "ShootingState",
    "SphereState",
    "Trajectory",
    "VarifoldKernels",
    "digits_preset",
    "fidelity",
    "integrate_forward",
    "integrate_sphere",
    "match",
    "objective",
    "shoot",
    "to_varifold",
    "validate_fshape",
]
