"""Joint geometric-photometric geodesic matching of textured simplicial meshes."""

from .dynamics import (
    DynamicsConfig,
    MatchProblem,
    Trajectory,
    integrate_adjoint_backward,
    integrate_forward,
    reduced_hamiltonian,
)
from .fem import (
    FunctionalMetric,
    assemble_metric,
    lumped_vertex_weights,
    metric_form_grad_x,
)
from .fshape import (
    AdjointState,
    CellGeometry,
    DiscreteFshape,
    ShootingDiverged,
    ShootingState,
    cell_geometry,
    validate_fshape,
)
from .kernels import (
    GrassmannKernelSpec,
    RadialKernelSpec,
    kernel_conv,
    quad_form,
    quad_form_grad_x,
    radial_eval,
)
from .matching import (
    MatchConfig,
    MatchResult,
    ScaleStage,
    digits_preset,
    match,
    objective,
    shoot,
)
from .sphere import SphereState, chi, chi_prime, integrate_sphere, sphere_vertex_momenta
from .varifold import (
    DiscreteVarifold,
    VarifoldKernels,
    fidelity,
    grad_fidelity,
    to_varifold,
    varifold_inner,
)

__version__ = "0.1.0"

__all__ = [
    "AdjointState",
    "CellGeometry",
    "DiscreteFshape",
    "DiscreteVarifold",
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
    "assemble_metric",
    "cell_geometry",
    "chi",
    "chi_prime",
    "digits_preset",
    "fidelity",
    "grad_fidelity",
    "integrate_adjoint_backward",
    "integrate_forward",
    "integrate_sphere",
    "kernel_conv",
    "lumped_vertex_weights",
    "match",
    "metric_form_grad_x",
    "objective",
    "quad_form",
    "quad_form_grad_x",
    "radial_eval",
    "reduced_hamiltonian",
    "shoot",
    "sphere_vertex_momenta",
    "to_varifold",
    "validate_fshape",
    "varifold_inner",
]
