"""Element kernels, assembly, constraints, and linear solvers."""

from .assembly import (
    assemble_body_force,
    assemble_clamped_stiffness,
    assemble_divergence_coupling,
    assemble_elastic_stiffness,
    assemble_scalar_diffusion,
    assemble_scalar_mass,
    assemble_scalar_source,
    lumped_weights,
    vector_dofs,
)
from .constraints import Reducer
from .solvers import Kron, pcg, solve_saddle

__all__ = [
    "assemble_body_force",
    "assemble_clamped_stiffness",
    "assemble_divergence_coupling",
    "assemble_elastic_stiffness",
    "assemble_scalar_diffusion",
    "assemble_scalar_mass",
    "assemble_scalar_source",
    "lumped_weights",
    "vector_dofs",
    "Reducer",
    "Kron",
    "pcg",
    "solve_saddle",
]
