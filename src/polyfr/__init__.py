"""Steady hyperbolic conservation laws on 2D polygonal meshes.

Flux-reconstruction residuals in residual-distribution form, admissible and
entropy-conservative correction fields, and executable verification of the
conservation and entropy identities the discretization is built on.
"""

from .approximation import polygon_moment
from .correction import (
    CorrectionError,
    CorrectionField,
    NeumannCorrectionBackend,
    RTBasis,
    RTCorrectionBackend,
)
from .discretization import BoundaryData, Discretization
from .dofgraph import DofGraph, build_dof_graph, element_dof_graph
from .entropy import (
    appendix_decomposition,
    cs_residuals,
    entropy_conservative_residuals,
    entropy_error,
    error_decomposition,
    fr_entropy_condition_check,
    st_residuals,
)
from .mesh import (
    Mesh,
    MeshError,
    load_mesh,
    mesh_from_arrays,
    mesh_from_dict,
    refine_uniform,
    regular_polygon_mesh,
    save_mesh,
    structured_quads,
    structured_triangles,
    two_triangle_square,
)
from .physics import (
    ConservationLaw,
    burgers_2d,
    central_flux,
    entropy_numerical_flux,
    exp_advection,
    law_by_name,
    linear_advection,
    rusanov_flux,
    tadmor_ec_flux,
    tadmor_edge_check,
)
from .residual import (
    ResidualSet,
    assemble_global,
    compute_residuals,
    correction_defects,
    element_conservation_defects,
    flux_split,
    global_identity_check,
    lipschitz_hypothesis_probe,
)
from .solver import (
    SolveTrace,
    SolverConfig,
    SolverDiverged,
    manufactured_error,
    solve_steady,
)

__version__ = "0.1.0"
