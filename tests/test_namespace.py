"""The public names of ``polyfr``, pinned: adding or removing an export is a
deliberate change of this list."""

import inspect

import polyfr

EXPORTS = {
    # mesh
    "Mesh", "MeshError", "load_mesh", "mesh_from_arrays", "mesh_from_dict", "refine_uniform",
    "regular_polygon_mesh", "save_mesh", "structured_quads", "structured_triangles",
    "two_triangle_square",
    # approximation
    "polygon_moment",
    # physics
    "ConservationLaw", "burgers_2d", "central_flux", "entropy_numerical_flux", "exp_advection",
    "law_by_name", "linear_advection", "rusanov_flux", "tadmor_ec_flux", "tadmor_edge_check",
    # correction
    "CorrectionError", "CorrectionField", "NeumannCorrectionBackend", "RTBasis",
    "RTCorrectionBackend",
    # discretization and DOF graphs
    "BoundaryData", "Discretization", "DofGraph", "build_dof_graph", "element_dof_graph",
    # residuals
    "ResidualSet", "assemble_global", "compute_residuals", "correction_defects",
    "element_conservation_defects", "flux_split", "global_identity_check",
    "lipschitz_hypothesis_probe",
    # entropy
    "appendix_decomposition", "cs_residuals", "entropy_conservative_residuals", "entropy_error",
    "error_decomposition", "fr_entropy_condition_check", "st_residuals",
    # solver
    "SolveTrace", "SolverConfig", "SolverDiverged", "manufactured_error", "solve_steady",
}


def test_public_namespace_is_pinned():
    names = {name for name, obj in vars(polyfr).items()
             if not name.startswith("_") and not inspect.ismodule(obj)}
    assert names - EXPORTS == set(), "new exports"
    assert EXPORTS - names == set(), "removed exports"
    assert polyfr.__version__ == "0.1.0"
