"""The package's public surface and its module layering."""

import ast
import inspect
import pathlib

import beckner_lab as bl

# the names ``import beckner_lab`` exports, sorted; adding or removing one
# is a deliberate change of the public surface
EXPORTED = [
    "BecknerLabError", "BochnerStructure", "CapabilityError", "ConfigError",
    "ConstantEstimate", "ConvexEntropy", "DecayReport",
    "DegeneracyError", "Density", "DomainError", "FVExperiment",
    "FiniteChain", "HypothesisError", "ModelSpec",
    "NumericalError", "OptimizerOptions", "PaperConstant", "RefinementTable",
    "ReversibilityError", "SizeError", "Trajectory", "big_theta",
    "big_theta_lower_bound", "bochner_identity_check",
    "build_bernoulli_laplace", "build_birth_death", "build_fokker_planck_fv",
    "build_model", "build_random_transposition", "build_zero_range",
    "chain_from_json", "chain_to_json", "constants_report",
    "derivative_identity_check", "dirichlet_decay_check", "dirichlet_form",
    "entropy", "evolve", "evolve_rk4", "fit_decay_rate",
    "fv_condition_check", "identity_3id_check", "lambda_h",
    "linear_rate_table", "log_entropy", "mesh_refinement_study",
    "mm_infinity_rates", "normalize_density", "paper_lambda",
    "potential_from_config", "power_entropy", "proposition_sides",
    "r_function", "random_density", "run_decay", "run_fv_experiment",
    "spectral_gap", "theta_surface", "verify_assumption",
    "verify_concavity", "verify_theta_identities",
]


def exported_names():
    """Public names of the package, submodules left out."""
    return sorted(name for name, value in vars(bl).items()
                  if not name.startswith("_") and not inspect.ismodule(value))


def test_exported_names_are_pinned():
    assert exported_names() == EXPORTED


def package_imports(module: str) -> set[str]:
    """The package modules that ``module`` imports, at any depth of its
    source, read with ``ast``."""
    path = pathlib.Path(bl.__file__).parent / f"{module}.py"
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_the_chain_functionals_need_no_bochner_module():
    for module in ("dynamics", "fokker_planck", "chain", "models"):
        assert "bochner" not in package_imports(module), module
    assert "models" not in package_imports("bochner")
    assert package_imports("bochner") == {"chain", "entropy", "errors",
                                          "reporting"}
