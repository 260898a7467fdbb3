"""Numerical laboratory for entropy decay of finite reversible chains.

Builds the classical stochastic particle models in move/rate form,
verifies the discrete summation-by-parts identities behind the
curvature method at machine precision, measures entropy-decay rates
against explicit constants, and brackets the sharp inequality constants
variationally.
"""

from .bochner import (BochnerStructure, bochner_identity_check,
                      identity_3id_check, proposition_sides, r_function,
                      verify_assumption)
from .chain import (Density, FiniteChain, chain_from_json, chain_to_json,
                    dirichlet_form, entropy, normalize_density,
                    random_density)
from .constants import (ConstantEstimate, OptimizerOptions, constants_report,
                        spectral_gap)
from .dynamics import (DecayReport, Trajectory, derivative_identity_check,
                       dirichlet_decay_check, evolve, evolve_rk4,
                       fit_decay_rate, run_decay)
from .entropy import (ConvexEntropy, big_theta, big_theta_lower_bound,
                      log_entropy, power_entropy, theta_surface,
                      verify_concavity, verify_theta_identities)
from .errors import (BecknerLabError, CapabilityError, ConfigError,
                     DegeneracyError, DomainError, HypothesisError,
                     NumericalError, ReversibilityError, SizeError)
from .fokker_planck import (FVExperiment, RefinementTable, fv_condition_check,
                            mesh_refinement_study, run_fv_experiment)
from .models import (ModelSpec, PaperConstant, build_bernoulli_laplace,
                     build_birth_death, build_fokker_planck_fv, build_model,
                     build_random_transposition, build_zero_range,
                     lambda_h, linear_rate_table, mm_infinity_rates,
                     paper_lambda, potential_from_config)

__version__ = "0.1.0"
