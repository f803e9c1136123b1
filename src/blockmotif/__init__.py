"""Pattern counts in block multigraph models.

Random multigraphs whose vertices carry latent classes and whose pair and
self-loop counts follow class-dependent laws.  This package analyzes fixed
patterns (balancedness exponents), counts their copies in observed graphs,
computes exact compound-Poisson approximation parameters for the total
count, evaluates closed-form total-variation error bounds, and validates
everything by exact enumeration or Monte Carlo simulation.
"""

from .approximation import (
    BOUND_VARIANTS,
    BoundReport,
    CompoundPoissonParams,
    InfeasibleError,
    PreconditionError,
    c_lambda_upper,
    cp_pmf,
    expected_count,
    lambda_params,
    occurrence_mean,
    poisson_c_factor,
    tv_bound,
)
from .counting import clump_size, count_copies, count_copies_bruteforce
from .distributions import (
    Categorical,
    Geometric,
    Poisson,
    binomial_moment,
    law_from_json,
    law_to_json,
    moment,
    pmf_tail,
    truncation_bound,
)
from .experiments import (
    exact_count_pmf,
    monte_carlo_pmf,
    parse_experiment_config,
    run_experiment,
    tv_distance,
)
from .model import (
    ModelExtrema,
    ObservedMultigraph,
    SbmmSpec,
    graph_from_text,
    graph_to_text,
    model_extrema,
    sample_graph,
    spec_from_json,
    spec_to_json,
)
from .serialize import dumps_stable, format_float, pmf_to_csv
from .patterns import (
    BalancednessProfile,
    PatternGraph,
    automorphism_count,
    balancedness_profile,
    kappa,
    load_pattern,
    pattern_from_json,
    pattern_from_name,
    pattern_to_json,
    placements,
    rho,
)

__version__ = "0.1.0"

__all__ = [
    "BOUND_VARIANTS",
    "BalancednessProfile",
    "BoundReport",
    "Categorical",
    "CompoundPoissonParams",
    "Geometric",
    "InfeasibleError",
    "ModelExtrema",
    "ObservedMultigraph",
    "PatternGraph",
    "Poisson",
    "PreconditionError",
    "SbmmSpec",
    "automorphism_count",
    "balancedness_profile",
    "binomial_moment",
    "c_lambda_upper",
    "clump_size",
    "count_copies",
    "count_copies_bruteforce",
    "cp_pmf",
    "exact_count_pmf",
    "dumps_stable",
    "expected_count",
    "format_float",
    "graph_from_text",
    "graph_to_text",
    "kappa",
    "lambda_params",
    "law_from_json",
    "law_to_json",
    "load_pattern",
    "model_extrema",
    "moment",
    "monte_carlo_pmf",
    "occurrence_mean",
    "parse_experiment_config",
    "pattern_from_json",
    "pattern_from_name",
    "pattern_to_json",
    "placements",
    "pmf_tail",
    "pmf_to_csv",
    "poisson_c_factor",
    "rho",
    "run_experiment",
    "sample_graph",
    "spec_from_json",
    "spec_to_json",
    "truncation_bound",
    "tv_bound",
    "tv_distance",
]
