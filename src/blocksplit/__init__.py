"""Stochastic blockwise splitting with certified regularity.

Forward-backward and Douglas-Rachford maps act on a random subset of
coordinate blocks per iteration; the induced Markov chain is simulated
as a particle ensemble and its distributional convergence is measured
in a probability-weighted Wasserstein-2 distance.  Regularity
(averagedness up to a violation), paracontraction in expectation, and
error-bound gauges are certified empirically on sampled regions.

Every public name is imported from its submodule on first access
(PEP 562), so ``import blocksplit`` loads no submodule and each command
loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "blockspace": (
        "BlockLayout", "BlockProbabilities", "block_probabilities", "weighted_norm", "weighted_sq",
    ),
    "config": ("BlockSubsetScheme", "ExperimentConfig", "Region", "load_config", "parse_config"),
    "errors": (
        "BlocksplitError", "ConfigError", "CostOverflow", "DegenerateSequence", "DimensionMismatch",
        "Diverged", "EmptyResolvent", "InadmissibleGauge", "InvalidFixedPoints", "NotPSD",
        "SolverFailure", "UncoveredBlock", "UnsupportedSet",
    ),
    "markov": (
        "Ensemble", "RunResult", "chain_rng", "init_ensemble", "point_sampler", "run", "sbi_step",
        "uniform_box_sampler", "write_snapshot",
    ),
    "operators": (
        "BlockFunction", "SeparableTerm", "SmoothCoupling", "StepBounds",
        "coupling_diagonal_indicator", "coupling_diagonal_sqdist", "coupling_quadratic",
        "gd_step_bound", "gd_violation_bound", "h_indicator_ball", "h_indicator_box",
        "h_indicator_point", "h_l1", "h_quadratic", "h_zero", "resolvent_partial_smooth",
        "resolvent_separable",
    ),
    "problems": (
        "ConvexSet", "ProblemSpec", "counterexample2d",
        "deterministic_reference", "feasibility", "make_set", "quadratic_l1",
    ),
    "rates": (
        "RateReport", "check_asymptotic_regularity", "check_fejer",
        "check_gauge_monotone", "fit_linear_rate", "read_trajectory_csv", "theta_linear",
        "write_trajectory_csv",
    ),
    "regularity": (
        "CertificationReport", "certify_aafne_in_expectation",
        "certify_paracontraction_in_expectation", "certify_pointwise_aafne",
        "verify_expectation_identities",
    ),
    "splitting": (
        "RegularityConstants", "SplittingMap", "apply_T", "apply_full", "composite_constants",
        "expectation_constants", "expected_weighted_terms", "transport_discrepancy",
    ),
    "transport": (
        "CouplingPlan", "DiscreteMeasure", "distance_to_point_mass", "read_measure",
        "wasserstein2_weighted", "write_measure",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
