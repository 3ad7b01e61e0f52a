"""Equilibrium engine for a game of two local public goods on an endogenous
directed network: players with heterogeneous tastes contribute to two goods
and sponsor costly links to free ride on others' provision."""

from .benefits import BenefitSpec
from .best_response import (
    ADD,
    DELETE,
    BestResponse,
    Deviation,
    best_response,
    find_profitable_deviation,
    gains_from_link,
    optimal_contributions,
)
from .equilibrium import (
    COLLABORATIVE,
    EMPTY,
    INDEPENDENT,
    NON_EQUILIBRIUM,
    PARTIALLY_COLLABORATIVE,
    STRUCTURE_VIOLATION,
    DynamicsConfig,
    EquilibriumReport,
    NonConvergenceError,
    best_response_dynamics,
    brute_force_equilibria,
    classify,
    construct_collaborative,
    construct_independent,
    construct_partially_collaborative,
    contribution_fixed_point,
    k_tilde,
    verify_nash,
    welfare_max_equilibria,
    welfare_max_equilibrium,
)
from .extensions import (
    PerturbationParams,
    WeightedProfile,
    best_response_weighted,
    brute_force_two_way,
    equilibrium_weighted,
    perturbation_robustness,
    perturbed_contributions,
    utility_perturbed,
    utility_two_way,
    utility_weighted,
    weighted_recipients,
)
from .metrics import MetricsRecord, contributor_count, metrics_record, polarization, welfare
from .model import (
    EPS_DEV,
    EPS_NUM,
    UNIFORM,
    GameParams,
    IsolationDemand,
    StrategyProfile,
    TruncNormal,
    isolation_demand,
    sample_types,
    spillovers,
    utility,
)
from .subsidy import SubsidyPlan, budget_spent, planner, subsidized_isolation_demand
from .sweep import (
    FoldedOrder,
    RegimeEvent,
    SweepRecord,
    detect_regime_changes,
    folded_fosd,
    law_of_few_scan,
    sweep_k,
)

__all__ = [name for name in dir() if not name.startswith("_")]
