"""Threshold-rule hiring models: exact solvers, asymptotic limits, simulation.

Two variants of the sequential hiring problem:

* a re-arrival model where each candidate returns for one extra interview
  with probability p (``reappearance``), and
* a relaxed objective where hiring any of the three best candidates counts
  as success under the classical threshold rule (``top3``).

``asymptotics`` provides the large-n limit curves and optimal thresholds,
``simulator`` a reproducible Monte Carlo engine for the physical arrival
process, and ``oracle`` exact enumeration ground truth on tiny instances.
"""

from .asymptotics import (
    LimitCurve,
    RootResult,
    integrate_limit_system,
    optimal_x_reappearance,
    optimal_x_top3,
    top3_limit,
    top3_limit_derivative,
)
from .oracle import ExactResult, exact_reappearance, exact_top3
from .reappearance import (
    DpTables,
    OptimalPolicy,
    ProblemSpec,
    build_tables,
    optimal_policy,
    success_probability,
)
from .simulator import (
    ArrivalEvent,
    ArrivalSequence,
    SimulationReport,
    TrialOutcome,
    estimate,
    generate_sequence,
    run_policy_reappearance,
    run_policy_top3,
    trial_stream,
)
from .top3 import Top3Table, optimal_policy_top3, top3_table

__version__ = "0.1.0"

__all__ = [
    "ArrivalEvent",
    "ArrivalSequence",
    "DpTables",
    "ExactResult",
    "LimitCurve",
    "OptimalPolicy",
    "ProblemSpec",
    "RootResult",
    "SimulationReport",
    "Top3Table",
    "TrialOutcome",
    "build_tables",
    "estimate",
    "exact_reappearance",
    "exact_top3",
    "generate_sequence",
    "integrate_limit_system",
    "optimal_policy",
    "optimal_policy_top3",
    "optimal_x_reappearance",
    "optimal_x_top3",
    "run_policy_reappearance",
    "run_policy_top3",
    "success_probability",
    "top3_limit",
    "top3_limit_derivative",
    "top3_table",
    "trial_stream",
    "__version__",
]
