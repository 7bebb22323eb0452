"""Optimal assignment and motion control for two-class swarms on a line.

The library represents swarm states as normalized 1D densities, converts
their transport dynamics to quantile coordinates (where the 2-Wasserstein
tracking objective becomes a plain L2 objective and the dynamics become
additive), solves the resulting decoupled scalar linear-quadratic tracking
problems in closed form, and reassembles the optimal spatial velocity
field.  Brute-force oracles verify the distance and optimality computations
at desk scale.
"""

from . import lq, oracle
from .assignment import (AssignmentPlan, check_marginals, optimal_plan,
                         plan_cost, plan_from_couplings)
from .errors import ConfigError, NumericalError
from .lq import LQParams, ScalarLQSolution, feedforward, riccati, solve_family, \
    solve_scalar, transition_r, transition_y
from .measures import (CDFFunction, Density, QuantileFunction, cdf_from_quantile,
                       cdf_of, density_from_quantile, l2_quantile_distance,
                       pushforward, quantile_of, wasserstein2)
from .partition import (LevelSetPartition, average_wrt_partition,
                        averaged_density, build_partition, limit_constant_K)
from .regimes import (CostBreakdown, DemandSignal, OptimalControlSolution,
                      PeriodicDemand, SampledDemand, Scenario, StaticDemand,
                      evaluate_cost, gaussian_mixture_demand, solve_general,
                      solve_periodic, solve_static)
from .transport import (CallableQuantileVelocity, CallableVelocity, DensityPath,
                        FlowMap, GridQuantileVelocity, GridVelocity, QuantilePath,
                        QuantileVelocity, VelocityField, advect_density,
                        evolve_quantile, flow_map, from_quantile_coords,
                        to_quantile_coords)

__all__ = [
    "Density", "CDFFunction", "QuantileFunction",
    "cdf_of", "quantile_of", "cdf_from_quantile", "density_from_quantile",
    "pushforward", "wasserstein2", "l2_quantile_distance",
    "VelocityField", "CallableVelocity", "GridVelocity",
    "QuantileVelocity", "CallableQuantileVelocity", "GridQuantileVelocity",
    "FlowMap", "DensityPath", "QuantilePath",
    "advect_density", "flow_map", "evolve_quantile",
    "to_quantile_coords", "from_quantile_coords",
    "LevelSetPartition", "build_partition", "average_wrt_partition",
    "averaged_density", "limit_constant_K",
    "LQParams", "ScalarLQSolution", "riccati", "transition_r", "transition_y",
    "feedforward", "solve_scalar", "solve_family",
    "DemandSignal", "StaticDemand", "PeriodicDemand", "SampledDemand",
    "gaussian_mixture_demand", "Scenario", "OptimalControlSolution",
    "CostBreakdown", "solve_general", "solve_static", "solve_periodic",
    "evaluate_cost",
    "AssignmentPlan", "optimal_plan", "plan_cost", "plan_from_couplings",
    "check_marginals",
    "NumericalError", "ConfigError",
    "lq", "oracle",
]

__version__ = "0.1.0"
