"""Scheduling of RF-powered status updates to keep information fresh.

Exact average-cost MDP solvers, tabular and deep Q-learning agents, and
mechanical verification of the threshold structure of optimal policies.
"""

__version__ = "0.1.0"

from .channel import FadingQuantizer, LinkParams, build_quantizer, sample_level
from .env import (
    HARVEST,
    SimulationResult,
    SourceSpec,
    State,
    SystemConfig,
    config_from_dict,
    draw_levels,
    feasible_actions,
    harvested_quanta,
    initial_state,
    load_config,
    simulate_policy,
    stage_cost,
    step,
    transmit_quanta,
)
from .mdp import (
    PolicyTable,
    StateIndexer,
    TransitionKernel,
    ValueTable,
    brute_force_oracle,
    build_kernel,
    enumerate_states,
    evaluate_policy,
    solve_rvia,
)
from .tabular import LearningSchedule, QTable, epsilon_greedy, q_update, train_tabular
from .dqn import DqnHyperparams, QNetwork, ReplayMemory, encode_state, greedy_policy_fn, train_dqn
from .structure import (
    check_threshold_aoi,
    check_threshold_single_source,
    check_value_monotone_age,
    diff_policies,
)
