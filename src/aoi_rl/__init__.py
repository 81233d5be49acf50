"""Scheduling of RF-powered status updates to keep information fresh.

Exact average-cost MDP solvers, tabular and deep Q-learning agents, and
mechanical verification of the threshold structure of optimal policies.
"""

__version__ = "0.1.0"
