"""Potential-heuristic linear programs for SAS+ planning tasks, with oracle
validators, cost-partitioning LPs, bucket elimination, and an A* search."""

from .task import (Task, Variable, Operator, TransitionSystem, State,
                   parse_sas, serialize_sas, successor, SuccessorGenerator,
                   build_transition_system, exact_goal_distances)
from .tnf import is_tnf, to_tnf
from .features import FeatureSet, generate_features, evaluate_potential
from .lp import LinearExpression, LpModel, LpSolution, solve, export_lp
from .direct2d import (build_general_lp, build_direct2d_lp, build_exhaustive_lp,
                       solve_for_state)
from .costpart import Projection, project, build_tcp_lp, build_ocp_lp, all_patterns
from .reduction import Graph, reduce_3col, is_3colorable
from .search import astar, validate, PotentialHeuristic, SearchResult, ValidationReport

__version__ = "0.1.0"
