"""The database-theory domain (§2.1, §3).

Join queries over relational databases, with three evaluation engines
whose contrast is the content of Theorems 3.1–3.3:

* pairwise hash-join plans (classical, can pay super-AGM intermediate
  results);
* Yannakakis' semijoin algorithm for α-acyclic queries;
* worst-case optimal Generic Join, running in O(N^ρ*) (Theorem 3.3).

Plus the AGM size bound calculator (Theorem 3.1).
"""

from .relation import Relation
from .database import Database
from .query import Atom, JoinQuery
from .algebra import project, select_equal, semijoin
from .enumeration import (
    DelayProfile,
    enumerate_acyclic,
    enumerate_nested_loop,
    measure_delays,
)
from .factorized import FactorizedResult, factorize, is_free_connex
from .joins import JoinPlanResult, evaluate_left_deep, hash_join
from .minimize import canonical_structure, minimize_query
from .kernels import BACKENDS, KernelState
from .planner import plan_by_agm, prefix_bounds, wcoj_attribute_order
from .semiring import (
    BOOLEAN,
    COUNTING,
    MIN_PLUS,
    PROVENANCE,
    Semiring,
    all_semirings,
    get_semiring,
)
from .yannakakis import semiring_yannakakis, yannakakis
from .wcoj import generic_join, generic_join_aggregate
from .estimate import agm_bound, agm_bound_uniform

__all__ = [
    "Atom",
    "BACKENDS",
    "BOOLEAN",
    "COUNTING",
    "Database",
    "KernelState",
    "DelayProfile",
    "FactorizedResult",
    "JoinPlanResult",
    "JoinQuery",
    "MIN_PLUS",
    "PROVENANCE",
    "Relation",
    "Semiring",
    "agm_bound",
    "agm_bound_uniform",
    "all_semirings",
    "canonical_structure",
    "enumerate_acyclic",
    "enumerate_nested_loop",
    "evaluate_left_deep",
    "factorize",
    "generic_join",
    "generic_join_aggregate",
    "get_semiring",
    "hash_join",
    "is_free_connex",
    "measure_delays",
    "minimize_query",
    "plan_by_agm",
    "prefix_bounds",
    "project",
    "select_equal",
    "semijoin",
    "semiring_yannakakis",
    "wcoj_attribute_order",
    "yannakakis",
]
