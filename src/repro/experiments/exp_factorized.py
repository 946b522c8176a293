"""E21 — factorized d-representations and the free-connex dichotomy.

Berkholz's dichotomy (PAPERS.md), both sides, measured:

* **easy side** — on a high-output free-connex family (the hub star:
  two relations fanning out of one center value) the factorized result
  has O(N) nodes while the flat answer is Θ(N²), the answer count is
  read off without enumeration, and the measured enumeration delay
  (``measure_delays``, setup and exhaustion included) is flat in N;
* **hard side** — the BMM star projection π_{l0,l1}(R1 ⋈ R2) is
  α-acyclic but not free-connex, so the router must not take its
  ``factorized`` route (it joins along the join tree and projects, the
  ``yannakakis`` route) while still returning the exact answers.

All inputs are constructed literally (no RNG), so the record is
deterministic and baseline-safe. Findings include the fitted exponents
of factorized size vs flat size — the gap the "factorized-size" lower
bound says is best possible.
"""

from __future__ import annotations

from ..observability.context import RunContext
from ..relational.database import Database
from ..relational.enumeration import measure_delays
from ..relational.factorized import factorize, is_free_connex
from ..relational.query import JoinQuery
from ..relational.relation import Relation
from ..relational.router import execute_route
from .harness import ExperimentResult, fit_exponent


def hub_star_database(n: int) -> Database:
    """A star(2) instance with one hub: |R1| = |R2| = n, Θ(n²) answers.

    Every tuple shares the center value 0, so the flat answer is the
    full n×n grid over (l0, l1) — the worst case for materialization
    and the best case for factorization.
    """
    return Database(
        [
            Relation("R1", ("x", "y"), [(0, i) for i in range(n)]),
            Relation("R2", ("x", "y"), [(0, j) for j in range(n)]),
        ]
    )


def run(
    sizes: tuple[int, ...] = (16, 32, 64, 128),
    context: RunContext | None = None,
) -> ExperimentResult:
    """Sweep d-rep size, count, and delay on the hub family; check the router."""
    ctx = RunContext.ensure(context, "E21-factorized")
    query = JoinQuery.star(2)
    result = ExperimentResult(
        experiment_id="E21-factorized",
        claim="free-connex acyclic queries factorize into linear-size "
        "d-representations with constant-delay enumeration and "
        "enumeration-free counting; non-free-connex projections fall "
        "back to flat materialization",
        columns=(
            "N",
            "flat_answers",
            "drep_nodes",
            "drep_edges",
            "count_ok",
            "build_ops",
            "max_delay",
            "fallback_route",
            "fallback_ok",
        ),
    )
    ns, nodes, flats, delays = [], [], [], []
    for n in sizes:
        database = hub_star_database(n)
        counter = ctx.new_counter()
        with ctx.span("E21/factorize", N=n):
            factorized = factorize(query, database, counter=counter)
        build_ops = counter.total
        with ctx.span("E21/enumerate", N=n):
            profile = measure_delays(factorized.enumerate(counter), counter)
        count = factorized.count()

        # Hard side: project the same star to its leaves — α-acyclic
        # but not free-connex (the BMM query), so the router must
        # materialize flat; the answer is the full leaf grid.
        with ctx.span("E21/fallback", N=n):
            fallback = execute_route(query, database, free=("l0", "l1"))
        expected_pairs = n * n
        fallback_ok = (
            not is_free_connex(query, ("l0", "l1"))
            and fallback.decision.route != "factorized"
            and len(fallback.relation) == expected_pairs
        )

        ns.append(n)
        nodes.append(factorized.num_nodes)
        flats.append(count)
        delays.append(max(profile.max_delay, 1))
        result.add_row(
            N=n,
            flat_answers=count,
            drep_nodes=factorized.num_nodes,
            drep_edges=factorized.num_edges,
            count_ok=count == profile.answers == expected_pairs,
            build_ops=build_ops,
            max_delay=profile.max_delay,
            fallback_route=fallback.decision.route,
            fallback_ok=fallback_ok,
        )

    result.findings["drep_size_exponent"] = fit_exponent(ns, nodes)
    result.findings["flat_size_exponent"] = fit_exponent(ns, flats)
    result.findings["delay_exponent"] = fit_exponent(ns, delays)
    result.findings["delay_flat"] = len(set(delays)) == 1
    result.findings["all_counts_ok"] = all(r["count_ok"] for r in result.rows)
    result.findings["all_fallbacks_ok"] = all(r["fallback_ok"] for r in result.rows)
    result.findings["verdict"] = (
        "PASS"
        if result.findings["drep_size_exponent"] < 1.3
        and result.findings["flat_size_exponent"] > 1.7
        and result.findings["delay_exponent"] < 0.1
        and result.findings["all_counts_ok"]
        and result.findings["all_fallbacks_ok"]
        else "FAIL"
    )
    return result
