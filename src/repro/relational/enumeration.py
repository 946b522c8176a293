"""Answer enumeration with bounded delay (§8 context: [13], [16]).

The paper's §8 cites constant-delay enumeration lower bounds (the
d-uniform hyperclique conjecture rules out constant-delay algorithms
for some queries). This module implements the positive side for
α-acyclic queries — Bagan–Durand–Grandjean-style enumeration:

* :func:`enumerate_acyclic` — linear-time preprocessing (a factorized
  representation built over Yannakakis' reducer) after which every
  partial assignment extends to an answer, so the walk is
  backtrack-free and the delay between consecutive answers is
  O(query size), independent of the data;
* :func:`enumerate_nested_loop` — the naive baseline whose dead ends
  make the worst-case delay grow with the data;
* :func:`measure_delays` — a :class:`DelayProfile` of operation-count
  gaps: setup before the first answer, gaps between consecutive
  answers, and exhaustion after the last, the quantities the lower
  bounds constrain.

Both enumerators yield answer tuples in the query's attribute order;
``enumerate_acyclic`` additionally accepts a ``free`` projection, which
is legal exactly for *free-connex* acyclic queries (the Bagan–Durand–
Grandjean dichotomy). Full and projected answers alike are served from
a factorized representation (:mod:`~repro.relational.factorized`);
non-free-connex projections raise :class:`~repro.errors.SchemaError`
so callers fall back explicitly — silently enumerating them used to
risk duplicate answers and data-dependent delay.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from ..counting import CostCounter, charge
from .database import Database
from .factorized import factorize
from .query import JoinQuery
from .relation import Value


def enumerate_nested_loop(
    query: JoinQuery, database: Database, counter: CostCounter | None = None
) -> Iterator[tuple[Value, ...]]:
    """Naive enumeration: extend atom by atom, scanning each relation.

    Dead ends (partial joins with no completion) are re-explored per
    prefix, so the delay between answers can be Θ(data) even for
    acyclic queries — the behaviour preprocessing eliminates.

    Complexity: O(Π_i |R_i|) total work with unbounded delay between
        answers — the baseline the enumeration lower bounds are
        measured against.
    """
    query.validate_against(database)
    relations = [query.bound_relation(atom, database) for atom in query.atoms]
    assignment: dict[str, Value] = {}

    def extend(idx: int) -> Iterator[tuple[Value, ...]]:
        if idx == len(relations):
            yield tuple(assignment[a] for a in query.attributes)
            return
        relation = relations[idx]
        for t in relation.tuples:
            charge(counter)
            if relation.matches(t, assignment):
                added = []
                for attr, val in zip(relation.attributes, t):
                    if attr not in assignment:
                        assignment[attr] = val
                        added.append(attr)
                yield from extend(idx + 1)
                for attr in added:
                    del assignment[attr]

    yield from extend(0)


def enumerate_acyclic(
    query: JoinQuery,
    database: Database,
    counter: CostCounter | None = None,
    free: Sequence[str] | None = None,
) -> Iterator[tuple[Value, ...]]:
    """Backtrack-free enumeration for α-acyclic queries.

    Served from a factorized representation
    (:func:`~repro.relational.factorized.factorize`). Its preprocessing
    — a semijoin-reduced Yannakakis pass and the bucketing of the
    reduced projections — is not counted toward delay in the
    lower-bound sense, but is charged to ``counter`` like everything
    else. After it, every bucket extends to at least one answer, so
    the walk never retreats: the operation-count gap between
    consecutive yields is O(query size), independent of N.

    Parameters
    ----------
    free:
        Optional projection attributes. Legal exactly when the query
        with these free variables is free-connex acyclic; the answers
        come with the same constant-delay guarantee.

    Raises
    ------
    SchemaError
        If the query is not α-acyclic, or ``free`` is a projection the
        free-connex dichotomy rules out (callers should fall back to
        materialization, e.g. via
        :func:`~repro.relational.router.execute_route`).

    Complexity: O(‖D‖ · |A|) preprocessing (Yannakakis semi-joins and
        the bucketing of the reduced projections), then O(|Q|) delay
        per answer, independent of the answer count.
    """
    yield from factorize(query, database, free=free, counter=counter).enumerate(
        counter
    )


@dataclass(frozen=True)
class DelayProfile:
    """Operation-count profile of one fully-drained enumeration run.

    Attributes
    ----------
    setup:
        Ops charged before the first answer appeared (preprocessing —
        reported separately so a "constant delay" claim cannot hide
        linear work inside the first gap).
    gaps:
        Ops between consecutive answers, one entry per answer after
        the first.
    exhaustion:
        Ops charged after the last answer before the iterator stopped
        (a lazy tail cannot hide there either).
    answers:
        Number of answers drained.
    """

    setup: int
    gaps: tuple[int, ...]
    exhaustion: int
    answers: int

    @property
    def max_delay(self) -> int:
        """Worst inter-answer gap, exhaustion included, setup excluded.

        Zero when nothing was enumerated: with no answers there is no
        inter-answer delay to bound, and all work counts as setup.
        """
        if not self.answers:
            return 0
        return max(self.gaps + (self.exhaustion,))


def measure_delays(answers: Iterator, counter: CostCounter) -> DelayProfile:
    """Drain an enumerator, profiling the operation-count gaps.

    Counts ops between consecutive yields *including* the setup spent
    before the first answer and the exhaustion spent after the last —
    the accounting the §8 lower bounds constrain. (The old version
    recorded only the pre-yield gaps, so work performed after the final
    answer was invisible.)
    """
    start = counter.total
    setup = 0
    gaps: list[int] = []
    count = 0
    last = start
    for __ in answers:
        if count == 0:
            setup = counter.total - start
        else:
            gaps.append(counter.total - last)
        count += 1
        last = counter.total
    if count == 0:
        setup = counter.total - start
        exhaustion = 0
    else:
        exhaustion = counter.total - last
    return DelayProfile(
        setup=setup, gaps=tuple(gaps), exhaustion=exhaustion, answers=count
    )

