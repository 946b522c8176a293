"""Variable elimination: SumProd along an elimination order (§4).

Marx §4's dynamic programming over a tree decomposition (Freuder,
Theorem 4.2) in its sum-product form — Fan–Koutris's SumProd and the
FAQ evaluation of Ngo's survey (PAPERS.md). Each attribute of the
order is eliminated in turn: every factor that contains it — the atoms
with their tuple annotations, and the results of earlier steps — is
joined, and the attribute is ⊕-summed out of the join. The join built
when eliminating ``x`` lives on ``x``'s bag, ``x`` and its later
neighbours in the fill-in graph, so the pass pays for the order's
width rather than for the number of answers, which whole-query
Generic Join visits one by one.

Both backends run the same steps in the same order, with identical
charges for every semiring: one unit per right row (build), per left
row (probe) and per matching pair of each join — the stream of
:func:`~repro.relational.joins.hash_join` and
:func:`~repro.relational.kernels.join_gather` — and one per row summed
out. The naive backend keeps factors as dicts from value tuples to
semiring values; the columnar backend as interned code rows from the
cached tables plus a parallel value array, joined with
:func:`~repro.relational.kernels.join_gather` and summed with
:func:`~repro.relational.kernels.segment_fold`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..counting import CostCounter, charge
from ..errors import SchemaError
from . import kernels
from .database import Database
from .query import JoinQuery
from .semiring import Semiring


class _DictFactor:
    """The naive backend's factor: value tuples over ``attributes``
    mapped to semiring values."""

    __slots__ = ("attributes", "table")

    def __init__(self, attributes: tuple[str, ...], table: dict) -> None:
        self.attributes = attributes
        self.table = table

    def __len__(self) -> int:
        return len(self.table)

    def join(self, other: _DictFactor, semiring: Semiring, counter) -> _DictFactor:
        shared = [a for a in self.attributes if a in other.attributes]
        extra = [i for i, a in enumerate(other.attributes) if a not in self.attributes]
        lpos = [self.attributes.index(a) for a in shared]
        rpos = [other.attributes.index(a) for a in shared]
        charge(counter, len(other.table))
        index: dict[tuple, list] = {}
        for t, v in other.table.items():
            index.setdefault(tuple(t[p] for p in rpos), []).append(
                (tuple(t[p] for p in extra), v)
            )
        charge(counter, len(self.table))
        mul = semiring.mul
        out = {}
        for t, v in self.table.items():
            for rest, w in index.get(tuple(t[p] for p in lpos), ()):
                out[t + rest] = mul(v, w)
        charge(counter, len(out))
        attrs = self.attributes + tuple(other.attributes[i] for i in extra)
        return _DictFactor(attrs, out)

    def sum_out(self, x: str, semiring: Semiring, counter) -> _DictFactor:
        keep = [i for i, a in enumerate(self.attributes) if a != x]
        charge(counter, len(self.table))
        add = semiring.add
        out: dict = {}
        for t, v in self.table.items():
            key = tuple(t[i] for i in keep)
            out[key] = add(out[key], v) if key in out else v
        return _DictFactor(tuple(self.attributes[i] for i in keep), out)

    def values(self) -> list:
        return list(self.table.values())


class _ArrayFactor:
    """The columnar backend's factor: a view of interned code rows and
    the semiring value of each row, in a parallel array."""

    __slots__ = ("view", "weights")

    def __init__(self, view: kernels.TableView, weights: np.ndarray) -> None:
        self.view = view
        self.weights = weights

    @property
    def attributes(self) -> tuple[str, ...]:
        return self.view.attributes

    def __len__(self) -> int:
        return len(self.view)

    def join(self, other: _ArrayFactor, semiring: Semiring, counter) -> _ArrayFactor:
        view, left, right = kernels.join_gather(self.view, other.view, counter)
        weights = kernels.value_product(
            semiring, np.take(self.weights, left), np.take(other.weights, right)
        )
        return _ArrayFactor(view, weights)

    def sum_out(self, x: str, semiring: Semiring, counter) -> _ArrayFactor:
        keep = [i for i, a in enumerate(self.attributes) if a != x]
        charge(counter, len(self.view))
        rows = self.view.matrix[:, keep]
        order, starts = kernels.group_rows(rows)
        view = kernels.TableView(
            tuple(self.attributes[i] for i in keep), rows[order[starts]]
        )
        return _ArrayFactor(
            view, kernels.segment_fold(semiring, np.take(self.weights, order), starts)
        )

    def values(self) -> list:
        return self.weights.tolist()


def _atom_factors(
    query: JoinQuery, database: Database, semiring: Semiring
) -> list:
    """One factor per atom: its relation's tuples, each weighing its
    annotation (``one`` for annotation-free semirings)."""
    trivial = semiring.annotation_free
    if database.backend != "columnar":
        factors = []
        for atom in query.atoms:
            tuples = database.relation(atom.relation_name).tuples
            name = atom.relation_name
            table = {
                t: semiring.one if trivial else semiring.annotate(name, t)
                for t in tuples
            }
            factors.append(_DictFactor(atom.attributes, table))
        return factors
    state = database.kernels
    decode = state.interner.values
    weights: dict[str, np.ndarray] = {}
    factors = []
    for atom in query.atoms:
        name = atom.relation_name
        view = kernels.atom_view(state, database.relation(name), atom.attributes)
        if name not in weights:
            if trivial:
                values = [semiring.one] * len(view)
            else:
                values = [
                    semiring.annotate(name, tuple(decode[c] for c in row))
                    for row in view.matrix.tolist()
                ]
            weights[name] = kernels.value_array(semiring, values)
        factors.append(_ArrayFactor(view, weights[name]))
    return factors


def variable_elimination(
    query: JoinQuery,
    database: Database,
    semiring: Semiring,
    order: Sequence[str],
    counter: CostCounter | None = None,
) -> object:
    """SumProd of the full ``query`` by eliminating the attributes of
    ``order`` one at a time.

    ``order`` is a permutation of the query's attributes — the
    elimination order the router's plan carries
    (:class:`~repro.relational.router.RouteDecision`). The factors that
    contain the next attribute are joined in the order they were made
    (atoms first, in query order) and the attribute is summed out of
    the join; the value is the ⊗ of the 0-ary factors left at the end,
    and ``zero`` as soon as a factor empties. ⊗ distributes over ⊕, and
    every registered semiring's values are canonical, so the value is
    ``==``-identical to :func:`~repro.relational.semiring.aggregate_relation`
    over the materialized answer. Counting stays in ``int64`` only while
    a bound proves every product and segment sum fits, and uses exact
    Python ints otherwise (:mod:`~repro.relational.kernels`).

    Complexity: O(|A| · N^(w+1) · log N) for an order of width w over
        |A| atoms of at most N tuples each.
    """
    query.validate_against(database)
    if sorted(order) != sorted(query.attributes):
        raise SchemaError(
            f"elimination order {tuple(order)} is not a permutation of "
            f"{query.attributes}"
        )
    live = dict(enumerate(_atom_factors(query, database, semiring)))
    # attribute -> ids of the live factors holding it, in creation order
    holding: dict[str, dict[int, None]] = {}
    for fid, factor in live.items():
        for a in factor.attributes:
            holding.setdefault(a, {})[fid] = None
    for fid, x in enumerate(order, start=len(live)):
        parts = []
        for i in holding.pop(x):
            parts.append(live.pop(i))
            for a in parts[-1].attributes:
                if a != x:
                    del holding[a][i]
        factor = parts[0]
        for part in parts[1:]:
            factor = factor.join(part, semiring, counter)
        factor = factor.sum_out(x, semiring, counter)
        if not len(factor):
            return semiring.zero
        live[fid] = factor
        for a in factor.attributes:
            holding[a][fid] = None
    result = semiring.one
    for factor in live.values():
        result = semiring.mul(result, factor.values()[0])
    return result
