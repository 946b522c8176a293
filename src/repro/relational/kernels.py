"""Columnar relational kernels: interned values, sorted-array tries,
and leapfrog intersection for the join hot paths (§3, [54, 61]).

The naive engines in :mod:`.wcoj` / :mod:`.joins` / :mod:`.yannakakis`
operate on Python sets of value tuples and hash Python objects at every
probe. This module is the alternative *representation* selected by
``Database.with_backend("columnar")``:

* a per-database :class:`Interner` maps arbitrary hashable values to
  dense ints (stable within a run), so every kernel compares machine
  integers instead of re-hashing Python objects;
* :class:`ColumnarTable` stores a relation as an ``int64`` matrix of
  interned codes;
* :class:`SortedTrieIndex` is Veldhuizen's sorted-array trie [61]: the
  atom's columns lex-sorted in the global attribute order with
  per-level run offsets, so a trie node is an O(1) ``(lo, hi)`` run
  range and its children are a sorted array slice;
* :func:`walk_generic_join` is Generic Join's one traversal on both
  backends: an explicit stack of frames, one per bound attribute, over
  each backend's two node steps, a whole-node intersection and a
  one-match-at-a-time seek for first-witness search — the naive hash
  tries probe the smallest child dict's values in the others, the
  sorted tries run a leapfrog/galloping k-way intersection
  (binary-search seeks from the smallest-set leader, batched through
  numpy for wide nodes); :func:`generic_join_columnar`,
  :func:`aggregate_columnar` and :func:`boolean_generic_join_columnar`
  are its three sinks, on either backend;
* :func:`pairwise_join` / :func:`semijoin` are single-pass vectorized
  equivalents of the hash-join and semijoin kernels; views are
  duplicate-free throughout, so a join returns its gathered rows as
  they are and only :func:`project_view` deduplicates, on one packed
  ``int64`` key per row;
* :class:`KernelState` memoizes every table/trie on the database keyed
  by ``(relation, column order)`` and the relation's mutation
  ``version``, so indexes are built once and reused across subqueries,
  semijoin passes, and enumeration calls — the index-reuse assumption
  NPRR [54] makes explicit.

Operation-count contract
------------------------
Kernels charge the supplied :class:`~repro.counting.CostCounter`
exactly what the naive engines charge — one unit per candidate value
of the smallest set, per trie-edge descent, per hashed tuple, per
joined pair, per answer — computed in bulk from run widths rather than
paid per Python iteration. Full-evaluation op totals are therefore
*backend-invariant* (asserted by the property tests); only wall-clock
changes. Generic Join's one walk counts a candidate when it reaches it
in depth-first order, on both backends, so a first-witness walk, which
stops at its first answer, has paid for what it examined and nothing
else. Where that answer lies depends on the traversal order, so
first-witness totals agree across backends only when the answer is
empty, and then they equal the full walk's.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence

import numpy as np

from ..counting import CostCounter, charge
from ..errors import SchemaError
from ..observability.metrics import SMALL_BUCKETS, current_metrics
from ..observability.tracing import span
from .relation import Relation, Value

#: Recognized evaluation backends for ``Database.with_backend``.
BACKENDS = ("naive", "columnar")

#: Node widths at or below this use the scalar leapfrog loop; wider
#: nodes batch the whole intersection through numpy. Crossover picked
#: on the E3 families: numpy per-call overhead (~µs) dominates under a
#: few dozen candidates.
SCALAR_THRESHOLD = 32


class Interner:
    """Dense value↔int mapping, stable for the lifetime of a database.

    Codes are assigned in first-intern order, so within one run the
    mapping is deterministic; codes are never reused or compacted.
    Sorted-code order is *not* the values' natural order — the kernels
    only ever need an order that is total and consistent.
    """

    __slots__ = ("_ids", "values")

    def __init__(self) -> None:
        self._ids: dict[Value, int] = {}
        self.values: list[Value] = []

    def intern(self, value: Value) -> int:
        """The code for ``value``, allocating one on first sight."""
        code = self._ids.get(value)
        if code is None:
            code = len(self.values)
            self._ids[value] = code
            self.values.append(value)
        return code

    def decode(self, code: int) -> Value:
        return self.values[code]

    def __len__(self) -> int:
        return len(self.values)


class ColumnarTable:
    """One relation's tuples as a matrix of interned ``int64`` codes.

    Row order is the relation's set-iteration order; columns are the
    relation's columns. Rows are unique by construction (relations have
    set semantics), so no deduplication pass is needed.
    """

    __slots__ = ("matrix", "nrows")

    def __init__(self, relation: Relation, interner: Interner) -> None:
        rows = list(relation.tuples)
        intern = interner.intern
        flat = [intern(v) for t in rows for v in t]
        self.matrix = np.array(flat, dtype=np.int64).reshape(
            len(rows), relation.arity
        )
        self.nrows = len(rows)


class SortedTrieIndex:
    """Sorted-array trie over one column group of a table [61].

    Rows are lex-sorted by ``positions``; level ``k`` partitions them
    into *runs* of rows equal on columns ``0..k``. A trie node bound on
    ``k`` values is a run-id interval ``(lo, hi)`` at level ``k``: its
    child values are the sorted slice ``uvals[k][lo:hi]``, and
    descending into child run ``r`` yields the interval
    ``(next_lo[k][r], next_hi[k][r])`` at level ``k + 1``.

    Per-level value arrays are kept both as numpy arrays (for the
    batched intersection) and as plain lists (for the scalar leapfrog
    loop, where list indexing beats numpy scalar extraction).
    """

    __slots__ = ("depth", "nroot", "uvals", "ulist", "next_lo", "next_hi")

    def __init__(self, matrix: np.ndarray, positions: Sequence[int]) -> None:
        depth = len(positions)
        self.depth = depth
        self.uvals: list[np.ndarray] = []
        self.ulist: list[list[int]] = []
        self.next_lo: list[list[int]] = []
        self.next_hi: list[list[int]] = []
        n = matrix.shape[0]
        if n == 0:
            self.nroot = 0
            for _ in range(depth):
                self.uvals.append(np.empty(0, np.int64))
                self.ulist.append([])
            for _ in range(max(depth - 1, 0)):
                self.next_lo.append([])
                self.next_hi.append([])
            return
        cols = [matrix[:, p] for p in positions]
        order = np.lexsort(tuple(cols[k] for k in range(depth - 1, -1, -1)))
        sorted_cols = [np.ascontiguousarray(c[order]) for c in cols]
        # ``change[i]`` marks row i starting a new run at the current
        # level; runs only split (never merge) as levels deepen.
        change = np.empty(n, dtype=bool)
        change[0] = True
        change[1:] = sorted_cols[0][1:] != sorted_cols[0][:-1]
        prev_starts: np.ndarray | None = None
        prev_ends: np.ndarray | None = None
        for k in range(depth):
            if k > 0:
                change = change.copy()
                change[1:] |= sorted_cols[k][1:] != sorted_cols[k][:-1]
            run_id = np.cumsum(change) - 1
            starts = np.flatnonzero(change)
            ends = np.append(starts[1:], n)
            u = sorted_cols[k][starts]
            self.uvals.append(u)
            self.ulist.append(u.tolist())
            if k > 0:
                assert prev_starts is not None and prev_ends is not None
                self.next_lo.append(run_id[prev_starts].tolist())
                self.next_hi.append((run_id[prev_ends - 1] + 1).tolist())
            prev_starts, prev_ends = starts, ends
        self.nroot = len(self.ulist[0])


def build_hash_trie(relation: Relation, positions: Sequence[int]) -> dict:
    """The naive backend's index kernel: a dict-of-dicts trie keyed by
    the relation's columns in ``positions`` order.

    Construction charges nothing (index building is outside every
    theorem's accounting); :class:`KernelState` memoizes the result so
    it is paid once per ``(relation, column order)``, not per call.
    """
    root: dict = {}
    for t in relation.tuples:
        node = root
        for p in positions:
            node = node.setdefault(t[p], {})
    return root


class KernelState:
    """Per-database kernel state: the interner plus the index caches.

    Caches key on ``(relation name, column positions)`` and remember
    the relation's :attr:`~repro.relational.relation.Relation.version`
    at build time; a mutated relation therefore misses and rebuilds on
    the next lookup (invalidate-on-``add`` semantics with no mutation
    hooks). ``with_backend`` views share one ``KernelState``, so A/B
    runs over the same database reuse the same interner, and the naive
    and columnar backends never observe different index contents.
    """

    __slots__ = ("interner", "_tables", "_tries", "_hash_tries")

    def __init__(self) -> None:
        self.interner = Interner()
        self._tables: dict[str, tuple[int, ColumnarTable]] = {}
        self._tries: dict[
            tuple[str, tuple[int, ...]], tuple[int, SortedTrieIndex]
        ] = {}
        self._hash_tries: dict[tuple[str, tuple[int, ...]], tuple[int, dict]] = {}

    def table(self, relation: Relation) -> ColumnarTable:
        """The memoized interned matrix for ``relation``."""
        cached = self._tables.get(relation.name)
        if cached is not None and cached[0] == relation.version:
            return cached[1]
        table = ColumnarTable(relation, self.interner)
        self._tables[relation.name] = (relation.version, table)
        return table

    def sorted_trie(
        self, relation: Relation, positions: Sequence[int]
    ) -> SortedTrieIndex:
        """The memoized sorted-array trie over ``relation``'s columns
        in ``positions`` order."""
        key = (relation.name, tuple(positions))
        cached = self._tries.get(key)
        if cached is not None and cached[0] == relation.version:
            return cached[1]
        trie = SortedTrieIndex(self.table(relation).matrix, key[1])
        self._tries[key] = (relation.version, trie)
        return trie

    def hash_trie(self, relation: Relation, positions: Sequence[int]) -> dict:
        """The memoized dict trie (naive backend) over ``relation``'s
        columns in ``positions`` order."""
        key = (relation.name, tuple(positions))
        cached = self._hash_tries.get(key)
        if cached is not None and cached[0] == relation.version:
            return cached[1]
        root = build_hash_trie(relation, key[1])
        self._hash_tries[key] = (relation.version, root)
        return root


# -- table views and the vectorized pairwise kernels -------------------


class TableView:
    """An (attributes, interned matrix) pair flowing through a plan.

    Views are cheap: renaming an atom's columns to query attributes is
    relabeling, and column selection is a numpy slice of the cached
    table — no per-tuple work until a final :func:`to_relation`.

    Every view is duplicate-free: atoms never repeat an attribute,
    tables come from set-semantics relations, :func:`semijoin` keeps a
    subset of its input, :func:`project_view` deduplicates, and
    :func:`pairwise_join` of duplicate-free views cannot repeat a row.
    """

    __slots__ = ("attributes", "matrix")

    def __init__(self, attributes: tuple[str, ...], matrix: np.ndarray) -> None:
        self.attributes = attributes
        self.matrix = matrix

    def __len__(self) -> int:
        return int(self.matrix.shape[0])


def atom_view(
    state: KernelState, relation: Relation, attributes: Sequence[str]
) -> TableView:
    """The atom's relation as a view with columns renamed to query
    attributes (the columnar counterpart of ``bound_relation``)."""
    attrs = tuple(attributes)
    if relation.arity != len(attrs):
        raise SchemaError(
            f"atom over {relation.name!r} binds {len(attrs)} attributes, "
            f"relation has arity {relation.arity}"
        )
    return TableView(attrs, state.table(relation).matrix)


def _key_codes(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Comparable int codes for the two sides' key columns.

    Single-column keys are already comparable ints; multi-column keys
    are jointly re-coded so equal key tuples — and only those — share a
    code: packed into one ``int64`` per row (:func:`_packed_rows`), or
    through one ``np.unique`` pass when packed keys would not fit. Both
    sides must be non-empty.
    """
    if left_keys.shape[1] == 1:
        return left_keys[:, 0], right_keys[:, 0]
    combined = np.concatenate([left_keys, right_keys], axis=0)
    codes = _packed_rows(combined)
    if codes is None:
        _, codes = np.unique(combined, axis=0, return_inverse=True)
        codes = codes.reshape(-1)
    return codes[: left_keys.shape[0]], codes[left_keys.shape[0] :]


def _packed_rows(matrix: np.ndarray) -> np.ndarray | None:
    """One ``int64`` key per row that orders like the rows, or ``None``.

    Interned codes are dense and non-negative, so each row packs into
    one key in base ``max code + 1``. ``None`` when the largest key,
    ``(max code + 1) ** ncols - 1``, would not fit in ``int64``.
    """
    ncols = matrix.shape[1]
    base = int(matrix.max()) + 1
    if base**ncols > 2**63:
        return None
    keys = matrix[:, 0].copy()
    for k in range(1, ncols):
        keys *= base
        keys += matrix[:, k]
    return keys


def group_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, starts)``: a permutation that makes equal rows of
    ``matrix`` contiguous, and the offset in it where each group of
    equal rows starts (groups in lexicographic row order; rows within a
    group in no particular order).

    With no columns every row is equal: one group, when there are rows.
    Packed keys (:func:`_packed_rows`) sort in one ``argsort``;
    otherwise ``np.unique(axis=0)`` first re-codes the rows.

    Complexity: O(n log n) for n rows.
    """
    nrows, ncols = matrix.shape
    if ncols == 0 or nrows <= 1:
        return np.arange(nrows), np.zeros(min(nrows, 1), dtype=np.int64)
    keys = _packed_rows(matrix)
    if keys is None:
        _, keys = np.unique(matrix, axis=0, return_inverse=True)
        keys = keys.reshape(-1)
    order = np.argsort(keys)
    ordered = keys[order]
    change = np.empty(nrows, dtype=bool)
    change[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=change[1:])
    return order, np.flatnonzero(change)


def _unique_rows(matrix: np.ndarray) -> np.ndarray:
    """The distinct rows of ``matrix``, in lexicographic order: one row
    per :func:`group_rows` group of equal rows."""
    order, starts = group_rows(matrix)
    return matrix[order[starts]]


def join_gather(
    left: TableView, right: TableView, counter: CostCounter | None = None
) -> tuple[TableView, np.ndarray, np.ndarray]:
    """The natural join of two views on interned ints, with the gather
    indices: output row ``k`` joins ``left`` row ``left_idx[k]`` with
    ``right`` row ``right_idx[k]``, so a caller can gather arrays that
    run parallel to the rows (semiring values) the same way.

    Build/probe is one stable sort plus two binary-search sweeps over
    the key codes — no per-tuple dict churn — then one gather of the
    matching row pairs, grouped by left row; views without a shared
    attribute give their cross product. Charges mirror
    :func:`repro.relational.joins.hash_join` exactly: one unit per
    right tuple (build), per left tuple (probe), and per matching pair
    (output, charged before it is gathered), so plan op totals are
    backend-invariant.

    The gathered rows need no deduplication: the output keeps every
    column of two duplicate-free views (see :class:`TableView`), so
    distinct row pairs give distinct rows, cross products included.

    Complexity: O((|L| + |R|) log |R| + |out|) — the sort/gather
    equivalent of the hash join's O(|L| + |R| + |out|).
    """
    shared = [a for a in left.attributes if a in right.attributes]
    extra = [a for a in right.attributes if a not in left.attributes]
    nl, nr = len(left), len(right)
    charge(counter, nr)
    charge(counter, nl)
    if nl == 0 or nr == 0:
        left_idx = right_idx = np.empty(0, dtype=np.int64)
    elif not shared:
        charge(counter, nl * nr)
        left_idx = np.repeat(np.arange(nl), nr)
        right_idx = np.tile(np.arange(nr), nl)
    else:
        lpos = [left.attributes.index(a) for a in shared]
        rpos = [right.attributes.index(a) for a in shared]
        kl, kr = _key_codes(left.matrix[:, lpos], right.matrix[:, rpos])
        order = np.argsort(kr, kind="stable")
        skr = kr[order]
        lo = np.searchsorted(skr, kl, side="left")
        counts = np.searchsorted(skr, kl, side="right") - lo
        ends = np.cumsum(counts)
        total = int(ends[-1])
        charge(counter, total)
        left_idx = np.repeat(np.arange(nl), counts)
        # Left row i's matches are right rows order[lo[i]:lo[i]+counts[i]],
        # landing at output rows ends[i]-counts[i] onwards.
        sorted_idx = np.repeat(lo - (ends - counts), counts)
        sorted_idx += np.arange(total)
        right_idx = order[sorted_idx]
    width = len(left.attributes)
    out = np.empty((len(left_idx), width + len(extra)), dtype=np.int64)
    out[:, :width] = np.take(left.matrix, left_idx, axis=0)
    for k, a in enumerate(extra):
        out[:, width + k] = np.take(right.matrix[:, right.attributes.index(a)], right_idx)
    return TableView(left.attributes + tuple(extra), out), left_idx, right_idx


def pairwise_join(
    left: TableView, right: TableView, counter: CostCounter | None = None
) -> TableView:
    """Vectorized natural join of two views on interned ints: the view
    half of :func:`join_gather`, charged the same.

    Complexity: O((|L| + |R|) log |R| + |out|).
    """
    return join_gather(left, right, counter)[0]


def semijoin(
    left: TableView, right: TableView, counter: CostCounter | None = None
) -> TableView:
    """left ⋉ right on interned ints (one sort + one search sweep).

    Charges mirror :func:`repro.relational.algebra.semijoin`: one unit
    per right tuple (key build) and per left tuple (probe); the
    no-shared-attribute guard charges nothing, like the naive kernel.

    Complexity: O((|L| + |R|) log |R|).
    """
    shared = [a for a in left.attributes if a in right.attributes]
    if not shared:
        if len(right):
            return TableView(left.attributes, left.matrix)
        return TableView(left.attributes, left.matrix[:0])
    charge(counter, len(right))
    charge(counter, len(left))
    if len(left) == 0 or len(right) == 0:
        return TableView(left.attributes, left.matrix[:0])
    lpos = [left.attributes.index(a) for a in shared]
    rpos = [right.attributes.index(a) for a in shared]
    kl, kr = _key_codes(left.matrix[:, lpos], right.matrix[:, rpos])
    skr = np.sort(kr)
    ix = np.searchsorted(skr, kl)
    np.minimum(ix, len(skr) - 1, out=ix)
    mask = skr[ix] == kl
    return TableView(left.attributes, left.matrix[mask])


def project_view(view: TableView, attributes: Sequence[str]) -> TableView:
    """π over a view, deduplicating rows (set semantics); charges
    nothing, like :func:`repro.relational.algebra.project`."""
    attrs = tuple(attributes)
    positions = [view.attributes.index(a) for a in attrs]
    return TableView(attrs, _unique_rows(view.matrix[:, positions]))


def to_relation(view: TableView, interner: Interner, name: str) -> Relation:
    """Decode a view's interned codes back to a value-tuple Relation."""
    out = Relation(name, view.attributes)
    if view.matrix.size:
        decode = np.array(interner.values, dtype=object)
        out.tuples.update(map(tuple, decode[view.matrix].tolist()))
        out.version += 1
    return out


# -- the WCOJ kernel ---------------------------------------------------


def _hash_trie_steps(query, database, relevant, positions):
    """The naive backend's roots and node steps over dict-of-dict tries.

    A node is a dict: its keys are the node's candidates, its values the
    child nodes one trie edge down. Both steps iterate the smallest dict
    in its own order and probe every value in the other atoms' dicts:
    ``step`` intersects the whole node, ``first`` yields its matches one
    at a time.
    """
    roots = [
        database.kernels.hash_trie(database.relation(atom.relation_name), cols)
        for atom, cols in zip(query.atoms, positions)
    ]

    def step(pos: int, nodes: list, leaf: bool):
        here = [nodes[i] for i in relevant[pos]]
        smallest = min(here, key=len)
        # A node that is the smallest one holds every candidate.
        rest = [node for node in here if node is not smallest]
        offsets, values = [], []
        for offset, value in enumerate(smallest):
            if all(value in node for node in rest):
                offsets.append(offset)
                values.append(value)
        children = None if leaf else [[node[v] for v in values] for node in here]
        return len(smallest), offsets, values, children

    def first(pos: int, nodes: list):
        here = [nodes[i] for i in relevant[pos]]
        smallest = min(here, key=len)
        rest = [node for node in here if node is not smallest]
        return len(smallest), _probe_matches(smallest, rest, here)

    return roots, step, first


def _probe_matches(smallest: dict, rest: list, here: list):
    """A hash-trie node's matches, one at a time: ``(offset, value,
    children)`` for each key of ``smallest`` found in every dict of
    ``rest``."""
    for offset, value in enumerate(smallest):
        if all(value in node for node in rest):
            yield offset, value, [node[value] for node in here]


def _sorted_trie_steps(query, database, relevant, positions):
    """The columnar backend's roots and node steps over sorted-array
    tries [61].

    A node is a run id at the atom's previous trie level (``0`` at a
    root), whose bounds select the node's candidates: a sorted slice of
    the next level's values. A child node is the matched run's id, and
    values are interned codes. ``step`` intersects the whole node
    (:func:`_leapfrog`), ``first`` seeks its matches one at a time
    (:func:`_seek_matches`); both lead with the first atom of fewest
    candidates, so a match has the same offset in either.
    """
    tries = [
        database.kernels.sorted_trie(database.relation(atom.relation_name), cols)
        for atom, cols in zip(query.atoms, positions)
    ]
    # Per position, per atom containing the attribute: the trie level's
    # values (list and array) and the run bounds a parent run id selects.
    levels = []
    depth = [0] * len(tries)
    for atoms in relevant:
        level = []
        for i in atoms:
            trie, k = tries[i], depth[i]
            depth[i] = k + 1
            bounds = (
                ((0,), (trie.nroot,)) if k == 0 else (trie.next_lo[k - 1], trie.next_hi[k - 1])
            )
            level.append((trie.ulist[k], trie.uvals[k], *bounds))
        levels.append(tuple(level))

    def ranges(pos: int, nodes: list) -> tuple[list, int]:
        # Each atom's candidate run range, and the leader: the first
        # atom with the fewest candidates.
        spans = [
            (lo[nodes[i]], hi[nodes[i]])
            for i, (_, _, lo, hi) in zip(relevant[pos], levels[pos])
        ]
        widths = [hi - lo for lo, hi in spans]
        return spans, widths.index(min(widths))

    def step(pos: int, nodes: list, leaf: bool):
        level = levels[pos]
        if len(level) == 2:
            # Two atoms, as at every position of a binary-relation
            # query: :func:`_leapfrog`'s scalar loop without its
            # per-atom set-up, which costs more than the loop on the
            # small nodes such queries are made of. Sending these nodes
            # through ``_leapfrog`` made Generic Join 1.65x slower on
            # perfbench's analytic and sharded queries.
            (a_values, _, a_lo, a_hi), (b_values, _, b_lo, b_hi) = level
            a, b = relevant[pos]
            ra, rb = nodes[a], nodes[b]
            lo, hi, seek, end = a_lo[ra], a_hi[ra], b_lo[rb], b_hi[rb]
            values, other, lead = a_values, b_values, 0
            if end - seek < hi - lo:
                lo, hi, seek, end = seek, end, lo, hi
                values, other, lead = b_values, a_values, 1
            if hi - lo <= SCALAR_THRESHOLD:
                offsets, matched, hit = [], [], []
                for run in range(lo, hi):
                    v = values[run]
                    seek = bisect_left(other, v, seek, end)
                    if seek == end:
                        break
                    if other[seek] == v:
                        offsets.append(run - lo)
                        matched.append(v)
                        hit.append(seek)
                if leaf:
                    return hi - lo, offsets, matched, None
                own = [lo + offset for offset in offsets]
                children = (hit, own) if lead else (own, hit)
                return hi - lo, offsets, matched, children
        return _leapfrog(level, *ranges(pos, nodes), leaf)

    def first(pos: int, nodes: list):
        spans, lead = ranges(pos, nodes)
        lo, hi = spans[lead]
        return hi - lo, _seek_matches(levels[pos], spans, lead)

    return [0] * len(tries), step, first


def _leapfrog(level: tuple, ranges: list, lead: int, leaf: bool):
    """One node's step: the leader's candidates are filtered through
    each other atom in turn, keeping each match's offset and its run in
    every atom. Up to :data:`SCALAR_THRESHOLD` candidates a scalar
    leapfrog seeks each leader value by binary search, resuming from
    the previous hit; wider nodes run the same filter through
    ``np.searchsorted``."""
    lo, hi = ranges[lead]
    width = hi - lo
    hits = []
    if width > SCALAR_THRESHOLD:
        matched, offsets = level[lead][1][lo:hi], np.arange(width)
        for k, (_, u, _, _) in enumerate(level):
            if k == lead:
                continue
            start, end = ranges[k]
            u = u[start:end]
            ix = np.searchsorted(u, matched)
            np.minimum(ix, len(u) - 1, out=ix)
            keep = np.flatnonzero(u[ix] == matched)
            matched, offsets = matched[keep], offsets[keep]
            hits = [hit[keep] for hit in hits] + [ix[keep] + start]
        offsets, matched = offsets.tolist(), matched.tolist()
        hits = [hit.tolist() for hit in hits]
    else:
        matched, offsets = level[lead][0][lo:hi], range(width)
        for k, (ul, _, _, _) in enumerate(level):
            if k == lead:
                continue
            seek, end = ranges[k]
            kept, hit = [], []
            for j, v in enumerate(matched):
                seek = bisect_left(ul, v, seek, end)
                if seek == end:
                    break
                if ul[seek] == v:
                    kept.append(j)
                    hit.append(seek)
            if len(kept) < len(matched):
                matched = [matched[j] for j in kept]
                offsets = [offsets[j] for j in kept]
                hits = [[h[j] for j in kept] for h in hits]
            hits.append(hit)
    if leaf:
        return width, offsets, matched, None
    hits.insert(lead, [lo + offset for offset in offsets])
    return width, offsets, matched, hits


def _seek_matches(level: tuple, ranges: list, lead: int):
    """A sorted-trie node's matches, one at a time: ``(offset, value,
    runs)`` for each leader value found in every other atom, ``runs``
    its run in each atom. Leader values ascend, so each atom's seek
    resumes from its previous hit, and the first atom exhausted ends
    the node."""
    lo, hi = ranges[lead]
    values = level[lead][0]
    seeks = [start for start, _ in ranges]
    others = [(k, level[k][0], ranges[k][1]) for k in range(len(level)) if k != lead]
    for run in range(lo, hi):
        v = values[run]
        for k, ul, end in others:
            seek = seeks[k] = bisect_left(ul, v, seeks[k], end)
            if seek == end:
                return
            if ul[seek] != v:
                break
        else:
            seeks[lead] = run
            yield run - lo, v, tuple(seeks)


def walk_generic_join(
    query,
    database,
    relevant: list[list[int]],
    positions: list[tuple[int, ...]],
    counter: CostCounter | None,
    sink,
    span_name: str,
    first_only: bool = False,
) -> int:
    """The one Generic Join traversal, over either backend's tries.

    ``relevant`` lists, per position of the attribute order, the atoms
    containing that attribute; ``positions`` gives each atom's columns
    in that order (its trie key). The walk keeps an explicit stack of
    frames, one per bound attribute, so its depth is not the
    interpreter's. The backend's ``step`` intersects one node's
    candidates and its ``first`` seeks them one match at a time; the
    walk charges what they examined and descends. Each leaf node's
    matches go to ``sink(prefix, values)`` in one batch, decoded:
    ``prefix`` the tuple of values bound so far, ``values`` the leaf's
    matched values; a ``None`` sink only counts. ``first_only`` runs
    ``first`` at every node and stops the walk after its first answer,
    so no node is intersected beyond the match it descends into.
    Returns the number of answers emitted.

    Charges, on both backends and whichever sink: one unit per
    candidate of a node's smallest set, counted when the walk reaches
    it in depth-first order, one per trie-edge descent and one per
    answer. A stopped walk has therefore paid only for what it
    examined. ``wcoj.probes_per_answer`` observes, at each answer, the
    candidates examined since the previous one.

    Complexity: O(N^rho*(H)) data complexity — the AGM bound — with one
        step per node and O(1) work per descent.
    """
    if database.backend == "columnar":
        nodes, step, first = _sorted_trie_steps(query, database, relevant, positions)
        decode, backend = database.kernels.interner.values, {"backend": "columnar"}
    else:
        nodes, step, first = _hash_trie_steps(query, database, relevant, positions)
        decode, backend = None, {}
    # Distribution instrumentation (no-op outside the experiment
    # runtime): probes charged between consecutive answers, and the
    # size of the smallest candidate set at each node. Ngo's survey
    # point: a WCOJ execution is certified by the *distribution* of
    # probes per answer staying flat, not by the total.
    registry = current_metrics()
    probe_hist = candidate_hist = None
    if registry is not None:
        probe_hist = registry.histogram("wcoj.probes_per_answer", SMALL_BUCKETS)
        candidate_hist = registry.histogram("wcoj.candidate_set_size")
        registry.counter("wcoj.joins").inc()
    last = len(relevant) - 1
    prefix: list[Value] = [None] * last
    # The stack: frame ``d`` is the node bound at position ``d`` — its
    # atoms' states to restore, its width, its matches still to descend
    # into and the offset of the last candidate examined, in these
    # per-position lists sized once for the query.
    saved: list = [None] * last
    widths = [0] * last
    pending: list = [None] * last
    seen = [-1] * last
    depth = 0
    # ``owed``: charges counted since the last payment, paid at every
    # inner node; ``probes``: candidates examined since the last answer.
    owed = probes = emitted = 0
    with span(span_name, counter=counter, atoms=len(nodes), attrs=last + 1, **backend):
        while True:
            atoms = relevant[depth]
            if first_only:
                width, matches = first(depth, nodes)
            else:
                width, offsets, values, children = step(depth, nodes, depth == last)
            if candidate_hist is not None:
                candidate_hist.observe(width)
            if depth < last:
                if not first_only:
                    matches = zip(offsets, values, zip(*children))
                saved[depth] = tuple([nodes[i] for i in atoms])
                widths[depth], pending[depth], seen[depth] = width, matches, -1
                depth += 1
                charge(counter, owed)
                owed = 0
            elif first_only:
                match = next(matches, None)
                examined = width if match is None else match[0] + 1
                owed += examined
                probes += examined
                if match is not None:
                    owed += len(atoms) + 1
                    if probe_hist is not None:
                        probe_hist.observe(probes)
                    emitted = 1
                    if sink is not None:
                        value = match[1]
                        sink(tuple(prefix), [value if decode is None else decode[value]])
                    break
            else:
                owed += width + len(offsets) * (len(atoms) + 1)
                if offsets:
                    emitted += len(offsets)
                    if sink is not None:
                        if decode is not None:
                            values = map(decode.__getitem__, values)
                        sink(tuple(prefix), values)
                if probe_hist is not None:
                    previous = -1
                    for offset in offsets:
                        probe_hist.observe(probes + offset - previous)
                        probes, previous = 0, offset
                    probes += width - 1 - previous
            # Descend into the next match of the deepest frame that has
            # one, restoring each exhausted frame's atoms on the way up.
            while depth:
                d = depth - 1
                atoms = relevant[d]
                match = next(pending[d], None)
                if match is not None:
                    offset, value, children = match
                    owed += offset - seen[d] + len(atoms)
                    probes += offset - seen[d]
                    seen[d] = offset
                    for i, child in zip(atoms, children):
                        nodes[i] = child
                    prefix[d] = value if decode is None else decode[value]
                    break
                owed += widths[d] - 1 - seen[d]
                probes += widths[d] - 1 - seen[d]
                for i, state in zip(atoms, saved[d]):
                    nodes[i] = state
                depth = d
            else:
                break
        charge(counter, owed)
    if registry is not None:
        registry.counter("wcoj.answers").inc(emitted)
    return emitted


def generic_join_columnar(
    query,
    database,
    order: tuple[str, ...],
    relevant: list[list[int]],
    positions: list[tuple[int, ...]],
    counter: CostCounter | None = None,
) -> Relation:
    """Generic Join's full answer, on either backend.

    Called by :func:`repro.relational.wcoj.generic_join` after shared
    validation: :func:`walk_generic_join` with a sink that adds each
    leaf batch to the answer. (The name predates the shared walk;
    perfbench's launcher times it under this name.)

    Complexity: O(N^rho*(H)) data complexity — the AGM bound — with
    O(1) work per probe on hash tries, O(log N) per seek on sorted ones.
    """
    answer = Relation("answer", order)
    answers = answer.tuples

    def sink(prefix: tuple, values) -> None:
        answers.update([prefix + (v,) for v in values])

    walk_generic_join(query, database, relevant, positions, counter, sink, "generic_join")
    return answer


def aggregate_columnar(
    query,
    database,
    semiring,
    order: tuple[str, ...],
    relevant: list[list[int]],
    positions: list[tuple[int, ...]],
    counter: CostCounter | None = None,
    annotate=None,
) -> object:
    """SumProd by Generic Join on either backend: the same walk and
    charges as :func:`generic_join_columnar`, folding answers into a
    running ⊕-accumulator instead of materializing them.

    Called by :func:`repro.relational.wcoj.generic_join_aggregate`
    after shared validation.

    * **annotation-free** instances (boolean, counting with default
      annotations) weigh every answer ``one``, so the walk only counts
      its ``m`` answers and the value is ``repeat_add(one, m)`` — no
      per-answer decode or fold, which makes counting strictly cheaper
      than enumerate-then-count;
    * annotated instances (min-plus costs, provenance variables) fold
      each answer's ⊗-weight through the shared
      :func:`~repro.relational.semiring.fold_tuple`, so per-answer
      weights are engine-independent by construction.

    Complexity: O(N^rho*(H)) data complexity, O(1) extra per answer
    (annotation-free: O(1) extra in all).
    """
    from .semiring import annotation_positions, fold_tuple

    if annotate is None and semiring.annotation_free:
        emitted = walk_generic_join(
            query, database, relevant, positions, counter, None, "generic_join_aggregate"
        )
        return semiring.repeat_add(semiring.one, emitted)
    plan = annotation_positions(query, order)
    add = semiring.add
    acc = semiring.zero

    def sink(prefix: tuple, values) -> None:
        nonlocal acc
        for v in values:
            acc = add(acc, fold_tuple(semiring, plan, prefix + (v,), annotate))

    walk_generic_join(
        query, database, relevant, positions, counter, sink, "generic_join_aggregate"
    )
    return acc


def boolean_generic_join_columnar(
    query,
    database,
    relevant: list[list[int]],
    positions: list[tuple[int, ...]],
    counter: CostCounter | None = None,
) -> bool:
    """Emptiness of the answer by Generic Join on either backend: the
    walk stops at its first answer.

    Called by :func:`repro.relational.wcoj.boolean_generic_join` after
    shared validation. On empty answers the walk runs to the end and
    charges exactly what :func:`generic_join_columnar` charges.

    Complexity: O(N^rho*(H)) worst case (AGM bound), O(1) per probe on
    hash tries, O(log N) per seek on sorted ones; exits on the first
    satisfying assignment.
    """
    return (
        walk_generic_join(
            query,
            database,
            relevant,
            positions,
            counter,
            None,
            "boolean_generic_join",
            first_only=True,
        )
        > 0
    )


# -- per-semiring value arrays and vectorized segment folds -----------

#: Every ``int64`` value lies below this bound. Counting values stay in
#: ``int64`` only while a bound proves that every product and segment
#: sum computed from them does too.
_INT64_BOUND = 2**63


def value_array(semiring, values: Sequence) -> np.ndarray:
    """Semiring values as one 1-D array, the form :func:`value_product`
    and :func:`segment_fold` work on: ``int64`` for counting values that
    fit it, Python objects otherwise (exact ints, witness pairs,
    polynomials)."""
    if semiring.name == "counting" and all(0 <= v < _INT64_BOUND for v in values):
        return np.array(values, dtype=np.int64)
    return np.fromiter(values, dtype=object, count=len(values))


def value_product(semiring, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Elementwise ⊗ of two parallel value arrays.

    Two ``int64`` (counting) arrays multiply in ``int64`` when the
    product of their maxima fits it; otherwise each product is the
    semiring's own, over Python objects (exact ints past ``int64``).
    """
    if left.dtype == np.int64 and right.dtype == np.int64:
        if not len(left) or int(left.max()) * int(right.max()) < _INT64_BOUND:
            return left * right
    mul = np.frompyfunc(semiring.mul, 2, 1)
    return mul(left.astype(object, copy=False), right.astype(object, copy=False))


def segment_fold(semiring, values: np.ndarray, starts) -> np.ndarray:
    """⊕-fold each contiguous segment of the value array ``values``
    (segment ``i`` spans ``starts[i]:starts[i+1]``); returns one folded
    value per segment, as an array of the same kind.

    The per-semiring numpy fast paths of the sum-product DPs
    (:func:`repro.relational.yannakakis.semiring_yannakakis`,
    :func:`repro.relational.elimination.variable_elimination`):

    * **counting** — ``np.add.reduceat`` segment sums, in ``int64``
      when the row count times the largest value fits it (no segment
      sums to more), and over exact Python ints otherwise;
    * **minplus** — ``np.minimum.reduceat`` over the cost column finds
      each segment's minimum cost, then only the (typically single)
      cost-tied candidates are compared under the full witness order;
    * anything else — the exact scalar fold.

    Results are value-identical to the scalar fold for every path —
    the folds are over canonical values with order-insensitive ⊕.
    """
    nseg = len(starts)
    if nseg == 0:
        return values[:0]
    if semiring.name == "counting":
        if values.dtype == np.int64 and len(values) * int(values.max()) >= _INT64_BOUND:
            values = values.astype(object)
        return np.add.reduceat(values, starts)
    bounds = [int(i) for i in starts] + [len(values)]
    out = []
    if semiring.name == "minplus":
        costs = np.fromiter((v[0] for v in values), dtype=np.float64, count=len(values))
        minima = np.minimum.reduceat(costs, starts)
        for i in range(nseg):
            best = None
            for j in range(bounds[i], bounds[i + 1]):
                if values[j][0] == minima[i]:
                    cand = values[j]
                    best = cand if best is None else semiring.add(best, cand)
            out.append(best if best is not None else semiring.zero)
    else:
        for i in range(nseg):
            acc = values[bounds[i]]
            for j in range(bounds[i] + 1, bounds[i + 1]):
                acc = semiring.add(acc, values[j])
            out.append(acc)
    return np.fromiter(out, dtype=object, count=nseg)
