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
* :func:`generic_join_columnar` runs Generic Join over those tries
  with a leapfrog/galloping k-way intersection (binary-search seeks
  from the smallest-set leader, batched through numpy for wide nodes);
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
changes. A first-witness walk charges one unit per candidate it
examined, per descent and per answer, and stops at its first answer.
Where that answer lies depends on the traversal order, so first-witness
totals agree across backends only when the answer is empty, and then
they equal the full walk's.
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


class _TrieCursor:
    """One atom's position in its sorted trie during Generic Join."""

    __slots__ = ("trie", "level", "lo", "hi")

    def __init__(self, trie: SortedTrieIndex) -> None:
        self.trie = trie
        self.level = 0
        self.lo = 0
        self.hi = trie.nroot


def _descend(cur: _TrieCursor, run: int) -> tuple[int, int, int]:
    """Move ``cur`` into child run ``run``; returns the saved state."""
    saved = (cur.level, cur.lo, cur.hi)
    trie = cur.trie
    k = cur.level
    if k + 1 < trie.depth:
        cur.lo = trie.next_lo[k][run]
        cur.hi = trie.next_hi[k][run]
    cur.level = k + 1
    return saved


def _drive_generic_join(
    query,
    database,
    order: tuple[str, ...],
    relevant: list[list[int]],
    counter: CostCounter | None,
    sink,
    span_name: str = "generic_join",
    lazy: bool = False,
) -> int:
    """The one columnar Generic Join traversal.

    Walks the sorted-array tries exactly as described on
    :func:`generic_join_columnar` and hands every leaf batch to
    ``sink(prefix, values)`` — ``prefix`` the decoded values bound for
    ``order[:-1]`` so far, ``values`` the matched interned codes of the
    last attribute. Materialization, semiring folding and first-witness
    search are the three sinks over this one traversal, which is what
    keeps their charge streams identical unit for unit (and identical
    to the naive engine's). Returns the number of answers emitted.

    ``lazy`` is for sinks that stop the walk by returning a true value
    (the batched walk ignores the return value). Every node then
    examines, charges and emits its leader's candidates one at a time,
    so a stopped walk pays only for the candidates it examined; a lazy
    walk that is never stopped charges what the batched walk charges.
    """
    # A fresh trie cursor per atom, tries served from the index cache.
    cursors = []
    for atom in query.atoms:
        relation = database.relation(atom.relation_name)
        positions = tuple(
            atom.attributes.index(a) for a in order if a in atom.attributes
        )
        cursors.append(_TrieCursor(database.kernels.sorted_trie(relation, positions)))
    registry = current_metrics()
    probe_hist = candidate_hist = None
    if registry is not None:
        probe_hist = registry.histogram("wcoj.probes_per_answer", SMALL_BUCKETS)
        candidate_hist = registry.histogram("wcoj.candidate_set_size")
        registry.counter("wcoj.joins").inc()

    nattrs = len(order)
    decode = database.kernels.interner.values
    prefix: list[Value] = []
    probes_since_answer = 0
    emitted = 0

    def emit_batch(values: list[int]) -> bool:
        # One leaf node's matched codes become answers in bulk; True
        # when the sink asks to stop. The probe histogram keeps
        # count/sum parity with the naive engine (probes land on the
        # batch's first answer instead of being spread across it — see
        # the module docstring).
        nonlocal probes_since_answer, emitted
        emitted += len(values)
        stop = sink(tuple(prefix), values)
        if probe_hist is not None:
            probe_hist.observe(probes_since_answer)
            probes_since_answer = 0
            for _ in range(len(values) - 1):
                probe_hist.observe(0)
        return bool(stop)

    def scalar_pair_node(
        leader: _TrieCursor,
        other: _TrieCursor,
        pos: int,
    ) -> None:
        # The two-atom intersection (every node of a binary-relation
        # query): leapfrog proper. Leader values ascend, so each seek
        # into ``other`` resumes from the previous hit — the galloping
        # invariant of [61] — and charges are bulked per node.
        values = leader.trie.ulist[leader.level]
        l_lvl, l_lo, l_hi = leader.level, leader.lo, leader.hi
        o_lvl, o_lo, o_hi = other.level, other.lo, other.hi
        ul = other.trie.ulist[o_lvl]
        if pos == nattrs - 1:
            batch: list[int] = []
            seek = o_lo
            for run in range(l_lo, l_hi):
                v = values[run]
                seek = bisect_left(ul, v, seek, o_hi)
                if seek >= o_hi:
                    break
                if ul[seek] == v:
                    batch.append(v)
            if batch:
                charge(counter, len(batch) * 3)  # 2 descents + 1 answer each
                emit_batch(batch)
            return
        l_trie, o_trie = leader.trie, other.trie
        l_deep = l_lvl + 1 < l_trie.depth
        o_deep = o_lvl + 1 < o_trie.depth
        matches = 0
        seek = o_lo
        for run in range(l_lo, l_hi):
            v = values[run]
            seek = bisect_left(ul, v, seek, o_hi)
            if seek >= o_hi:
                break
            if ul[seek] != v:
                continue
            matches += 1
            if l_deep:
                leader.lo = l_trie.next_lo[l_lvl][run]
                leader.hi = l_trie.next_hi[l_lvl][run]
            leader.level = l_lvl + 1
            if o_deep:
                other.lo = o_trie.next_lo[o_lvl][seek]
                other.hi = o_trie.next_hi[o_lvl][seek]
            other.level = o_lvl + 1
            prefix.append(decode[v])
            recurse(pos + 1)
            prefix.pop()
        if matches:
            charge(counter, matches * 2)
        leader.level, leader.lo, leader.hi = l_lvl, l_lo, l_hi
        other.level, other.lo, other.hi = o_lvl, o_lo, o_hi

    def scalar_node(
        leader: _TrieCursor,
        others: list[_TrieCursor],
        pos: int,
        natoms: int,
    ) -> None:
        if natoms == 2:
            scalar_pair_node(leader, others[0], pos)
            return
        values = leader.trie.ulist[leader.level]
        last = pos == nattrs - 1
        batch: list[int] = []
        # Monotone per-iterator seek bounds: leader values ascend, so
        # each iterator's next hit is at or right of its previous one.
        seeks = [other.lo for other in others]
        for run in range(leader.lo, leader.hi):
            v = values[run]
            hits = []
            for j, other in enumerate(others):
                ul = other.trie.ulist[other.level]
                ix = bisect_left(ul, v, seeks[j], other.hi)
                seeks[j] = ix
                if ix >= other.hi or ul[ix] != v:
                    break
                hits.append((other, ix))
            else:
                charge(counter, natoms)
                if last:
                    batch.append(v)
                    continue
                saved = [(other, _descend(other, ix)) for other, ix in hits]
                saved.append((leader, _descend(leader, run)))
                prefix.append(decode[v])
                recurse(pos + 1)
                prefix.pop()
                for cur, (lvl, lo, hi) in saved:
                    cur.level, cur.lo, cur.hi = lvl, lo, hi
        if batch:
            charge(counter, len(batch))
            emit_batch(batch)

    def witness_node(
        leader: _TrieCursor,
        others: list[_TrieCursor],
        pos: int,
        natoms: int,
    ) -> bool:
        # The lazy walk's node: no bulk width charge and no numpy
        # batch, one candidate at a time, so the walk can stop right
        # after the answer the sink stops it at. True once stopped.
        nonlocal probes_since_answer
        values = leader.trie.ulist[leader.level]
        last = pos == nattrs - 1
        for run in range(leader.lo, leader.hi):
            charge(counter)
            probes_since_answer += 1
            v = values[run]
            hits = []
            for other in others:
                ul = other.trie.ulist[other.level]
                ix = bisect_left(ul, v, other.lo, other.hi)
                if ix >= other.hi or ul[ix] != v:
                    break
                hits.append((other, ix))
            else:
                charge(counter, natoms)
                if last:
                    charge(counter)
                    if emit_batch([v]):
                        return True
                    continue
                saved = [(other, _descend(other, ix)) for other, ix in hits]
                saved.append((leader, _descend(leader, run)))
                prefix.append(decode[v])
                stopped = recurse(pos + 1)
                prefix.pop()
                for cur, (lvl, lo, hi) in saved:
                    cur.level, cur.lo, cur.hi = lvl, lo, hi
                if stopped:
                    return True
        return False

    def vector_node(
        leader: _TrieCursor,
        others: list[_TrieCursor],
        pos: int,
        natoms: int,
    ) -> None:
        lead_slice = leader.trie.uvals[leader.level][leader.lo : leader.hi]
        matched = lead_slice
        other_runs: list[tuple[_TrieCursor, np.ndarray]] = []
        for other in others:
            u = other.trie.uvals[other.level][other.lo : other.hi]
            if len(u) == 0 or len(matched) == 0:
                return
            ix = np.searchsorted(u, matched)
            np.minimum(ix, len(u) - 1, out=ix)
            mask = u[ix] == matched
            matched = matched[mask]
            ix = ix[mask]
            for j in range(len(other_runs)):
                other_runs[j] = (other_runs[j][0], other_runs[j][1][mask])
            other_runs.append((other, ix + other.lo))
        m = len(matched)
        if m == 0:
            return
        charge(counter, m * natoms)
        if pos == nattrs - 1:
            charge(counter, m)
            emit_batch(matched.tolist())
            return
        lead_runs = np.searchsorted(lead_slice, matched) + leader.lo
        # Entry states, captured once: every matched value descends from
        # the same node, so the per-value reset is just these tuples.
        descents = [
            (cur, runs.tolist(), cur.level, cur.lo, cur.hi)
            for cur, runs in [(leader, lead_runs), *other_runs]
        ]
        for j, v in enumerate(matched.tolist()):
            for cur, runs, lvl, _, _ in descents:
                trie = cur.trie
                if lvl + 1 < trie.depth:
                    run = runs[j]
                    cur.lo = trie.next_lo[lvl][run]
                    cur.hi = trie.next_hi[lvl][run]
                cur.level = lvl + 1
            prefix.append(decode[v])
            recurse(pos + 1)
            prefix.pop()
        for cur, _, lvl, lo, hi in descents:
            cur.level, cur.lo, cur.hi = lvl, lo, hi

    def recurse(pos: int) -> bool:
        """Walk the subtree at ``pos``; True once the sink stopped a
        lazy walk."""
        nonlocal probes_since_answer
        atoms_here = relevant[pos]
        lead = atoms_here[0]
        width = cursors[lead].hi - cursors[lead].lo
        for i in atoms_here[1:]:
            w = cursors[i].hi - cursors[i].lo
            if w < width:
                width = w
                lead = i
        if candidate_hist is not None:
            candidate_hist.observe(width)
        leader = cursors[lead]
        others = [cursors[i] for i in atoms_here if i != lead]
        if lazy:
            return witness_node(leader, others, pos, len(atoms_here))
        charge(counter, width)
        probes_since_answer += width
        if width == 0:
            return False
        if width <= SCALAR_THRESHOLD:
            scalar_node(leader, others, pos, len(atoms_here))
        else:
            vector_node(leader, others, pos, len(atoms_here))
        return False

    with span(
        span_name,
        counter=counter,
        atoms=len(cursors),
        attrs=nattrs,
        backend="columnar",
    ):
        recurse(0)
    if registry is not None:
        registry.counter("wcoj.answers").inc(emitted)
    return emitted


def generic_join_columnar(
    query,
    database,
    order: tuple[str, ...],
    relevant: list[list[int]],
    counter: CostCounter | None = None,
) -> Relation:
    """Generic Join over sorted-array tries with leapfrog intersection.

    Called by :func:`repro.relational.wcoj.generic_join` after shared
    validation; ``relevant`` lists, per position of ``order``, the
    atoms containing that attribute. Narrow nodes run a scalar leapfrog
    (leader values walked run by run, other iterators sought by binary
    search); wide nodes batch the same intersection through
    ``np.searchsorted``. Charges match the naive engine unit for unit:
    |smallest candidate set| per node, one per trie-edge descent, one
    per answer.

    Complexity: O(N^rho*(H)) data complexity — the AGM bound — with
    O(log N) per seek in place of the hash trie's O(1) probes.
    """
    answer = Relation("answer", order)
    answers = answer.tuples
    decode = database.kernels.interner.values

    def sink(prefix: tuple, values: list[int]) -> None:
        answers.update(prefix + (decode[v],) for v in values)

    _drive_generic_join(query, database, order, relevant, counter, sink)
    return answer


def aggregate_columnar(
    query,
    database,
    semiring,
    order: tuple[str, ...],
    relevant: list[list[int]],
    counter: CostCounter | None = None,
    annotate=None,
) -> object:
    """SumProd over the columnar backend: one leapfrog traversal,
    semiring accumulation instead of materialization.

    Called by :func:`repro.relational.wcoj.generic_join_aggregate`
    after shared validation. Runs the *same* traversal (and charges the
    same op stream) as :func:`generic_join_columnar`, but leaf batches
    fold into a running ⊕-accumulator:

    * **annotation-free** instances (boolean, counting with default
      annotations) contribute ``repeat_add(one, m)`` per ``m``-wide
      leaf batch — no per-answer decode, the segment-sum fast path
      that makes counting strictly cheaper than enumerate-then-count;
    * annotated instances (min-plus costs, provenance variables) fold
      each answer's ⊗-weight through the shared
      :func:`~repro.relational.semiring.fold_tuple`, so per-answer
      weights are engine-independent by construction.

    Complexity: O(N^rho*(H)) data complexity, O(1) extra per answer
    (annotation-free: O(1) extra per leaf *batch*).
    """
    from .semiring import annotation_positions, fold_tuple

    plan = annotation_positions(query, order)
    trivial = annotate is None and semiring.annotation_free
    add = semiring.add
    one = semiring.one
    acc = semiring.zero
    decode = database.kernels.interner.values

    def sink(prefix: tuple, values: list[int]) -> None:
        nonlocal acc
        if trivial:
            acc = add(acc, semiring.repeat_add(one, len(values)))
            return
        for v in values:
            acc = add(
                acc, fold_tuple(semiring, plan, prefix + (decode[v],), annotate)
            )

    _drive_generic_join(
        query,
        database,
        order,
        relevant,
        counter,
        sink,
        span_name="generic_join_aggregate",
    )
    return acc


def boolean_generic_join_columnar(
    query,
    database,
    order: tuple[str, ...],
    relevant: list[list[int]],
    counter: CostCounter | None = None,
) -> bool:
    """Emptiness of the answer by columnar Generic Join: a first-witness
    sink that stops the lazy walk at its first answer.

    Called by :func:`repro.relational.wcoj.boolean_generic_join` after
    shared validation. On empty answers the walk runs to the end and
    charges exactly what :func:`generic_join_columnar` charges.

    Complexity: O(N^rho*(H)) worst case (AGM bound), O(log N) per seek;
    exits on the first satisfying assignment.
    """
    emitted = _drive_generic_join(
        query,
        database,
        order,
        relevant,
        counter,
        lambda prefix, values: True,
        span_name="boolean_generic_join",
        lazy=True,
    )
    return emitted > 0


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
