"""Unit tests for the columnar kernels (interner, tries, joins, caches)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.counting import CostCounter
from repro.errors import SchemaError
from repro.relational.database import Database
from repro.relational.kernels import (
    SCALAR_THRESHOLD,
    Interner,
    KernelState,
    SortedTrieIndex,
    TableView,
    _unique_rows,
    group_rows,
    join_gather,
    pairwise_join,
    project_view,
    segment_fold,
    semijoin,
    to_relation,
    value_array,
    value_product,
)
from repro.relational.query import Atom, JoinQuery
from repro.relational.relation import Relation
from repro.relational.semiring import COUNTING, MIN_PLUS, PROVENANCE
from repro.relational.wcoj import boolean_generic_join, generic_join


def test_interner_is_stable_and_dense():
    interner = Interner()
    codes = [interner.intern(v) for v in ("a", "b", "a", 7, "b")]
    assert codes == [0, 1, 0, 2, 1]
    assert len(interner) == 3
    assert [interner.decode(c) for c in (0, 1, 2)] == ["a", "b", 7]


def test_sorted_trie_runs_and_descent():
    interner = Interner()
    rel = Relation("R", ("x", "y"), [(1, 2), (1, 3), (2, 2)])
    state = KernelState()
    table = state.table(rel)
    trie = SortedTrieIndex(table.matrix, (0, 1))
    assert trie.depth == 2
    assert trie.nroot == 2  # two distinct x values
    # Each root run's children cover its (lo, hi) slice at level 1.
    widths = [
        trie.next_hi[0][r] - trie.next_lo[0][r] for r in range(trie.nroot)
    ]
    assert sorted(widths) == [1, 2]
    assert len(trie.ulist[1]) == 3


def test_empty_relation_trie():
    rel = Relation("R", ("x", "y"))
    state = KernelState()
    trie = state.sorted_trie(rel, (0, 1))
    assert trie.nroot == 0
    assert trie.ulist == [[], []]


def test_kernel_state_caches_until_version_changes():
    rel = Relation("R", ("x", "y"), [(1, 2)])
    state = KernelState()
    first = state.sorted_trie(rel, (0, 1))
    assert state.sorted_trie(rel, (0, 1)) is first
    assert state.sorted_trie(rel, (1, 0)) is not first  # other prefix order
    rel.add((3, 4))
    rebuilt = state.sorted_trie(rel, (0, 1))
    assert rebuilt is not first
    assert rebuilt.nroot == 2


def test_hash_trie_cache_matches_fresh_build():
    rel = Relation("R", ("x", "y"), [(1, 2), (1, 3)])
    state = KernelState()
    root = state.hash_trie(rel, (0, 1))
    assert root == {1: {2: {}, 3: {}}}
    assert state.hash_trie(rel, (0, 1)) is root
    rel.add((2, 2))
    assert state.hash_trie(rel, (0, 1)) == {1: {2: {}, 3: {}}, 2: {2: {}}}


def _view(attrs, rows):
    return TableView(
        tuple(attrs), np.array(rows, dtype=np.int64).reshape(len(rows), len(attrs))
    )


def test_pairwise_join_matches_and_charges():
    left = _view(("a", "b"), [(0, 1), (0, 2), (3, 3)])
    right = _view(("b", "c"), [(1, 5), (1, 6), (2, 5)])
    counter = CostCounter()
    out = pairwise_join(left, right, counter)
    assert out.attributes == ("a", "b", "c")
    assert sorted(map(tuple, out.matrix.tolist())) == [
        (0, 1, 5),
        (0, 1, 6),
        (0, 2, 5),
    ]
    # |R| build + |L| probe + one per matching pair.
    assert counter.total == 3 + 3 + 3


def test_pairwise_join_cross_product_when_no_shared():
    left = _view(("a",), [(0,), (1,)])
    right = _view(("b",), [(5,), (6,)])
    counter = CostCounter()
    out = pairwise_join(left, right, counter)
    assert sorted(map(tuple, out.matrix.tolist())) == [
        (0, 5),
        (0, 6),
        (1, 5),
        (1, 6),
    ]
    assert counter.total == 2 + 2 + 4


def test_pairwise_join_empty_side():
    left = _view(("a", "b"), [(0, 1)])
    right = TableView(("b", "c"), np.empty((0, 2), np.int64))
    out = pairwise_join(left, right)
    assert len(out) == 0
    assert out.attributes == ("a", "b", "c")


@st.composite
def _distinct_view(draw, pool):
    """A duplicate-free view over a nonempty attribute subset of ``pool``."""
    attrs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    rows = draw(
        st.lists(
            st.tuples(*[st.integers(0, 3)] * len(attrs)), max_size=12, unique=True
        )
    )
    return _view(attrs, rows)


@given(
    left=_distinct_view(("a", "b", "c")),
    right=_distinct_view(("b", "c", "d")),
    cross=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_pairwise_join_of_distinct_views_has_no_duplicates(left, right, cross):
    if cross:
        # Rename the right view apart: a no-shared cross product.
        right = TableView(tuple(a + "'" for a in right.attributes), right.matrix)
    out = pairwise_join(left, right)
    rows = list(map(tuple, out.matrix.tolist()))
    assert len(set(rows)) == len(rows)
    expected = set()
    for lrow in map(tuple, left.matrix.tolist()):
        lval = dict(zip(left.attributes, lrow))
        for rrow in map(tuple, right.matrix.tolist()):
            rval = dict(zip(right.attributes, rrow))
            if all(lval[a] == rval[a] for a in lval.keys() & rval.keys()):
                merged = {**rval, **lval}
                expected.add(tuple(merged[a] for a in out.attributes))
    assert set(rows) == expected


#: Codes of at least 2**32 over two or more columns overflow the packed
#: int64 key, so those examples take the np.unique(axis=0) fallback.
_NARROW_CODES = list(range(7))
_WIDE_CODES = [0, 1, 2**32, 2**40 + 5, 2**45 + 3]


def _matrices(codes):
    return st.integers(1, 3).flatmap(
        lambda ncols: st.lists(
            st.lists(st.sampled_from(codes), min_size=ncols, max_size=ncols)
        ).map(lambda rows: np.array(rows, dtype=np.int64).reshape(len(rows), ncols))
    )


@given(matrix=st.one_of(_matrices(_NARROW_CODES), _matrices(_WIDE_CODES)))
# Keys in base max + 1 are distinct; one digit less would merge the
# first two rows (1 * 2 + 0 == 0 * 2 + 2).
@example(matrix=np.array([[1, 0], [0, 2], [0, 2], [2, 2]], dtype=np.int64))
@settings(max_examples=150, deadline=None)
def test_unique_rows_matches_numpy_unique(matrix):
    got = _unique_rows(matrix)
    want = np.unique(matrix, axis=0)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@given(
    left=_distinct_view(("a", "b", "c")),
    right=_distinct_view(("b", "c", "d")),
)
@settings(max_examples=100, deadline=None)
def test_join_gather_indices_name_each_output_rows_sources(left, right):
    counter = CostCounter()
    out, left_idx, right_idx = join_gather(left, right, counter)
    assert np.array_equal(out.matrix, pairwise_join(left, right).matrix)
    assert counter.total == len(left) + len(right) + len(out)
    for row, i, j in zip(out.matrix.tolist(), left_idx, right_idx):
        merged = dict(zip(right.attributes, right.matrix[j].tolist()))
        merged.update(zip(left.attributes, left.matrix[i].tolist()))
        assert row == [merged[a] for a in out.attributes]


@given(matrix=st.one_of(_matrices(_NARROW_CODES), _matrices(_WIDE_CODES)))
@settings(max_examples=150, deadline=None)
def test_group_rows_makes_equal_rows_contiguous(matrix):
    order, starts = group_rows(matrix)
    assert sorted(order.tolist()) == list(range(len(matrix)))
    grouped = matrix[order]
    bounds = starts.tolist() + [len(matrix)]
    firsts = grouped[starts] if len(matrix) else matrix[:0]
    assert np.array_equal(firsts, np.unique(matrix, axis=0))
    for lo, hi in zip(bounds, bounds[1:]):
        assert (grouped[lo:hi] == grouped[lo]).all()


def test_group_rows_without_columns_is_one_group():
    order, starts = group_rows(np.empty((3, 0), dtype=np.int64))
    assert order.tolist() == [0, 1, 2] and starts.tolist() == [0]
    order, starts = group_rows(np.empty((0, 0), dtype=np.int64))
    assert order.tolist() == [] and starts.tolist() == []


@pytest.mark.parametrize("big", [3, 2**31, 2**40, 2**62, 2**70])
def test_counting_values_stay_exact_past_int64(big):
    values = [big, big, 1, big, 5]
    array = value_array(COUNTING, values)
    assert array.dtype == (np.int64 if big < 2**63 else object)
    sums = segment_fold(COUNTING, array, [0, 2, 4]).tolist()
    assert sums == [2 * big, 1 + big, 5]
    products = value_product(COUNTING, array, array).tolist()
    assert products == [v * v for v in values]
    assert all(type(v) is int for v in sums + products)


def test_segment_fold_matches_the_scalar_fold_for_annotated_semirings():
    for semiring in (MIN_PLUS, PROVENANCE):
        values = [semiring.annotate("R", (i % 3,)) for i in range(7)]
        values[4] = semiring.mul(values[4], values[1])
        folded = segment_fold(semiring, value_array(semiring, values), [0, 3, 6])
        bounds = [0, 3, 6, 7]
        want = []
        for lo, hi in zip(bounds, bounds[1:]):
            acc = values[lo]
            for v in values[lo + 1 : hi]:
                acc = semiring.add(acc, v)
            want.append(acc)
        assert folded.tolist() == want


def test_semijoin_filters_and_charges():
    left = _view(("a", "b"), [(0, 1), (2, 9), (4, 1)])
    right = _view(("b", "c"), [(1, 7)])
    counter = CostCounter()
    out = semijoin(left, right, counter)
    assert sorted(map(tuple, out.matrix.tolist())) == [(0, 1), (4, 1)]
    assert counter.total == 1 + 3
    # No shared attributes: cross-guard keeps everything iff right
    # nonempty, charging nothing (mirrors the naive kernel).
    counter2 = CostCounter()
    guard = semijoin(_view(("a",), [(0,)]), _view(("z",), [(1,)]), counter2)
    assert len(guard) == 1 and counter2.total == 0


def test_project_view_dedups():
    view = _view(("a", "b"), [(0, 1), (0, 2), (0, 1)])
    out = project_view(view, ("a",))
    assert sorted(map(tuple, out.matrix.tolist())) == [(0,)]


def test_to_relation_decodes_values():
    interner = Interner()
    codes = [[interner.intern(v) for v in row] for row in [("u", 3), ("w", 4)]]
    view = _view(("a", "b"), codes)
    rel = to_relation(view, interner, "answer")
    assert rel.attributes == ("a", "b")
    assert sorted(rel.tuples) == [("u", 3), ("w", 4)]


def test_with_backend_shares_data_and_validates():
    db = Database([Relation("R", ("x",), [(1,)])])
    col = db.with_backend("columnar")
    assert col.backend == "columnar"
    assert col.relation("R") is db.relation("R")
    assert col.kernels is db.kernels
    assert col.with_backend("columnar") is col
    assert db.with_backend("naive") is db
    with pytest.raises(SchemaError):
        db.with_backend("gpu")
    with pytest.raises(SchemaError):
        Database(backend="vectorized")


def test_indexes_shared_across_backend_views():
    rows = [(0, 1), (1, 2), (0, 2)]
    db = Database(
        [Relation(n, ("x", "y"), rows) for n in ("R1", "R2", "R3")]
    )
    query = JoinQuery.triangle()
    col = db.with_backend("columnar")
    generic_join(query, col)
    # The columnar run populated the shared cache; a second run on
    # either view reuses the same trie objects.
    trie = db.kernels.sorted_trie(db.relation("R1"), (0, 1))
    generic_join(query, col)
    assert db.kernels.sorted_trie(db.relation("R1"), (0, 1)) is trie


def test_single_attribute_atoms():
    # Depth-1 tries: intersection of two unary relations.
    query = JoinQuery([Atom("A", ("v",)), Atom("B", ("v",))])
    db = Database(
        [
            Relation("A", ("x",), [(1,), (2,), (3,)]),
            Relation("B", ("x",), [(2,), (3,), (4,)]),
        ]
    )
    c1, c2 = CostCounter(), CostCounter()
    naive = generic_join(query, db, counter=c1)
    col = generic_join(query, db.with_backend("columnar"), counter=c2)
    assert sorted(naive.tuples) == sorted(col.tuples) == [(2,), (3,)]
    assert c1.total == c2.total


def _diagonal_triangle(width: int, shift: int) -> Database:
    """Triangle data on ``width`` root values; every root value closes a
    triangle when ``shift`` is 0 and none does otherwise."""
    diagonal = [(i, i) for i in range(width)]
    return Database(
        [
            Relation("R1", ("x", "y"), diagonal),
            Relation("R2", ("x", "y"), diagonal),
            Relation("R3", ("x", "y"), [(i, i + shift) for i in range(width)]),
        ]
    )


def test_first_witness_walk_charges_only_what_it_examines():
    # The root is wide enough for the full walk's vector path, which
    # intersects every root candidate before descending; the
    # first-witness walk seeks one candidate at a time and stops inside
    # its first root candidate.
    width = 2 * SCALAR_THRESHOLD
    query = JoinQuery.triangle()
    columnar = _diagonal_triangle(width, shift=0).with_backend("columnar")
    counter = CostCounter()
    assert boolean_generic_join(query, columnar, counter=counter)
    assert counter.total < width
    full = CostCounter()
    generic_join(query, columnar, counter=full)
    assert full.total > width


def test_first_witness_walk_never_intersects_a_whole_node(monkeypatch):
    import repro.relational.kernels as kernels

    def whole_node(*args):
        raise AssertionError("the first-witness walk intersected a whole node")

    monkeypatch.setattr(kernels, "_leapfrog", whole_node)
    query = JoinQuery.triangle()
    db = _diagonal_triangle(2 * SCALAR_THRESHOLD, shift=1).with_backend("columnar")
    assert not boolean_generic_join(query, db)
    with pytest.raises(AssertionError, match="whole node"):
        generic_join(query, db)


def test_first_witness_walk_on_empty_answer_charges_the_full_walk():
    query = JoinQuery.triangle()
    db = _diagonal_triangle(2 * SCALAR_THRESHOLD, shift=1)
    for database in (db, db.with_backend("columnar")):
        c_first, c_full = CostCounter(), CostCounter()
        assert not boolean_generic_join(query, database, counter=c_first)
        assert not generic_join(query, database, counter=c_full).tuples
        assert c_first.total == c_full.total > 0
