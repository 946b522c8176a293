"""Coded enumerate answers are written exactly as the ``repr`` path
writes them.

On the columnar backend the service writes an enumerate answer from
its interned codes: rows ordered by the ranks of their values' reprs,
text gathered from per-value JSON tokens
(:class:`~repro.relational.kernels.AnswerWriter`). The contract is the
text the service always sent: ``json.dumps`` of the answer tuples
sorted by ``repr``. The values are drawn to break that order if it
could break: ints sharing digit prefixes, floats with exponents and
infinities, strings with both quote kinds, backslashes, ``,``, ``]``,
``)``, control and non-ASCII characters, booleans and null.
"""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.relational.database import Database
from repro.relational.kernels import WRITE_CHUNK_ROWS, AnswerWriter, CodedRelation
from repro.relational.query import Atom, JoinQuery
from repro.relational.relation import Relation
from repro.relational.router import execute_route
from repro.service.executor import answers_json, canonical_answers
from repro.service.store import database_from_payload

INTS = [0, 1, 2, 12, 123, -1, -12, 10**20, -(10**20)]
FLOATS = [1.5, 0.5, 1e16, 1e160, 1e-05, 1.5e-05, math.inf, -math.inf, -0.0, math.nan]
STRINGS = [
    "", "1", "a", "ab", "a'b", 'a"b', "a'\"b", "\\", "a\\b", ",", "]", ")",
    "a,b", "(", "\x00", "\n", "\t", "\x7f", "é", "日本", "\U0001f600",
]
OTHERS = [True, False, None]
VALUES = st.sampled_from(INTS + FLOATS + STRINGS + OTHERS)


def _reference(relation) -> str:
    """The text the ``repr`` path writes: what the service sent before
    answers stayed codes."""
    return json.dumps(canonical_answers(relation.tuples), sort_keys=True, default=repr)


def _queries(width: int, mask: int) -> list[tuple[JoinQuery, tuple]]:
    """One query per engine the relation's width allows: the atom
    itself projected to a subset (factorized); for binary relations
    also the 2-path projected to its endpoints (yannakakis) and the
    triangle (wcoj)."""
    attrs = tuple(f"a{i}" for i in range(width))
    free = tuple(a for i, a in enumerate(attrs) if mask & (1 << i)) or attrs
    queries = [(JoinQuery([Atom("R", attrs)]), free)]
    if width == 2:
        path = JoinQuery([Atom("R", ("x", "y")), Atom("R", ("y", "z"))])
        triangle = JoinQuery(
            [Atom("R", ("x", "y")), Atom("R", ("y", "z")), Atom("R", ("x", "z"))]
        )
        queries += [(path, ("x", "z")), (triangle, None)]
    return queries


def _equal_values_differ_in_repr(rows) -> bool:
    """Do two equal values of different reprs occur (``1``, ``1.0``,
    ``true``)? The interner keeps one of them, so the backends disagree
    on which one an answer shows."""
    values = [v for row in rows for v in row]
    return len(set(map(repr, values))) != len(set(values))


@settings(max_examples=150, deadline=None)
@given(
    width=st.integers(min_value=1, max_value=4),
    rows=st.data(),
    mask=st.integers(min_value=0, max_value=15),
)
def test_coded_text_equals_the_repr_path(width, rows, mask):
    rows = rows.draw(
        st.lists(st.lists(VALUES, min_size=width, max_size=width), max_size=14)
    )
    attrs = [f"a{i}" for i in range(width)]
    payload = [{"name": "R", "attributes": attrs, "tuples": rows}]
    clash = _equal_values_differ_in_repr(rows)
    if clash:
        # The service rejects such a database; the library holds it.
        with pytest.raises(SchemaError, match="must not be equal in Python"):
            database_from_payload(payload)
        database = Database([Relation("R", tuple(attrs), rows)], backend="columnar")
    else:
        database = database_from_payload(payload, backend="columnar")
        naive = database_from_payload(payload, backend="naive")
    for query, free in _queries(width, mask):
        answer = execute_route(query, database, free=free)
        # Only an empty factorized answer is not held as codes.
        assert isinstance(answer.relation, CodedRelation) or not len(answer.relation)
        coded = answers_json(answer.relation, database.kernels)
        assert database.kernels.answer_writer() is not None
        # Reading the tuples decodes them; only now is the reference built.
        assert coded == _reference(answer.relation)
        if not clash:
            flat = execute_route(query, naive, free=free).relation
            assert answers_json(flat, naive.kernels) == coded


def _served_text(database: Database) -> str:
    answer = execute_route(JoinQuery([Atom("R", ("a", "b"))]), database)
    return answers_json(answer.relation, database.kernels)


def test_tuple_cells_fall_back_to_the_repr_path():
    # A library database may hold any hashable value: tuples write as
    # JSON lists, and lists sort differently from tuples' reprs.
    rows = [((1, 2), 3), ((1, 23), 4), ((1,), "x"), ((), None)]
    database = Database([Relation("R", ("a", "b"), rows)], backend="columnar")
    text = _served_text(database)
    assert database.kernels.answer_writer() is None
    assert text == _reference(Relation("R", ("a", "b"), rows))
    assert json.loads(text)[0] == [[], None]


def test_distinct_nans_fall_back_to_the_repr_path():
    # Two NaN objects are two interned values with one repr: their
    # ranks would tie, so only sorted(key=repr) is exact.
    rows = [(float("nan"), 2), (float("nan"), 1), (0.5, 3)]
    database = Database([Relation("R", ("a", "b"), rows)], backend="columnar")
    text = _served_text(database)
    assert database.kernels.answer_writer() is None
    assert text == "[[0.5, 3], [NaN, 1], [NaN, 2]]"


def test_writer_is_built_on_first_use_and_kept_until_the_interner_grows():
    database = database_from_payload(
        [{"name": "R", "attributes": ["a", "b"], "tuples": [[1, "x"], [2, "y"]]}]
    )
    state = database.kernels
    assert state._writer is None
    _served_text(database)
    writer = state.answer_writer()
    assert isinstance(writer, AnswerWriter)
    assert state.answer_writer() is writer
    state.interner.intern("new")
    assert state.answer_writer() is not writer


@pytest.mark.parametrize(
    "size, width, count",
    # Packed rank keys over several chunks; four ranks among 60,000
    # values overflow one int64 key and sort by lexsort.
    [(120, 2, 3 * WRITE_CHUNK_ROWS + 5), (60_000, 4, WRITE_CHUNK_ROWS + 1)],
)
def test_long_answers_write_across_chunks(size, width, count):
    values = [f"v{i}" if i % 3 else i for i in range(size)]
    writer = AnswerWriter.build(values)
    rng = random.Random(7)
    codes: set = set()
    while len(codes) < count:
        codes.add(tuple(rng.randrange(size) for _ in range(width)))
    rows = {tuple(values[c] for c in row) for row in codes}
    text = writer.write(np.array(sorted(codes), dtype=np.int64))
    assert text == json.dumps(canonical_answers(rows))
