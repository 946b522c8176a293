"""The persistent database store behind the query service.

Databases are registered once (JSON relation payloads) and stay
resident: the :class:`~repro.relational.database.Database` object —
and with it the :class:`~repro.relational.kernels.KernelState`
interner and index caches — survives across requests, so tries built
for the first query of a shape are reused by every later one (the
index-reuse assumption the columnar backend is designed around).

Each database carries a content *fingerprint*: a SHA-256 over the
canonical serialization of its relations. The fingerprint is the
store's contribution to plan-cache keys — mutate or re-register a
database and every cached plan for the old content stops matching,
the same source-hash invalidation discipline the experiment result
cache uses. Fingerprints are memoized against the relations' monotone
``version`` counters, so the common no-mutation case costs two integer
comparisons, not a re-hash.

With a ``directory``, registrations are also persisted as one JSON
file per database and reloaded on boot — a restart serves the same
catalog without re-registration.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Sequence
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path

from ..errors import SchemaError
from ..relational.database import Database
from ..relational.kernels import BACKENDS, SCALAR_TYPES
from ..relational.relation import Relation


def relations_payload(database: Database) -> list[dict]:
    """The canonical JSON form of a database's relations
    (:func:`_canonical_payload`), so logically equal databases (set
    semantics) serialize byte-identically regardless of insertion
    order. For a database :func:`database_from_payload` built, these
    are the relations and rows it was built from, in the order it
    inserted them: re-derived from the relations' sets, since the store
    keeps no second copy of a payload.
    """
    return _canonical_payload(
        (rel.name, rel.attributes, map(list, rel.tuples))
        for rel in database.relations()
    )


def _require_list(value, what: str, item: type | None = None) -> None:
    """Raise :class:`SchemaError` unless ``value`` is a JSON list (of
    ``item`` values, if given).

    A string iterates like a list (``tuple("xy") == ("x", "y")``), so
    the decoders check shapes here instead of coercing with ``tuple``.
    """
    if isinstance(value, list) and (
        item is None or all(map(isinstance, value, repeat(item)))
    ):
        return
    shape = "a list" if item is None else f"a list of {item.__name__} values"
    raise SchemaError(f"{what} must be {shape}, got {value!r}")


def _require_scalars(values: list, what: str) -> None:
    """Raise :class:`SchemaError` unless every item of the list
    ``values`` is a JSON scalar, naming the first that is not and its
    position.

    JSON scalars (:data:`~repro.relational.kernels.SCALAR_TYPES`) are
    the only values a relation's tuples and a ``/solve`` domain, scope,
    variable list or allowed row may hold: a list or object is not
    hashable, and the answer writer ranks only scalars.
    """
    if SCALAR_TYPES.issuperset(map(type, values)):
        return
    position, value = next(
        (i, v) for i, v in enumerate(values) if type(v) not in SCALAR_TYPES
    )
    raise SchemaError(
        f"{what} must hold only JSON scalars (strings, numbers, booleans, "
        f"null), got {value!r} at position {position}"
    )


def _require_scalar_rows(rows: list[list], what: str) -> set[type]:
    """:func:`_require_scalars` for each row of ``rows``, whose error
    names the row: one pass over every value's type, and only a
    rejected payload pays to find the row. Returns the value types."""
    types = set(map(type, chain.from_iterable(rows)))
    if types <= SCALAR_TYPES:
        return types
    for index, row in enumerate(rows):
        _require_scalars(row, f"{what} row {index}")
    return types


#: The value types :func:`_require_distinct_values` compares.
_NUMBER_TYPES = (int, float, bool)


def _require_distinct_values(payload: list[dict]) -> None:
    """Raise :class:`SchemaError` if two values of one database are
    equal in Python but differ in type or ``repr``, naming the relation
    and row of the second and both values.

    JSON tells ``0``, ``false`` and ``-0.0`` apart, and ``1``, ``1.0``
    and ``true``; Python equates each group, so the database's interner
    would keep one value for all of them and the backends would answer
    differently. Only numbers can clash.

    Complexity: O(values in the payload).
    """
    seen: dict = {}
    for entry in payload:
        for index, row in enumerate(entry["tuples"]):
            for value in row:
                if type(value) not in _NUMBER_TYPES:
                    continue
                first = seen.setdefault(value, value)
                if first is value or (
                    type(first) is type(value) and repr(first) == repr(value)
                ):
                    continue
                raise SchemaError(
                    f"relation {entry['name']!r} row {index} holds {value!r}, "
                    f"which equals {first!r} elsewhere in the database: values "
                    "that JSON tells apart must not be equal in Python"
                )


def _require_keys(
    entry: dict, what: str, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> None:
    """Raise :class:`SchemaError` unless ``entry`` has every ``required``
    key and no key outside ``required`` and ``optional``.

    A misspelt key is an error, not an ignored field: a query's
    ``"fre"`` would otherwise be answered as the unprojected join.
    """
    unknown = [key for key in entry if key not in required and key not in optional]
    if unknown:
        raise SchemaError(f"{what} has unknown keys {unknown}")
    for key in required:
        if key not in entry:
            raise SchemaError(f"{what} missing key {key!r}")


def _canonical_payload(
    relations: Iterable[tuple[str, Sequence[str], Iterable[list]]],
) -> list[dict]:
    """The canonical relations payload of ``(name, attributes, rows)``
    triples: the relations in name order, each one's rows sorted by
    ``repr`` with duplicates dropped. It is the one row sequence of a
    registered database: every copy of it inserts its rows in this
    order, and the fingerprint hashes it.

    Validated rows that are equal in Python have one ``repr``
    (:func:`_require_distinct_values`), so duplicates end up adjacent.

    Complexity: O(n log n) comparisons for n rows.
    """
    payload = []
    for name, attributes, rows in sorted(relations, key=itemgetter(0)):
        ordered = sorted(rows, key=repr)
        payload.append(
            {
                "name": name,
                "attributes": list(attributes),
                "tuples": [
                    row for row, before in zip(ordered, [None, *ordered])
                    if row != before
                ],
            }
        )
    return payload


def _build(payload: list[dict], backend: str) -> tuple[Database, list[dict]]:
    """:func:`database_from_payload`'s database, and its canonical
    relations payload (:func:`_canonical_payload`): the relations and
    rows it was built from, in the order it inserted them -- what
    :func:`relations_payload` would re-derive from the database."""
    if not isinstance(payload, list) or not payload:
        raise SchemaError("relations payload must be a non-empty list")
    validated = []
    types: set[type] = set()
    for entry in payload:
        if not isinstance(entry, dict):
            raise SchemaError(f"relation entry must be an object, got {entry!r}")
        _require_keys(entry, "relation entry", ("name", "attributes", "tuples"))
        name, attributes, tuples = entry["name"], entry["attributes"], entry["tuples"]
        if not isinstance(name, str):
            raise SchemaError(f"relation 'name' must be a string, got {name!r}")
        _require_list(attributes, "relation 'attributes'", str)
        _require_list(tuples, "relation 'tuples'", list)
        types |= _require_scalar_rows(tuples, f"relation {name!r}")
        validated.append((name, attributes, tuples))
    if float in types or (bool in types and int in types):
        _require_distinct_values(payload)
    canonical = _canonical_payload(validated)
    # ``Relation.add`` makes each row a tuple.
    relations = [
        Relation(entry["name"], tuple(entry["attributes"]), entry["tuples"])
        for entry in canonical
    ]
    return Database(relations, backend=backend), canonical


def database_from_payload(payload: list[dict], backend: str = "columnar") -> Database:
    """Build a :class:`Database` from a relations payload.

    Each entry has exactly a string ``name``, ``attributes`` as a list
    of strings and ``tuples`` as a list of lists of JSON scalars, and no
    two values of the database are equal in Python but different in JSON
    (:func:`_require_distinct_values`, checked only when the value types
    allow a clash: a float, or a bool beside an int); anything else is a
    :class:`SchemaError`, never coerced.

    The relations are added in name order and each inserts its rows
    sorted by ``repr``, duplicates dropped, whatever order the payload
    lists them in (:func:`_canonical_payload`). That is the one row
    sequence of a registered database: the store's database, the
    fingerprint and every shard replica are built from it, so the
    copies' interners hand out the same codes wherever a value's hash
    does not depend on the process (ints, floats and booleans; ``null``
    from Python 3.12). A string's hash is seeded per process, so a
    string-valued replica still interns in its own order.
    """
    return _build(payload, backend)[0]


def fingerprint_payload(payload: list[dict]) -> str:
    """SHA-256 over the canonical relations JSON."""
    material = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(material.encode()).hexdigest()


class _Entry:
    __slots__ = ("database", "fingerprint", "content_version")

    def __init__(self, database: Database, fingerprint: str, content_version: int):
        self.database = database
        self.fingerprint = fingerprint
        self.content_version = content_version


def _content_version(database: Database) -> int:
    return sum(rel.version for rel in database.relations())


class DatabaseStore:
    """Named resident databases with memoized content fingerprints."""

    def __init__(
        self, directory: Path | str | None = None, backend: str = "columnar"
    ) -> None:
        if backend not in BACKENDS:
            raise SchemaError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        self.backend = backend
        self.directory = Path(directory) if directory is not None else None
        self._entries: dict[str, _Entry] = {}
        if self.directory is not None and self.directory.is_dir():
            for path in sorted(self.directory.glob("*.json")):
                payload = json.loads(path.read_text(encoding="utf-8"))
                self._install(path.stem, payload)

    def _install(self, name: str, payload: list[dict]) -> _Entry:
        # Fingerprint the canonical rows the database was built from, not
        # the wire payload: logically equal registrations (same tuples,
        # any order, any repeats) share one fingerprint and therefore one
        # set of cached plans.
        database, canonical = _build(payload, self.backend)
        entry = _Entry(
            database, fingerprint_payload(canonical), _content_version(database)
        )
        self._entries[name] = entry
        return entry

    def register(self, name: str, payload: list[dict]) -> str:
        """(Re-)register ``name`` from a relations payload; returns the
        fingerprint. Re-registration replaces the old database wholesale
        — its fingerprint changes with the content, so stale cached
        plans stop matching."""
        if not name or "/" in name or name.startswith("."):
            raise SchemaError(f"invalid database name {name!r}")
        entry = self._install(name, payload)
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp = self.directory / f"{name}.json.tmp"
            tmp.write_text(
                json.dumps(payload, sort_keys=True, indent=None), encoding="utf-8"
            )
            tmp.replace(self.directory / f"{name}.json")
        return entry.fingerprint

    def get(self, name: str) -> Database:
        entry = self._entries.get(name)
        if entry is None:
            raise SchemaError(f"no database registered under {name!r}")
        return entry.database

    def fingerprint(self, name: str) -> str:
        """The content fingerprint, re-hashed only after a mutation."""
        entry = self._entries.get(name)
        if entry is None:
            raise SchemaError(f"no database registered under {name!r}")
        current = _content_version(entry.database)
        if current != entry.content_version:
            payload = relations_payload(entry.database)
            entry.fingerprint = fingerprint_payload(payload)
            entry.content_version = current
        return entry.fingerprint

    def canonical_payload(self, name: str) -> list[dict]:
        """The canonical relations payload of a registered database,
        re-derived from its relations (:func:`relations_payload`): the
        form the fingerprint hashes, and the one the sharded executor
        replicates when it holds no registration payload (at start, to
        a respawned worker, on a stale retry). It lists the rows in the
        order the database was built from, which is also the order
        :func:`database_from_payload` puts any payload of this content
        in, so a replica inserts them as the store's database did."""
        return relations_payload(self.get(name))

    def names(self) -> list[str]:
        return sorted(self._entries)

    def describe(self) -> dict:
        """The ``/databases`` listing payload."""
        described = {}
        for name in self.names():
            database = self._entries[name].database
            described[name] = {
                "backend": database.backend,
                "relations": {
                    rel.name: len(rel) for rel in database.relations()
                },
                "fingerprint": self.fingerprint(name),
            }
        return described

    def __len__(self) -> int:
        return len(self._entries)
