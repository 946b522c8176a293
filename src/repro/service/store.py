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
from itertools import chain, repeat
from pathlib import Path

from ..errors import SchemaError
from ..relational.database import Database
from ..relational.kernels import BACKENDS, SCALAR_TYPES
from ..relational.relation import Relation


def relations_payload(database: Database) -> list[dict]:
    """The canonical JSON form of a database's relations.

    Tuples are sorted by ``repr`` so logically equal databases (set
    semantics) serialize byte-identically regardless of insertion
    order.
    """
    return [
        {
            "name": rel.name,
            "attributes": list(rel.attributes),
            "tuples": sorted((list(t) for t in rel.tuples), key=repr),
        }
        for rel in sorted(database.relations(), key=lambda r: r.name)
    ]


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


def _require_scalar_rows(rows: list[list], what: str) -> None:
    """:func:`_require_scalars` for each row of ``rows``, whose error
    names the row: one pass over every value's type, and only a
    rejected payload pays to find the row."""
    if set(map(type, chain.from_iterable(rows))) <= SCALAR_TYPES:
        return
    for index, row in enumerate(rows):
        _require_scalars(row, f"{what} row {index}")


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


def database_from_payload(payload: list[dict], backend: str = "columnar") -> Database:
    """Build a :class:`Database` from a relations payload.

    Each entry has exactly a string ``name``, ``attributes`` as a list
    of strings and ``tuples`` as a list of lists of JSON scalars;
    anything else is a :class:`SchemaError`, never coerced.
    """
    if not isinstance(payload, list) or not payload:
        raise SchemaError("relations payload must be a non-empty list")
    relations = []
    for entry in payload:
        if not isinstance(entry, dict):
            raise SchemaError(f"relation entry must be an object, got {entry!r}")
        _require_keys(entry, "relation entry", ("name", "attributes", "tuples"))
        name, attributes, tuples = entry["name"], entry["attributes"], entry["tuples"]
        if not isinstance(name, str):
            raise SchemaError(f"relation 'name' must be a string, got {name!r}")
        _require_list(attributes, "relation 'attributes'", str)
        _require_list(tuples, "relation 'tuples'", list)
        _require_scalar_rows(tuples, f"relation {name!r}")
        # ``Relation.add`` makes each row a tuple.
        relations.append(Relation(name, tuple(attributes), tuples))
    return Database(relations, backend=backend)


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
        database = database_from_payload(payload, backend=self.backend)
        # Fingerprint the *canonical* form, not the wire payload:
        # logically equal registrations (same tuples, any order) share
        # one fingerprint and therefore one set of cached plans.
        canonical = relations_payload(database)
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
        """The canonical relations payload of a registered database —
        the exact bytes-equivalent form the fingerprint hashes, and the
        form the sharded executor ships to worker replicas (so replica
        and parent agree on content by construction)."""
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
