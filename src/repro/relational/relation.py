"""Named relations: tables with attribute-labeled columns (§2.1)."""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator

from ..errors import ArityMismatchError, SchemaError, UnknownAttributeError

Value = Hashable
Tuple_ = tuple[Value, ...]


class Relation:
    """An instance of a relation: a set of tuples over named attributes.

    Attributes are an ordered tuple of distinct names; tuples are
    deduplicated (set semantics, as in the paper's answer sets).

    Examples
    --------
    >>> r = Relation("R", ("a", "b"), [(1, 2), (1, 3)])
    >>> len(r)
    2
    >>> sorted(r.column("a"))
    [1]
    """

    def __init__(
        self,
        name: str,
        attributes: Iterable[str],
        tuples: Iterable[Iterable[Value]] = (),
    ) -> None:
        self.name = name
        self.attributes: tuple[str, ...] = tuple(attributes)
        if len(set(self.attributes)) != len(self.attributes):
            raise SchemaError(f"relation {name!r} repeats an attribute: {self.attributes}")
        if not self.attributes:
            raise SchemaError(f"relation {name!r} needs at least one attribute")
        self._index = {a: i for i, a in enumerate(self.attributes)}
        self.tuples: set[Tuple_] = set()
        #: Monotone mutation counter; index caches key on it so a
        #: mutated relation invalidates every derived index (the
        #: backends in :mod:`repro.relational.kernels` check it on
        #: every lookup rather than subscribing to mutations).
        self.version: int = 0
        for t in tuples:
            self.add(t)

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def add(self, values: Iterable[Value]) -> None:
        """Insert a tuple; its length must equal the arity."""
        t = tuple(values)
        if len(t) != self.arity:
            raise ArityMismatchError(
                f"tuple {t!r} has length {len(t)}, relation {self.name!r} has arity {self.arity}"
            )
        self.tuples.add(t)
        self.version += 1

    def position(self, attribute: str) -> int:
        """Column index of ``attribute``."""
        if attribute not in self._index:
            raise UnknownAttributeError(
                f"attribute {attribute!r} not in relation {self.name!r} {self.attributes}"
            )
        return self._index[attribute]

    def has_attribute(self, attribute: str) -> bool:
        return attribute in self._index

    def column(self, attribute: str) -> set[Value]:
        """The set of values appearing in ``attribute``'s column."""
        pos = self.position(attribute)
        return {t[pos] for t in self.tuples}

    def as_dicts(self) -> Iterator[dict[str, Value]]:
        """Iterate tuples as attribute→value dicts."""
        for t in self.tuples:
            yield dict(zip(self.attributes, t))

    def matches(self, t: Tuple_, assignment: dict[str, Value]) -> bool:
        """Does tuple ``t`` agree with ``assignment`` on shared attributes?"""
        return all(
            t[self._index[a]] == v
            for a, v in assignment.items()
            if a in self._index
        )

    def active_domain(self) -> set[Value]:
        """All values appearing anywhere in the relation."""
        return {v for t in self.tuples for v in t}

    def renamed(self, mapping: dict[str, str]) -> "Relation":
        """A copy with attributes renamed through ``mapping`` (identity
        for attributes not mentioned)."""
        new_attrs = tuple(mapping.get(a, a) for a in self.attributes)
        return Relation(self.name, new_attrs, self.tuples)

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[Tuple_]:
        return iter(self.tuples)

    def __contains__(self, t: object) -> bool:
        return t in self.tuples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.name == other.name
            and self.attributes == other.attributes
            and self.tuples == other.tuples
        )

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, {self.attributes}, |T|={len(self)})"
