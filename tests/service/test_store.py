"""DatabaseStore: fingerprints, persistence, validation."""

import pytest

from repro.errors import SchemaError
from repro.service.store import DatabaseStore, fingerprint_payload


EDGES = [[1, 2], [2, 3], [1, 3]]


def relations(tuples=EDGES):
    return [
        {"name": "R1", "attributes": ["a1", "a2"], "tuples": tuples},
        {"name": "R2", "attributes": ["a2", "a3"], "tuples": tuples},
    ]


class TestDatabaseStore:
    def test_register_and_get(self):
        store = DatabaseStore()
        fingerprint = store.register("demo", relations())
        assert len(fingerprint) == 64
        database = store.get("demo")
        assert sorted(r.name for r in database.relations()) == ["R1", "R2"]
        assert store.names() == ["demo"]

    def test_fingerprint_ignores_tuple_order(self):
        store_a, store_b = DatabaseStore(), DatabaseStore()
        fp_a = store_a.register("d", relations([[1, 2], [3, 4]]))
        fp_b = store_b.register("d", relations([[3, 4], [1, 2]]))
        assert fp_a == fp_b

    def test_reregistration_changes_fingerprint(self):
        store = DatabaseStore()
        before = store.register("demo", relations())
        after = store.register("demo", relations([[5, 6]]))
        assert before != after
        assert store.fingerprint("demo") == after

    def test_mutation_rehashes_fingerprint(self):
        store = DatabaseStore()
        before = store.register("demo", relations())
        database = store.get("demo")
        relation = next(iter(database.relations()))
        relation.add((9, 9))
        after = store.fingerprint("demo")
        assert after != before

    def test_unknown_database_raises(self):
        store = DatabaseStore()
        with pytest.raises(SchemaError):
            store.get("missing")
        with pytest.raises(SchemaError):
            store.fingerprint("missing")

    def test_bad_names_and_payloads_rejected(self):
        store = DatabaseStore()
        with pytest.raises(SchemaError):
            store.register("", relations())
        with pytest.raises(SchemaError):
            store.register("a/b", relations())
        with pytest.raises(SchemaError):
            store.register("demo", [])
        with pytest.raises(SchemaError):
            store.register("demo", [{"name": "R"}])
        with pytest.raises(SchemaError):
            DatabaseStore(backend="sqlite")

    def test_relation_name_must_be_a_string(self):
        with pytest.raises(SchemaError, match="'name'"):
            DatabaseStore().register("demo", [dict(relations()[0], name=7)])

    def test_attributes_must_be_a_list_of_strings(self):
        # A string would iterate as ('a', 'b'): rejected, not coerced.
        for attributes in ("ab", ["a", 2]):
            with pytest.raises(SchemaError, match="'attributes'"):
                DatabaseStore().register(
                    "demo", [dict(relations()[0], attributes=attributes)]
                )

    def test_tuples_must_be_a_list_of_lists(self):
        # A string row would iterate as ('1', '2'): rejected, not coerced.
        for tuples in ("12", ["12"], [[1, 2], (3, 4)]):
            with pytest.raises(SchemaError, match="'tuples'"):
                DatabaseStore().register(
                    "demo", [dict(relations()[0], tuples=tuples)]
                )

    def test_persistence_roundtrip(self, tmp_path):
        directory = tmp_path / "catalog"
        store = DatabaseStore(directory=directory)
        fingerprint = store.register("demo", relations())
        reloaded = DatabaseStore(directory=directory)
        assert reloaded.names() == ["demo"]
        assert reloaded.fingerprint("demo") == fingerprint
        assert sorted(
            reloaded.get("demo").relation("R1").tuples
        ) == sorted(store.get("demo").relation("R1").tuples)

    def test_describe_lists_sizes_and_fingerprints(self):
        store = DatabaseStore()
        store.register("demo", relations())
        described = store.describe()
        assert described["demo"]["relations"] == {"R1": 3, "R2": 3}
        assert described["demo"]["backend"] == "columnar"
        assert len(described["demo"]["fingerprint"]) == 64
