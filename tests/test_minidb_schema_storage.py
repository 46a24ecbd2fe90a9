"""Unit tests for table schemas and row storage with indexes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConstraintViolation, ExecutionError, SchemaError
from repro.minidb.schema import Column, ForeignKey, TableSchema
from repro.minidb.storage import Table, TableOverlay
from repro.minidb.types import DOUBLE, INTEGER, VARCHAR


def make_schema(primary_key=("id",), uniques=()):
    return TableSchema(
        "t",
        [
            Column("id", INTEGER),
            Column("name", VARCHAR),
            Column("score", DOUBLE),
        ],
        primary_key=primary_key,
        uniques=uniques,
    )


class TestTableSchema:
    def test_basic_properties(self):
        schema = make_schema()
        assert schema.column_names == ("id", "name", "score")
        assert schema.arity == 3

    def test_pk_columns_become_not_null(self):
        schema = make_schema()
        assert schema.column("id").not_null

    def test_case_insensitive_lookup(self):
        schema = make_schema()
        assert schema.column_index("NAME") == 1
        assert schema.has_column("Score")

    def test_unknown_column_raises(self):
        with pytest.raises(SchemaError):
            make_schema().column_index("nope")

    def test_duplicate_column_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", INTEGER), Column("A", INTEGER)])

    def test_empty_table_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [])

    def test_pk_over_missing_column_rejected(self):
        with pytest.raises(SchemaError):
            make_schema(primary_key=("nope",))

    def test_pk_repeating_column_rejected(self):
        with pytest.raises(SchemaError):
            make_schema(primary_key=("id", "ID"))

    def test_unique_over_missing_column_rejected(self):
        with pytest.raises(SchemaError):
            make_schema(uniques=(("ghost",),))

    def test_fk_arity_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema(
                "c",
                [Column("a", INTEGER)],
                foreign_keys=(ForeignKey(("a",), "p", ("x", "y")),),
            )

    def test_key_positions(self):
        schema = make_schema()
        assert schema.key_positions(("score", "id")) == (2, 0)

    def test_pk_name_case_resolved_to_declared(self):
        schema = TableSchema(
            "t", [Column("Id", INTEGER)], primary_key=("ID",)
        )
        assert schema.primary_key == ("Id",)


class TestTableStorage:
    def test_insert_and_scan(self):
        table = Table(make_schema())
        table.insert((1, "a", 1.0))
        table.insert((2, "b", 2.0))
        assert sorted(table.scan()) == [(1, "a", 1.0), (2, "b", 2.0)]
        assert len(table) == 2

    def test_pk_duplicate_rejected(self):
        table = Table(make_schema())
        table.insert((1, "a", 1.0))
        with pytest.raises(ConstraintViolation):
            table.insert((1, "b", 2.0))
        assert len(table) == 1

    def test_failed_insert_leaves_indexes_clean(self):
        schema = make_schema(uniques=(("name",),))
        table = Table(schema)
        table.insert((1, "a", 1.0))
        with pytest.raises(ConstraintViolation):
            table.insert((1, "z", 2.0))  # pk dup
        with pytest.raises(ConstraintViolation):
            table.insert((2, "a", 2.0))  # unique dup
        # the failed rows must not pollute any index
        table.insert((2, "z", 2.0))
        assert len(table) == 2

    def test_unique_allows_nulls(self):
        table = Table(make_schema(uniques=(("name",),)))
        table.insert((1, None, 1.0))
        table.insert((2, None, 2.0))  # two NULLs do not collide
        assert len(table) == 2

    def test_delete_row(self):
        table = Table(make_schema())
        table.insert((1, "a", 1.0))
        assert table.delete_row((1, "a", 1.0))
        assert len(table) == 0
        assert not table.delete_row((1, "a", 1.0))

    def test_delete_maintains_unique_index(self):
        table = Table(make_schema())
        table.insert((1, "a", 1.0))
        table.delete_row((1, "a", 1.0))
        table.insert((1, "b", 2.0))  # pk 1 free again
        assert len(table) == 1

    def test_contains_row(self):
        table = Table(make_schema())
        table.insert((1, "a", 1.0))
        assert table.contains_row((1, "a", 1.0))
        assert not table.contains_row((1, "a", 9.0))  # same pk, diff payload
        assert not table.contains_row((2, "a", 1.0))

    def test_contains_row_keyless_table(self):
        schema = TableSchema("k", [Column("a", INTEGER)])
        table = Table(schema)
        table.insert((5,))
        assert table.contains_row((5,))
        assert not table.contains_row((6,))

    def test_truncate(self):
        table = Table(make_schema())
        table.insert((1, "a", 1.0))
        table.insert((2, "b", 2.0))
        assert table.truncate() == 2
        assert len(table) == 0
        table.insert((1, "a", 1.0))  # indexes cleared too
        assert len(table) == 1

    def test_validate_row_arity(self):
        table = Table(make_schema())
        with pytest.raises(ExecutionError):
            table.validate_row((1, "a"))

    def test_validate_row_coerces(self):
        table = Table(make_schema())
        row = table.validate_row((1, "a", 3))
        assert row == (1, "a", 3.0)
        assert isinstance(row[2], float)

    def test_rows_snapshot_is_stable(self):
        table = Table(make_schema())
        table.insert((1, "a", 1.0))
        snapshot = table.rows_snapshot()
        table.delete_row((1, "a", 1.0))
        assert snapshot == [(1, "a", 1.0)]


class TestSecondaryIndexes:
    def test_lookup_after_build(self):
        table = Table(make_schema())
        table.insert((1, "a", 1.0))
        table.insert((2, "a", 2.0))
        table.insert((3, "b", 3.0))
        rows = sorted(table.lookup_secondary(("name",), ("a",)))
        assert rows == [(1, "a", 1.0), (2, "a", 2.0)]

    def test_index_maintained_on_insert(self):
        table = Table(make_schema())
        table.ensure_secondary_index(("name",))
        table.insert((1, "a", 1.0))
        assert list(table.lookup_secondary(("name",), ("a",))) == [(1, "a", 1.0)]

    def test_index_maintained_on_delete(self):
        table = Table(make_schema())
        table.insert((1, "a", 1.0))
        table.ensure_secondary_index(("name",))
        table.delete_row((1, "a", 1.0))
        assert list(table.lookup_secondary(("name",), ("a",))) == []

    def test_composite_key_index(self):
        table = Table(make_schema())
        table.insert((1, "a", 1.0))
        table.insert((2, "a", 1.0))
        rows = list(table.lookup_secondary(("name", "score"), ("a", 1.0)))
        assert len(rows) == 2

    def test_index_reused_not_rebuilt(self):
        table = Table(make_schema())
        index1 = table.ensure_secondary_index(("name",))
        index2 = table.ensure_secondary_index(("name",))
        assert index1 is index2

    def test_missing_key_returns_empty(self):
        table = Table(make_schema())
        assert list(table.lookup_secondary(("name",), ("ghost",))) == []

    def test_lookup_yields_scan_order(self):
        table = Table(make_schema())
        for rowid in range(40):
            table.insert((rowid, "ab"[rowid % 2], 1.0))
        table.delete_row((4, "a", 1.0))
        table.insert((4, "a", 1.0))  # re-inserted: now last in scan order
        via_index = list(table.lookup_secondary(("name",), ("a",)))
        assert via_index == [row for row in table.scan() if row[1] == "a"]


class TestKeysAreIndexedOnce:
    """A probe on exactly a PRIMARY KEY / UNIQUE key is answered from
    that key's unique index — no secondary index doubles it."""

    def test_probing_the_primary_key_builds_no_secondary_index(self):
        table = Table(make_schema())
        table.insert((1, "a", 1.0))
        table.insert((2, "b", 2.0))
        assert list(table.lookup_secondary(("id",), (2,))) == [(2, "b", 2.0)]
        assert list(table.lookup_secondary(("id",), (3,))) == []
        overlay = TableOverlay([(3, "c", 3.0)], [(2, "b", 2.0)], table=table)
        assert list(overlay.lookup(table, ("id",), (2,))) == []
        assert list(overlay.lookup(table, ("id",), (3,))) == [(3, "c", 3.0)]
        assert table.secondary_indexes == {}

    def test_composite_and_unique_keys_in_any_column_order(self):
        table = Table(
            make_schema(primary_key=("id", "name"), uniques=(("score",),))
        )
        table.insert((1, "a", 1.0))
        table.insert((1, "b", 2.0))
        assert list(table.lookup_secondary(("name", "id"), ("b", 1))) == [
            (1, "b", 2.0)
        ]
        assert list(table.lookup_secondary(("id", "name"), (1, "a"))) == [
            (1, "a", 1.0)
        ]
        assert list(table.lookup_secondary(("score",), (2.0,))) == [(1, "b", 2.0)]
        assert table.secondary_indexes == {}
        # a proper prefix of the key is not the key: it gets its index
        assert len(list(table.lookup_secondary(("id",), (1,)))) == 2
        assert list(table.secondary_indexes) == [(0,)]

    def test_a_key_containing_null_matches_nothing(self):
        table = Table(make_schema(primary_key=(), uniques=(("name",),)))
        table.insert((1, None, 1.0))
        table.insert((2, None, 2.0))  # NULLs are distinct for uniqueness
        table.insert((3, "a", 3.0))
        assert list(table.lookup_secondary(("name",), (None,))) == []
        assert list(table.lookup_secondary(("name",), ("a",))) == [(3, "a", 3.0)]
        assert table.secondary_indexes == {}

    def test_unique_index_stays_maintained_under_dml(self):
        table = Table(make_schema())
        table.insert((1, "a", 1.0))
        assert list(table.lookup_secondary(("id",), (1,))) == [(1, "a", 1.0)]
        table.delete_row((1, "a", 1.0))
        assert list(table.lookup_secondary(("id",), (1,))) == []
        table.insert((1, "z", 9.0))
        assert list(table.lookup_secondary(("id",), (1,))) == [(1, "z", 9.0)]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 30),
            st.sampled_from(["a", "b", "c", None]),
            st.floats(0, 10, allow_nan=False),
        ),
        max_size=60,
    ),
    st.lists(st.integers(0, 30), max_size=30),
)
def test_storage_index_consistency_property(rows, delete_ids):
    """After arbitrary inserts and deletes, index lookups agree with scans."""
    table = Table(make_schema(primary_key=()))
    table.ensure_secondary_index(("name",))
    inserted = []
    for row in rows:
        table.insert(row)
        inserted.append(row)
    for victim in delete_ids:
        for row in list(inserted):
            if row[0] == victim:
                table.delete_row(row)
                inserted.remove(row)
                break
    remaining = sorted(table.scan(), key=repr)
    assert remaining == sorted(inserted, key=repr)
    for name in ("a", "b", "c"):
        via_index = sorted(table.lookup_secondary(("name",), (name,)), key=repr)
        via_scan = sorted((r for r in inserted if r[1] == name), key=repr)
        assert via_index == via_scan
