"""Storage layer: columns, dictionaries, tables, statistics, catalog, CSV."""

import numpy as np
import pytest

from repro.common.errors import (
    SchemaError,
    StorageError,
    UnknownColumnError,
    UnknownTableError,
)
from repro.storage import (
    Catalog,
    Column,
    DataType,
    StringDictionary,
    Table,
    compute_stats,
    join_output_estimate,
    read_csv,
    write_csv,
)


class TestDictionary:
    def test_encode_decode_roundtrip(self):
        d = StringDictionary()
        codes = d.encode(["b", "a", "b", "c"])
        assert list(codes) == [0, 1, 0, 2]
        assert list(d.decode(codes)) == ["b", "a", "b", "c"]

    def test_lookup_missing(self):
        d = StringDictionary(["x"])
        with pytest.raises(StorageError):
            d.lookup("y")
        assert d.contains("x")

    def test_merge_and_remap(self):
        d1 = StringDictionary(["a", "b"])
        d2 = StringDictionary(["b", "c"])
        merged = d1.merged_with(d2)
        remap = merged.remap_codes(d2)
        assert merged.decode_one(int(remap[0])) == "b"
        assert merged.decode_one(int(remap[1])) == "c"

    def test_code_out_of_range(self):
        d = StringDictionary(["a"])
        with pytest.raises(StorageError):
            d.decode_one(5)


class TestColumn:
    def test_type_inference(self):
        assert Column.from_values([1, 2]).dtype == DataType.INT64
        assert Column.from_values([1.5]).dtype == DataType.FLOAT64
        assert Column.from_values(["a"]).dtype == DataType.STRING

    def test_immutability(self):
        column = Column.from_values([1, 2, 3])
        with pytest.raises(ValueError):
            column.data[0] = 9

    def test_string_values_decoded(self):
        column = Column.from_values(["x", "y", "x"])
        assert list(column.values()) == ["x", "y", "x"]

    def test_take_and_filter(self):
        column = Column.from_values([10, 20, 30])
        assert list(column.take(np.array([2, 0])).data) == [30, 10]
        assert list(column.filter(np.array([True, False, True])).data) == [10, 30]

    def test_concat_strings_merges_dictionaries(self):
        a = Column.from_values(["x", "y"])
        b = Column.from_values(["y", "z"])
        merged = a.concat(b)
        assert list(merged.values()) == ["x", "y", "y", "z"]

    def test_concat_type_mismatch(self):
        with pytest.raises(SchemaError):
            Column.from_values([1]).concat(Column.from_values(["a"]))

    def test_encode_literal_string(self):
        column = Column.from_values(["x", "y"])
        assert column.encode_literal("y") == 1
        assert column.encode_literal("nope") == -1  # matches nothing


class TestTable:
    def test_ragged_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", {
                "a": Column.from_values([1]),
                "b": Column.from_values([1, 2]),
            })

    def test_project_and_rename(self, small_catalog):
        table = small_catalog.get("a")
        projected = table.project(["val"])
        assert projected.column_names == ["val"]
        renamed = table.rename({"val": "value"})
        assert "value" in renamed.column_names

    def test_filter_take_sort(self):
        table = Table.from_dict("t", {"x": [3, 1, 2]})
        assert [r[0] for r in table.sort_by("x").rows()] == [1, 2, 3]
        assert [r[0] for r in table.sort_by("x", descending=True).rows()] == [3, 2, 1]
        assert table.filter(np.array([True, False, True])).num_rows == 2

    def test_row_subsets_share_dictionaries(self):
        # take(), filter() and sort_by() keep each string column's
        # dictionary object, so codes from two subsets of one table
        # compare and concatenate without re-encoding.
        table = Table.from_dict("t", {"x": [3, 1, 2],
                                      "name": ["c", "a", "b"]})
        dictionary = table.column("name").dictionary
        subsets = (table.take(np.array([2, 0])),
                   table.filter(np.array([False, True, True])),
                   table.sort_by("x"))
        for subset in subsets:
            assert subset is not table
            assert subset.column("name").dictionary is dictionary
        assert [r[1] for r in subsets[2].rows()] == ["a", "b", "c"]

    def test_unknown_column(self):
        table = Table.from_dict("t", {"x": [1]})
        with pytest.raises(UnknownColumnError):
            table.column("y")

    def test_with_column_length_check(self):
        table = Table.from_dict("t", {"x": [1, 2]})
        with pytest.raises(SchemaError):
            table.with_column("y", Column.from_values([1]))

    def test_pretty_renders(self):
        table = Table.from_dict("t", {"x": [1, 2], "name": ["ab", "c"]})
        text = table.pretty()
        assert "x" in text and "ab" in text

    def test_rows_decode_strings(self, small_catalog):
        rows = small_catalog.get("b").rows()
        assert rows[0] == (1, "x")


class TestStatistics:
    def test_stats_triple(self):
        column = Column.from_values([3, 1, 3, 7])
        stats = compute_stats(column)
        assert (stats.min_value, stats.max_value) == (1, 7)
        assert stats.n_distinct == 3
        assert stats.n_rows == 4

    def test_stats_cached_on_table(self):
        table = Table.from_dict("t", {"x": [1, 2, 2]})
        first = table.stats("x")
        assert table.stats("x") is first

    def test_join_output_estimate(self):
        left = compute_stats(Column.from_values([1, 1, 2, 2]))
        right = compute_stats(Column.from_values([1, 2]))
        assert join_output_estimate(left, right) == pytest.approx(4.0)

    def test_string_stats_over_codes(self):
        column = Column.from_values(["a", "b", "a"])
        stats = compute_stats(column)
        assert stats.n_distinct == 2


class TestCatalog:
    def test_register_lookup_drop(self):
        catalog = Catalog()
        catalog.register(Table.from_dict("t", {"x": [1]}))
        assert catalog.has("T")  # case-insensitive
        catalog.drop("t")
        with pytest.raises(UnknownTableError):
            catalog.get("t")

    def test_duplicate_register(self):
        catalog = Catalog()
        catalog.register(Table.from_dict("t", {"x": [1]}))
        with pytest.raises(SchemaError):
            catalog.register(Table.from_dict("t", {"x": [2]}))
        catalog.register(Table.from_dict("t", {"x": [2]}), replace=True)
        assert catalog.get("t").rows() == [(2,)]


class TestCSV:
    def test_roundtrip(self, tmp_path):
        table = Table.from_dict("t", {
            "id": [1, 2], "score": [1.5, 2.5], "name": ["a,b", "c\"d"],
        })
        path = tmp_path / "t.csv"
        write_csv(table, path)
        back = read_csv(path)
        assert back.rows() == table.rows()
        assert back.dtype("score") == DataType.FLOAT64

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(StorageError):
            read_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1\n")
        with pytest.raises(StorageError):
            read_csv(path)


class TestClusterBy:
    def _shuffled(self, n=4096, seed=7):
        rng = np.random.default_rng(seed)
        keys = rng.permutation(n)
        return Table.from_dict("t", {
            "k": keys,
            "v": rng.integers(0, 100, size=n),
        })

    def test_cluster_by_sorts_and_marks(self):
        table = self._shuffled()
        clustered = table.cluster_by("k")
        assert table.sort_key is None  # base table untouched
        assert clustered.sort_key == "k"
        data = clustered.column("k").data
        assert np.all(data[1:] >= data[:-1])
        # Row multiset preserved.
        assert sorted(clustered.rows()) == sorted(table.rows())

    def test_clustered_chunk_stats_match_full_scan(self):
        from repro.storage.chunk import ChunkedTable

        clustered = self._shuffled().cluster_by("k")
        chunked = ChunkedTable(clustered, 256)
        arrays = chunked.column_stats("k")
        for chunk in chunked.chunks:
            full = compute_stats(chunk.column("k"))
            assert chunk.stats("k") == full
            assert arrays.min_value[chunk.index] == full.min_value
            assert arrays.max_value[chunk.index] == full.max_value
            assert arrays.n_rows[chunk.index] == full.n_rows

    def test_clustered_chunk_ranges_are_disjoint(self):
        from repro.storage.chunk import ChunkedTable

        chunked = ChunkedTable(self._shuffled().cluster_by("k"), 256)
        ranges = [(c.stats("k").min_value, c.stats("k").max_value)
                  for c in chunked.chunks]
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi <= lo

    def test_clustered_scan_actually_skips_chunks(self):
        """The satellite's point: the same selective range scan prunes
        nothing on shuffled data and nearly everything once clustered."""
        from repro.engine.reference import ReferenceEngine

        table = self._shuffled()
        sql = ("SELECT SUM(t.v) AS s, COUNT(*) AS c FROM t "
               "WHERE t.k BETWEEN 1000 AND 1127")

        def run(variant):
            catalog = Catalog()
            catalog.register(variant)
            return ReferenceEngine(catalog, chunk_rows=256).execute(sql)

        shuffled = run(table)
        clustered = run(table.cluster_by("k"))
        assert shuffled.extra["chunks_pruned"] == 0
        assert clustered.extra["chunks_pruned"] >= 12  # 16 chunks total
        assert shuffled.require_table().rows() == \
            clustered.require_table().rows()
