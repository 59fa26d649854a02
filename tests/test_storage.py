"""Storage layer: columns, dictionaries, tables, statistics, catalog, CSV."""

import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_decode_sees_values_a_later_encode_adds(self):
        d = StringDictionary(["a", "b"])
        assert list(d.decode(np.array([1, 0]))) == ["b", "a"]
        with pytest.raises(StorageError):
            d.decode(np.array([2]))
        d.encode(["c", "a"])
        assert list(d.decode(np.array([2, 1, 0]))) == ["c", "b", "a"]
        d.encode(["a"])  # nothing new: the codes decode as before
        assert list(d.decode(np.array([0, 2]))) == ["a", "c"]

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

    def test_uint64_above_int64_rejected(self):
        # An int64 cast would wrap 2**63 + 5 to a negative key.
        with pytest.raises(SchemaError, match="overflows int64"):
            Column.from_values(np.array([1, 2**63 + 5], dtype=np.uint64))
        with pytest.raises(SchemaError, match="overflows int64"):
            Column.from_values(np.array([2**63 + 5], dtype=">u8"))
        with pytest.raises(SchemaError, match="overflows int64"):
            Table.from_dict("t", {"x": [2**63 + 5]})
        assert list(Column.from_values(
            np.array([0, 2**63 - 1], dtype=np.uint64)).data) == [0, 2**63 - 1]


def per_value_load(values):
    """The load rule before batching: box every item, infer, encode one by one.

    ``(DataType, data bytes, dictionary values)`` of
    ``Column.from_values(list(values))`` as it was: ``np.asarray`` over
    the boxed items picks the type, and a string column encodes
    ``str(v)`` per value in first-seen order.
    """
    items = list(values)
    array = np.asarray(items)
    if array.dtype.kind in "USO":
        codes: dict[str, int] = {}
        for item in items:
            codes.setdefault(str(item), len(codes))
        data = np.array([codes[str(item)] for item in items], dtype=np.int64)
        return DataType.STRING, data.tobytes(), list(codes)
    dtype = DataType.FLOAT64 if array.dtype.kind == "f" else DataType.INT64
    return dtype, array.astype(dtype.numpy_dtype).tobytes(), None


#: Every kind of input ``Table.from_dict`` accepts.  Inference follows
#: NumPy's promotion rules, so this list is also run on the oldest
#: supported NumPy line.
LOAD_INPUTS = {
    "int64 array": np.arange(-3, 7),
    "int32 array": np.array([5, -1, 5], dtype=np.int32),
    "big-endian int": np.array([1, 300, -2], dtype=">i4"),
    "strided view": np.arange(20)[::3],
    "read-only array": np.arange(4),
    "uint64 in range": np.array([0, 2**63 - 1], dtype=np.uint64),
    "float64 array": np.array([1.5, np.nan, -0.0, np.inf]),
    "float32 array": np.array([0.1, 2.5], dtype=np.float32),
    "float16 array": np.array([0.1, -3.0], dtype=np.float16),
    "bool array": np.array([True, False, True]),
    "U array": np.array(["b", "a", "b", ""]),
    "S array": np.array([b"x", b"y", b"x"]),
    "object str array": np.array(["q", "p", "q"], dtype=object),
    "object int array": np.array([3, 1, 3], dtype=object),
    "object mixed array": np.array(["a", 1, None], dtype=object),
    "int list": [3, 1, 2],
    "float list": [1, 2.5],
    "bool list": [True, False],
    "str list": ["y", "x", "y", "z"],
    "np.str_ list": [np.str_("a"), "b", "a"],
    "bytes and str": [b"x", "y"],
    "mixed str/number": ["a", 1, 2.5, "a", 1],
    "number then str": [1, "1", 2],
    "None only": [None, None],
    "None and str": [None, "a", "None"],
    "None and int": [None, 1],
    "empty list": [],
    "empty int64 array": np.array([], dtype=np.int64),
    "empty U array": np.array([], dtype="U3"),
    "tuple": ("s", "t"),
    "range": range(4),
    "iterator": [0, 1, 4, 9],  # loaded through iter(): no len()
    "ints beyond int64": [2**64, 1],
    "ints below int64": [-(2**63) - 1, 0],
    # Every value distinct: the codes are 0..n-1 with no map built.
    "all-distinct object array": np.array(
        [f"k{i}" for i in range(50)], dtype=object),
    "all-distinct list": [f"k{i}" for i in range(50, 0, -1)],
    "all-distinct U array": np.array([f"u{i}" for i in range(50)]),
    "duplicate-heavy": ["c", "a", "b"] * 40 + ["d"],
    # 1 == True: the distinct values are {"a", 1}, and both must stringify.
    "str, int and bool": ["a", 1, True],
    "str then equal np.str_": ["a", np.str_("a"), "b"],
    "str and unhashable": ["a", {"b"}, "a"],
}
LOAD_INPUTS["read-only array"].flags.writeable = False


class TestLoadParity:
    """Batched loading reproduces the per-value rule, byte for byte."""

    @staticmethod
    def fresh(name):
        value = LOAD_INPUTS[name]
        if name == "iterator":
            return iter(value)
        return value.copy() if isinstance(value, np.ndarray) else value

    @staticmethod
    def observed(column):
        dictionary = (None if column.dictionary is None
                      else list(column.dictionary.decode(
                          np.arange(len(column.dictionary)))))
        return column.dtype, column.data.tobytes(), dictionary

    @pytest.mark.parametrize("name", sorted(LOAD_INPUTS))
    def test_from_dict_and_from_values_match_per_value_rule(self, name):
        expected = per_value_load(self.fresh(name))
        table = Table.from_dict("t", {"c": self.fresh(name)})
        assert self.observed(table.column("c")) == expected
        assert self.observed(Column.from_values(self.fresh(name))) == expected
        dictionary = table.column("c").dictionary
        if dictionary is not None:
            assert all(type(v) is str for v in dictionary._values)

    @pytest.mark.parametrize("name", sorted(
        n for n, v in LOAD_INPUTS.items() if isinstance(v, np.ndarray)))
    def test_column_owns_its_data(self, name):
        values = LOAD_INPUTS[name]
        writeable = values.flags.writeable
        column = Column.from_values(values)
        assert not np.shares_memory(column.data, values)
        assert values.flags.writeable == writeable
        assert not column.data.flags.writeable

    def test_batched_encode_extends_in_first_seen_order(self):
        d = StringDictionary(["m", "n"])
        codes = d.encode(["z", "n", "a", "z", "m"])
        assert list(codes) == [2, 1, 3, 2, 0]
        assert list(d.decode(np.arange(len(d)))) == ["m", "n", "z", "a"]

    def test_concat_matches_per_value_rule(self):
        left = ["x", "y", "x"]
        right = ["z", "y", "w", "z"]
        merged = Column.from_values(left).concat(Column.from_values(right))
        assert self.observed(merged) == per_value_load(left + right)


class TestLazyCodeMap:
    """An all-distinct column loads without a string -> code map and
    answers every probe as an eagerly mapped one does."""

    VALUES = [f"v{i}" for i in range(7, 0, -1)]
    EAGER = {v: i for i, v in enumerate(VALUES)}

    def test_probes_match_an_eager_map(self):
        column = Column.from_values(self.VALUES)
        dictionary = column.dictionary
        for value, code in self.EAGER.items():
            assert dictionary.lookup(value) == code
            assert dictionary.find(value) == code
            assert dictionary.contains(value)
            assert column.encode_literal(value) == code
        assert dictionary.find("absent") == -1
        assert not dictionary.contains("absent")
        assert column.encode_literal("absent") == -1
        with pytest.raises(StorageError):
            dictionary.lookup("absent")

    def test_merge_remap_and_concat_match_an_eager_map(self):
        other_values = ["v3", "w1", "v7", "w2"]
        left = Column.from_values(self.VALUES)
        right = Column.from_values(other_values)
        merged = left.dictionary.merged_with(right.dictionary)
        assert list(merged.decode(np.arange(len(merged)))) == (
            self.VALUES + ["w1", "w2"])
        eager = {**self.EAGER, "w1": 7, "w2": 8}
        assert list(merged.remap_codes(right.dictionary)) == [
            eager[v] for v in other_values]
        combined = left.concat(right)
        assert TestLoadParity.observed(combined) == per_value_load(
            self.VALUES + other_values)
        assert combined.encode_literal("w2") == 8
        assert combined.encode_literal("w3") == -1

    def test_racing_first_lookups_agree(self):
        # More threads than cores race the lazy build; each must read
        # every code an eager map gives.
        n, threads = 20_000, 8
        values = [f"r{i}" for i in range(n)]
        probes = values[::-997] + ["absent"]
        want = [n - 1 - i * 997 for i in range(len(probes) - 1)] + [-1]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                dictionary = Column.from_values(values).dictionary
                barrier = threading.Barrier(threads)

                def probe():
                    barrier.wait(timeout=10)
                    return [dictionary.find(v) for v in probes]

                with ThreadPoolExecutor(threads) as pool:
                    futures = [pool.submit(probe) for _ in range(threads)]
                    assert [f.result(timeout=30) for f in futures] == (
                        [want] * threads)
        finally:
            sys.setswitchinterval(interval)

    def test_loading_builds_no_map(self):
        # A map costs about 70 B per distinct value (a dict slot and an
        # int object) on top of the 16 B of codes and value list.
        n = 200_000
        values = [f"name{i:07d}" for i in range(n)]
        tracemalloc.start()
        try:
            column = Column.from_values(values)
            _, load_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            assert column.encode_literal(values[-1]) == n - 1
            _, lookup_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert load_peak < 80 * n
        assert lookup_peak > 60 * n  # the first lookup builds the map


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

    @staticmethod
    def round_trip(table, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(table, path)
        return read_csv(path)

    @staticmethod
    def observed(table):
        return {n: TestLoadParity.observed(table.column(n))
                for n in table.column_names}

    def test_digit_strings_stay_strings(self, tmp_path):
        table = Table.from_dict("t", {"s": ["1", "2", "1"],
                                      "f": [1.0, 2.0, 3.0]})
        back = self.round_trip(table, tmp_path)
        assert self.observed(back) == self.observed(table)
        assert back.rows() == [("1", 1.0), ("2", 2.0), ("1", 3.0)]

    def test_empty_table_keeps_its_types(self, tmp_path):
        table = Table("t", {
            "i": Column(np.empty(0, dtype=np.int64), DataType.INT64),
            "f": Column(np.empty(0), DataType.FLOAT64),
            "s": Column(np.empty(0, dtype=np.int64), DataType.STRING,
                        StringDictionary()),
        })
        back = self.round_trip(table, tmp_path)
        assert back.column_names == ["i", "f", "s"]
        assert self.observed(back) == self.observed(table)

    def test_int64_extremes_round_trip(self, tmp_path):
        table = Table.from_dict("t", {"x": [-(2**63), 2**63 - 1, 0]})
        back = self.round_trip(table, tmp_path)
        assert back.rows() == table.rows()
        assert back.dtype("x") == DataType.INT64

    @pytest.mark.parametrize("text, row, cell", [
        ("x:int64,y:string\n1,a\n2.5,b\n", 3, "'2.5'"),
        ("x:int64\n9223372036854775808\n", 2, "'9223372036854775808'"),
        ("y:string,x:float64\na,1\nb,\n", 3, "''"),
    ])
    def test_typed_cell_that_does_not_parse(self, tmp_path, text, row, cell):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(StorageError,
                           match=f"row {row}, column 'x': {cell}"):
            read_csv(path)

    @pytest.mark.parametrize("text, row, cell", [
        ("x\n9223372036854775808\n2\n", 2, "'9223372036854775808'"),
        ("x\n18446744073709551616\n", 2, "'18446744073709551616'"),
        ("x\n9223372036854775808\n", 2, "'9223372036854775808'"),
        ("y,x\na,1\nb,-9223372036854775809\n", 3,
         "'-9223372036854775809'"),
    ])
    def test_plain_integer_outside_int64(self, tmp_path, text, row, cell):
        path = tmp_path / "big.csv"
        path.write_text(text)
        with pytest.raises(StorageError,
                           match=f"row {row}, column 'x': {cell}"):
            read_csv(path)

    def test_plain_header_infers_types(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("a,b,c,d:e\n1,2.5,x,3\n")
        table = read_csv(path)
        assert [table.dtype(n) for n in table.column_names] == [
            DataType.INT64, DataType.FLOAT64, DataType.STRING,
            DataType.INT64]
        assert table.column_names == ["a", "b", "c", "d:e"]

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, tmp_path_factory, data):
        cells = {
            DataType.INT64: st.integers(-(2**63), 2**63 - 1),
            DataType.FLOAT64: st.floats(allow_nan=False),
            DataType.STRING: st.text(st.characters(
                blacklist_categories=("Cs",), blacklist_characters="\0")),
        }
        dtypes = data.draw(st.lists(st.sampled_from(list(cells)),
                                    min_size=1, max_size=3))
        n = data.draw(st.integers(0, 6))
        columns = {}
        for i, dtype in enumerate(dtypes):
            values = data.draw(st.lists(cells[dtype], min_size=n,
                                        max_size=n))
            if dtype == DataType.STRING:
                dictionary = StringDictionary()
                columns[f"c{i}"] = Column(dictionary.encode(values), dtype,
                                          dictionary)
            else:
                columns[f"c{i}"] = Column(
                    np.array(values, dtype=dtype.numpy_dtype), dtype)
        table = Table("t", columns)
        back = self.round_trip(table, tmp_path_factory.mktemp("csv"))
        assert self.observed(back) == self.observed(table)


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
