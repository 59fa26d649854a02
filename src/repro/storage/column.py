"""Typed columns.

A :class:`Column` owns a contiguous numpy array of values (or dictionary
codes for strings) plus the optional :class:`StringDictionary`.  Columns
are immutable from the caller's perspective: all operations return new
columns sharing the dictionary.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.common.errors import SchemaError, StorageError
from repro.storage.dictionary import StringDictionary
from repro.storage.types import DataType, infer_type


class Column:
    """An immutable typed column of values."""

    def __init__(
        self,
        data: np.ndarray,
        dtype: DataType,
        dictionary: StringDictionary | None = None,
    ):
        data = np.asarray(data)
        if data.ndim != 1:
            raise SchemaError("column data must be one-dimensional")
        if dtype == DataType.STRING and dictionary is None:
            raise SchemaError("string columns require a dictionary")
        if dtype != DataType.STRING and dictionary is not None:
            raise SchemaError("only string columns carry a dictionary")
        if (data.dtype.kind == "u" and data.dtype.itemsize == 8
                and dtype != DataType.FLOAT64
                and data.size and data.max() > np.iinfo(np.int64).max):
            raise SchemaError(f"uint64 value {data.max()} overflows int64")
        self._data = np.ascontiguousarray(data, dtype=dtype.numpy_dtype)
        self._data.flags.writeable = False
        self.dtype = dtype
        self.dictionary = dictionary

    # -- constructors ----------------------------------------------------- #

    @staticmethod
    def from_values(values) -> "Column":
        """Build a column from raw Python/numpy values, inferring the type.

        Types and codes are those of ``np.asarray(list(values))`` and a
        per-value ``str(v)`` encode, in whole-array passes: a numeric
        ndarray is copied once.  One ``set`` pass over all-``str`` items
        serves the type check (over the distinct values) and finds an
        all-distinct column, whose codes are ``0..n-1`` with no
        string -> code map; other string columns take one first-seen
        ``encode`` pass.
        """
        # Empty and n-d arrays take the list rule: ``np.asarray([])`` is
        # float64, and rows of an n-d array are items.
        if type(values) is np.ndarray and values.ndim == 1 and values.size:
            if values.dtype.kind in "biuf":
                dtype = infer_type(values)
                if values.dtype == dtype.numpy_dtype:
                    values = values.copy()  # never adopt the caller's array
                return Column(values, dtype)
        items = values if type(values) is list else list(values)
        distinct = set()
        if items and type(items[0]) is str:
            with contextlib.suppress(TypeError):  # an unhashable item
                distinct = set(items)
        # The distinct values decide the type: an item equal to a ``str``
        # (a ``str`` subclass such as ``np.str_``) stringifies to it.
        # All-distinct items are those values, read faster in list order
        # than in the set's hash order.
        all_distinct = len(distinct) == len(items)
        if set(map(type, items if all_distinct else distinct)) != {str}:
            array = np.asarray(items)
            dtype = infer_type(array)
            if dtype != DataType.STRING:
                return Column(array, dtype)
            items = list(map(str, items))
            all_distinct = len(set(items)) == len(items)
        if all_distinct:
            return Column(np.arange(len(items)), DataType.STRING,
                          StringDictionary.of_distinct(items))
        dictionary = StringDictionary()
        return Column(dictionary.encode(items), DataType.STRING, dictionary)

    # -- accessors --------------------------------------------------------- #

    def __len__(self) -> int:
        return int(self._data.size)

    @property
    def data(self) -> np.ndarray:
        """Physical array: values for numerics, codes for strings."""
        return self._data

    @property
    def nbytes(self) -> int:
        return int(self._data.nbytes)

    def values(self) -> np.ndarray:
        """Logical values (strings decoded)."""
        if self.dtype == DataType.STRING:
            assert self.dictionary is not None
            return self.dictionary.decode(self._data)
        return self._data

    def encode_literal(self, value) -> float:
        """Translate a literal into this column's physical domain."""
        if self.dtype == DataType.STRING:
            assert self.dictionary is not None
            # -1 matches nothing; codes are non-negative.
            return self.dictionary.find(value)
        return value

    # -- transformations ---------------------------------------------------- #

    def take(self, indices: np.ndarray) -> "Column":
        """Gather rows by position."""
        return Column(self._data[indices], self.dtype, self.dictionary)

    def slice(self, start: int, stop: int) -> "Column":
        """Zero-copy contiguous row range (chunked storage's view unit)."""
        return Column(self._data[start:stop], self.dtype, self.dictionary)

    def filter(self, mask: np.ndarray) -> "Column":
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self._data.shape:
            raise StorageError("filter mask length mismatch")
        return Column(self._data[mask], self.dtype, self.dictionary)

    def concat(self, other: "Column") -> "Column":
        """Append another column of the same logical type."""
        if other.dtype != self.dtype:
            raise SchemaError(
                f"cannot concat {other.dtype.value} onto {self.dtype.value}"
            )
        if self.dtype != DataType.STRING:
            return Column(np.concatenate([self._data, other._data]), self.dtype)
        assert self.dictionary is not None and other.dictionary is not None
        merged = self.dictionary.merged_with(other.dictionary)
        remap = merged.remap_codes(other.dictionary)
        other_codes = remap[other._data] if len(other) else other._data
        return Column(
            np.concatenate([self._data, other_codes]), self.dtype, merged
        )

    def __repr__(self) -> str:
        return f"Column({self.dtype.value}, n={len(self)})"
