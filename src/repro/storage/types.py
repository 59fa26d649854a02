"""Logical column types of the storage layer.

TCUDB is a column store (Section 2.2): every column is a contiguous typed
array, strings are dictionary-encoded into dense integer codes, and each
column carries the metadata triple the feasibility test needs — minimum,
maximum, number of distinct values (Section 4.2.1).
"""

from __future__ import annotations

import enum

import numpy as np

from repro.common.errors import SchemaError


class DataType(enum.Enum):
    """Logical types supported by the engine."""

    INT64 = "int64"
    FLOAT64 = "float64"
    STRING = "string"

    @property
    def numpy_dtype(self) -> np.dtype:
        """Physical dtype of the column's value/code array."""
        if self == DataType.FLOAT64:
            return np.dtype(np.float64)
        # STRING columns store dictionary codes as int64.
        return np.dtype(np.int64)

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INT64, DataType.FLOAT64)


def infer_type(values) -> DataType:
    """Infer a logical type from a Python/numpy sequence."""
    array = np.asarray(values)
    if array.dtype.kind in ("U", "S", "O"):
        return DataType.STRING
    if array.dtype.kind == "f":
        return DataType.FLOAT64
    if array.dtype.kind in ("i", "u", "b"):
        return DataType.INT64
    raise SchemaError(f"cannot infer column type from dtype {array.dtype}")
