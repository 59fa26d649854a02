"""Dictionary encoding for string columns.

Join keys in the entity-matching workloads are strings (artist names,
copyright lines, ...).  The column store maps each distinct string to a
dense integer code; all engine operators — including the table->matrix
transformation — work on codes, which is what makes string joins
matrix-encodable.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.common.errors import StorageError


class StringDictionary:
    """Bidirectional mapping between strings and dense int64 codes."""

    def __init__(self, values: list[str] | None = None):
        self._values: list[str] = []
        self._codes: dict[str, int] = {}
        # ``_values`` as an object array for ``decode``; rebuilt when
        # ``encode`` has grown the dictionary since.
        self._decoder = np.empty(0, dtype=object)
        if values:
            self.encode(values)

    def __len__(self) -> int:
        return len(self._values)

    def encode(self, values) -> np.ndarray:
        """Encode a sequence of strings into an int64 code array.

        Unseen values get the next codes in first-seen order, in C-level
        passes with no Python frame per value.
        """
        fresh = list(itertools.filterfalse(
            self._codes.__contains__, dict.fromkeys(values)))
        start = len(self._values)
        self._codes.update(zip(fresh, range(start, start + len(fresh))))
        self._values.extend(fresh)
        return np.fromiter(map(self._codes.__getitem__, values),
                           dtype=np.int64, count=len(values))

    def lookup(self, value: str) -> int:
        """Code for an existing value; raises if absent."""
        code = self._codes.get(str(value))
        if code is None:
            raise StorageError(f"string {value!r} not in dictionary")
        return code

    def contains(self, value: str) -> bool:
        return str(value) in self._codes

    def decode_one(self, code: int) -> str:
        if not 0 <= code < len(self._values):
            raise StorageError(f"dictionary code {code} out of range")
        return self._values[code]

    def decode(self, codes: np.ndarray) -> np.ndarray:
        codes = np.asarray(codes, dtype=np.int64)
        if codes.size and (codes.min() < 0 or codes.max() >= len(self._values)):
            raise StorageError("dictionary code out of range")
        decoder = self._decoder
        if len(decoder) != len(self._values):
            decoder = self._decoder = np.array(self._values, dtype=object)
        return decoder[codes]

    def merged_with(self, other: "StringDictionary") -> "StringDictionary":
        """A new dictionary containing both value sets (self's codes first)."""
        merged = StringDictionary(self._values)
        merged.encode(other._values)
        return merged

    def remap_codes(self, other: "StringDictionary") -> np.ndarray:
        """Array mapping ``other``'s codes into this dictionary's codes."""
        return self.encode(other._values)
