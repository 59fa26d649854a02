"""Dictionary encoding for string columns.

Join keys in the entity-matching workloads are strings (artist names,
copyright lines, ...).  The column store maps each distinct string to a
dense integer code; all engine operators — including the table->matrix
transformation — work on codes, which is what makes string joins
matrix-encodable.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

import numpy as np

from repro.common.errors import StorageError


class StringDictionary:
    """Bidirectional mapping between strings and dense int64 codes.

    The code -> string side is a list.  The string -> code map is built
    on first need: a ``find`` / ``lookup`` / ``contains``, or an
    ``encode``.  A dictionary made by :meth:`of_distinct` (an
    all-distinct column) starts without one.  The lazy build is safe to
    race: concurrent readers may each build an equal map, and the last
    assignment wins.  ``encode`` mutates the dictionary, so it is for
    load and merge only, before the dictionary is shared.
    """

    def __init__(self, values: list[str] | None = None):
        self._values: list[str] = []
        # A defaultdict whose ``default_factory`` is None, except while
        # ``encode`` numbers unseen values with it.
        self._codes: defaultdict[str, int] | None = None
        # ``_values`` as an object array for ``decode``; rebuilt when
        # ``encode`` has grown the dictionary since.
        self._decoder = np.empty(0, dtype=object)
        if values:
            self.encode(values)

    @classmethod
    def of_distinct(cls, values) -> "StringDictionary":
        """The dictionary coding distinct ``values`` as ``0..n-1``."""
        dictionary = cls()
        dictionary._values = list(values)
        return dictionary

    def __len__(self) -> int:
        return len(self._values)

    def _code_map(self) -> defaultdict[str, int]:
        codes = self._codes
        if codes is None:
            codes = self._codes = defaultdict(
                None, zip(self._values, range(len(self._values))))
        return codes

    def encode(self, values) -> np.ndarray:
        """Encode a sequence of strings into an int64 code array.

        Unseen values get the next codes in first-seen order, in one
        C-level pass with no Python frame per value: a miss in the map
        draws its code from a counter.
        """
        codes = self._code_map()
        start = len(self._values)
        codes.default_factory = itertools.count(start).__next__
        try:
            array = np.fromiter(map(codes.__getitem__, values),
                                dtype=np.int64, count=len(values))
        except BaseException:
            self._codes = None  # half extended: rebuilt from _values
            raise
        finally:
            codes.default_factory = None
        self._values.extend(itertools.islice(codes, start, None))
        return array

    def find(self, value: str) -> int:
        """Code for a value, or -1 if absent (codes are non-negative)."""
        return self._code_map().get(str(value), -1)

    def lookup(self, value: str) -> int:
        """Code for an existing value; raises if absent."""
        code = self.find(value)
        if code < 0:
            raise StorageError(f"string {value!r} not in dictionary")
        return code

    def contains(self, value: str) -> bool:
        return self.find(value) >= 0

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
        merged = StringDictionary.of_distinct(self._values)
        merged.encode(other._values)
        return merged

    def remap_codes(self, other: "StringDictionary") -> np.ndarray:
        """Array mapping ``other``'s codes into this dictionary's codes."""
        return self.encode(other._values)
