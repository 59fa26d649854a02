"""Key canonicalization: column values -> dense matrix indices.

"Fill Matrices" turns every join key, group key and (row, col) cell into
an index.  :func:`unique_inverse` is the one place that happens: keys
that already are dense integers address a presence table, everything
else is sorted.  :func:`address_range` is the dense-integer rule itself,
shared with the fold join's direct-address probe.
"""

from __future__ import annotations

import numpy as np

# An address table gets at most this many slots per row it serves: past
# it the table outgrows the arrays it stands for.
DIRECT_ADDRESS_SLOTS_PER_ROW = 4

# Largest presence table of :func:`unique_inverse`, in one-byte slots.
# The table beats the sort at every span measured (2^16..2^24, >= 2.1x);
# memory sets the cap: a holey domain also needs the 8-byte rank table,
# 9 MiB transient here.  Figure 5's 640 x 640 cells span 409 600 slots.
KEY_TABLE_MAX_SLOTS = 1 << 20


def address_range(max_slots: int, keys: np.ndarray, *probes: np.ndarray):
    """``(lo, span)`` of a table addressed by the values of ``keys`` that
    ``probes`` are looked up in, or ``None`` when an array is not an
    int64-safe integer or the span exceeds ``max_slots`` or the per-row
    budget.  The span is a Python int: ``max - min`` of int64 extremes
    does not fit int64."""
    arrays = (keys, *probes)
    if not all(a.dtype.kind in "iu" and np.can_cast(a.dtype, np.int64)
               for a in arrays):
        return None
    lo = int(keys.min())
    span = int(keys.max()) - lo + 1
    if span > min(max_slots, DIRECT_ADDRESS_SLOTS_PER_ROW
                  * sum(a.size for a in arrays)):
        return None
    return lo, span


def unique_inverse(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` — same sorted distinct
    values, same dtype, 1-D ``intp`` inverse — without the sort when the
    keys are dense integers.  The choice reads only the array in hand."""
    # Flattened first, as np.unique does: the sort branch's inverse is
    # then 1-D on every NumPy (2.0 shaped it like the input).
    keys = np.asarray(keys).reshape(-1)
    table = address_range(KEY_TABLE_MAX_SLOTS, keys) if keys.size else None
    if table is None:
        return np.unique(keys, return_inverse=True)
    return _by_table(keys, *table)


def _by_table(keys: np.ndarray, lo: int, span: int):
    offsets = keys.astype(np.intp, copy=False) - lo
    present = np.zeros(span, dtype=np.bool_)
    present[offsets] = True
    if present.all():
        # No holes: a key's offset is its rank.
        slots = np.arange(span, dtype=np.intp)
        codes = offsets
    else:
        slots = np.flatnonzero(present)
        rank = np.empty(span, dtype=np.intp)
        rank[slots] = np.arange(slots.size)
        codes = rank[offsets]
    slots += lo
    return slots.astype(keys.dtype, copy=False), codes
