"""Key canonicalization: column values -> dense matrix indices.

"Fill Matrices" turns every join key, group key and (row, col) cell into
an index.  Keys that already are dense integers address a one-byte
presence table, everything else is sorted; :func:`address_range` is the
dense-integer rule.  One cap (``KEY_TABLE_MAX_SLOTS``), three users:
:func:`unique_inverse` (key domains, COO cells) and, through
:func:`presence_probe`, the fold join's probe (``probe_dimension`` in
``engine.tcudb.ops``) and IN-lists (``sql.eval.predicate_mask``).
"""

from __future__ import annotations

import numpy as np

# An address table gets at most this many slots per row it serves: past
# it the table outgrows the arrays it stands for.
DIRECT_ADDRESS_SLOTS_PER_ROW = 4

# Largest presence table, in one-byte slots.
# The table beats the sort at every span measured (2^16..2^24, >= 2.1x);
# memory sets the cap: a holey domain also needs the 8-byte rank table,
# 9 MiB transient here.  Figure 5's 640 x 640 cells span 409 600 slots.
KEY_TABLE_MAX_SLOTS = 1 << 20


def address_range(keys: np.ndarray, *probes: np.ndarray):
    """``(lo, span)`` of a table addressed by the values of ``keys`` that
    ``probes`` are looked up in, or ``None`` when an array is not an
    int64-safe integer or the span exceeds ``KEY_TABLE_MAX_SLOTS`` or the
    per-row budget.  The span is a Python int: ``max - min`` of int64
    extremes does not fit int64."""
    arrays = (keys, *probes)
    if not all(a.dtype.kind in "iu" and np.can_cast(a.dtype, np.int64)
               for a in arrays):
        return None
    lo = int(keys.min())
    span = int(keys.max()) - lo + 1
    if span > min(KEY_TABLE_MAX_SLOTS, DIRECT_ADDRESS_SLOTS_PER_ROW
                  * sum(a.size for a in arrays)):
        return None
    return lo, span


def _presence(keys: np.ndarray, lo: int, span: int):
    """``(present, slots)``: one byte per address, set where a key lives,
    and each key's address.  Slot ``span`` is the miss slot, never set."""
    slots = keys.astype(np.intp, copy=False) - lo
    present = np.zeros(span + 1, dtype=np.bool_)
    present[slots] = True
    return present, slots


def presence_probe(keys: np.ndarray, probes: np.ndarray):
    """"Which ``probes`` occur in ``keys``" as table lookups — ``(present,
    key_slots, probe_slots)``, the answer being ``present[probe_slots]``
    — or ``None`` where :func:`address_range` declines."""
    table = address_range(keys, probes)
    if table is None:
        return None
    lo, span = table
    # Read unsigned, a probe below ``lo`` — or so far from it that the
    # signed difference wraps — is a huge offset: one minimum sends every
    # outsider to the miss slot.  (A false hit would need ``probe = lo +
    # d - 2**64`` with ``lo + d <= max(keys)``: below int64.)
    offsets = probes.astype(np.int64, copy=False) - lo
    slots = np.minimum(offsets.view(np.uint64), np.uint64(span))
    return (*_presence(keys, lo, span), slots.view(np.intp))


def unique_inverse(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` — same sorted distinct
    values, same dtype, 1-D ``intp`` inverse — without the sort when the
    keys are dense integers.  The choice reads only the array in hand."""
    # Flattened first, as np.unique does: the sort branch's inverse is
    # then 1-D on every NumPy (2.0 shaped it like the input).
    keys = np.asarray(keys).reshape(-1)
    table = address_range(keys) if keys.size else None
    if table is None:
        return np.unique(keys, return_inverse=True)
    return _by_table(keys, *table)


def _by_table(keys: np.ndarray, lo: int, span: int):
    present, offsets = _presence(keys, lo, span)
    if np.count_nonzero(present) == span:
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
