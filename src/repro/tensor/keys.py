"""Key canonicalization: column values -> dense matrix indices.

"Fill Matrices" turns every join key, group key and (row, col) cell into
an index.  Keys that already are dense integers address a one-byte
presence table, everything else is sorted; :func:`address_range` is the
dense-integer rule.  One cap (``KEY_TABLE_MAX_SLOTS``), three users:
:func:`unique_inverse` (key domains, COO cells) and, through
:func:`presence_probe`, the fold join's probe (``probe_dimension`` in
``engine.tcudb.ops``) and IN-lists (``sql.eval.predicate_mask``).

Canonicalization is index arithmetic on the arrays in hand, not a copy
of them.  :func:`unique_inverse` takes a join's two key columns at once:
each side is scattered into one shared table and keeps its own codes,
so the union is never concatenated.  A hole-free ``intp`` domain that
starts at 0 — Figure 5's ``row_num`` / ``col_num``, an unfiltered
string column's dictionary codes — is its own code: the inverse is the
input, returned as a read-only view, so a write through it raises
instead of corrupting the column.

A presence table usually starts at the smallest key, and a probe's slot
is its unsigned offset from there.  When every key is at least 1 and
``max + 1`` slots fit the same budget, the table starts at 0 instead:
a probe *is* its slot, read with one clipped ``take`` and no offset
array, slot 0 and the top slot being the misses.  SSB's surrogate keys
all probe this way.
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


def _slot_budget(*arrays: np.ndarray) -> int:
    """Most slots a table serving ``arrays`` may have."""
    return min(KEY_TABLE_MAX_SLOTS,
               DIRECT_ADDRESS_SLOTS_PER_ROW * sum(a.size for a in arrays))


def address_range(keys: np.ndarray, *probes: np.ndarray):
    """``(lo, span)`` of a table addressed by the values of ``keys`` that
    ``probes`` are looked up in, or ``None`` when an array is not an
    int64-safe integer or the span exceeds ``KEY_TABLE_MAX_SLOTS`` or the
    per-row budget.  The span is a Python int: ``max - min`` of int64
    extremes does not fit int64."""
    arrays = (keys, *probes)
    if not _integer_keys(arrays):
        return None
    return _table_range(int(keys.min()), int(keys.max()), arrays)


def _integer_keys(arrays) -> bool:
    """Every array is int64-safe: ``np.can_cast(dtype, np.int64)``
    without its per-call cost — any signed width, unsigned below 64
    bits."""
    return all(a.dtype.kind == "i"
               or (a.dtype.kind == "u" and a.dtype.itemsize < 8)
               for a in arrays)


def _table_range(lo: int, hi: int, arrays):
    span = hi - lo + 1
    if span > _slot_budget(*arrays):
        return None
    return lo, span


def _offsets(keys: np.ndarray, lo: int) -> np.ndarray:
    """Each key's address in a table starting at ``lo``, as ``intp``.  At
    origin 0 an ``intp`` array already is its addresses: it is returned
    as a read-only view, so no caller can write through it into the
    column."""
    if keys.dtype != np.intp:
        slots = keys.astype(np.intp)
        slots -= lo
        return slots
    if lo:
        return keys - lo
    view = keys.view()
    view.flags.writeable = False
    return view


def _presence(lo: int, span: int, *arrays: np.ndarray):
    """``(present, slots)``: one byte per address, set where a key of any
    of ``arrays`` lives, and each array's addresses.  Slot ``span`` is the
    miss slot, never set."""
    slots = [_offsets(keys, lo) for keys in arrays]
    present = np.zeros(span + 1, dtype=np.bool_)
    for array_slots in slots:
        present[array_slots] = True
    return present, slots


def presence_probe(keys: np.ndarray, probes: np.ndarray):
    """"Which ``probes`` occur in ``keys``" as table lookups — ``(present,
    key_slots, hits, probe_slots)``: ``hits`` is the answer, one bool per
    probe, and ``probe_slots`` each probe's slot, exact where it hits —
    or ``None`` where :func:`address_range` declines."""
    table = address_range(keys, probes)
    if table is None:
        return None
    lo, span = table
    if lo >= 1 and lo + span <= _slot_budget(keys, probes):
        # Origin 0: a probe is its own slot.  Slot 0 (no key is below 1)
        # and slot ``lo + span`` miss; clipping sends every outsider,
        # negative or huge, to one of them.
        present, (key_slots,) = _presence(0, lo + span, keys)
        return (present, key_slots, present.take(probes, mode="clip"),
                probes)
    # Read unsigned, a probe below ``lo`` — or so far from it that the
    # signed difference wraps — is a huge offset: one minimum, in place,
    # sends every outsider to the miss slot.  (A false hit would need
    # ``probe = lo + d - 2**64`` with ``lo + d <= max(keys)``: below int64.)
    slots = np.subtract(probes, np.int64(lo), dtype=np.int64).view(np.uint64)
    np.minimum(slots, np.uint64(span), out=slots)
    slots = slots.view(np.intp)
    present, (key_slots,) = _presence(lo, span, keys)
    return present, key_slots, present.take(slots), slots


def unique_inverse(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(values, *inverses)``: ``np.unique(np.concatenate(arrays),
    return_inverse=True)`` with the inverse split back per array — same
    sorted distinct values, same promoted dtype, 1-D ``intp`` inverses —
    without the sort when the keys are dense integers, and without the
    concatenation.  One array gives ``np.unique(keys,
    return_inverse=True)``.  The choice reads only the arrays in hand.

    An inverse may be its array itself (dense ``intp`` keys from 0: a key
    is its own code), never a writable alias of it."""
    # Flattened first, as np.unique does: the sort branch's inverse is
    # then 1-D on every NumPy (2.0 shaped it like the input).
    arrays = [np.asarray(keys).reshape(-1) for keys in arrays]
    table = _union_range(arrays)
    if table is not None:
        return _by_table(arrays, *table)
    if len(arrays) == 1:
        return np.unique(arrays[0], return_inverse=True)
    values, inverse = np.unique(np.concatenate(arrays), return_inverse=True)
    codes, start = [], 0
    for keys in arrays:
        codes.append(inverse[start:start + keys.size])
        start += keys.size
    return values, *codes


def _union_range(arrays: list[np.ndarray]):
    """:func:`address_range` of the union of ``arrays``."""
    if not _integer_keys(arrays):
        return None
    occupied = [keys for keys in arrays if keys.size]
    if not occupied:
        return None
    return _table_range(min(int(keys.min()) for keys in occupied),
                        max(int(keys.max()) for keys in occupied), arrays)


def _by_table(arrays: list[np.ndarray], lo: int, span: int):
    present, offsets = _presence(lo, span, *arrays)
    if np.count_nonzero(present) == span:
        # No holes: a key's offset is its rank.
        slots = np.arange(span, dtype=np.intp)
        codes = offsets
    else:
        slots = np.flatnonzero(present)
        rank = np.empty(span, dtype=np.intp)
        rank[slots] = np.arange(slots.size)
        codes = [rank[array_offsets] for array_offsets in offsets]
    slots += lo
    return slots.astype(np.result_type(*arrays), copy=False), *codes
