"""Program cache: compiled TensorPrograms keyed by normalized SQL.

TQP splits query processing into a compilation layer and a runtime
layer precisely so the expensive half runs once per statement, not once
per execution.  This module is that split's memo: a bounded LRU map
from ``(normalized SQL, compile-options key)`` to the compiled
:class:`~repro.engine.tcudb.lower.LoweredQuery` — or to the
:class:`~repro.engine.tcudb.patterns.MatchFailure` that rejected it, so
repeated unsupported statements skip re-matching too.

Entries are validated against a catalog fingerprint
(:meth:`repro.storage.catalog.Catalog.fingerprint`) on every lookup:
registering, replacing, or dropping a table changes the fingerprint,
and a stale entry is evicted and counted as an invalidation.  That is
the whole invalidation story — tables are immutable, so data (and the
statistics the cost model reads) can only change through the catalog.

What makes cached programs shareable: a TensorProgram is a frozen list
of stateless operator descriptions.  All execution state lives in the
per-run ProgramContext, and literal-dependent cost decisions (the
Figure 6 strategy choice) are re-evaluated inside ``Gemm.execute``
against the *current* run's bound query — so a cached program is a pure
compilation artifact, valid for any parameter binding under the same
fingerprint.

In front of the programs sits the *statement memo*: lifted SQL text
(:func:`repro.sql.prepared.parameterize`) -> its ``PreparedStatement``,
so one-shot SQL that differs only in WHERE / HAVING literals is parsed
and bound once.  Same lock, capacity, LRU rule and fingerprint check (a
prepared statement holds ``Table`` objects).

Thread-safety contract: every public method takes the cache's internal
lock, so concurrent sessions may ``get``/``put``/``stats`` freely on a
shared instance.  The cached values themselves are never mutated by
readers; callers must treat them as immutable and specialize
parameters by *copying* operators
(:func:`repro.engine.tcudb.specialize.specialize_program`), never by
editing a cached program in place.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable


class ProgramCache:
    """Bounded LRU cache with fingerprint invalidation and counters."""

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        # key -> (fingerprint, value); insertion order = LRU order.
        self._entries: OrderedDict[Hashable, tuple[Hashable, object]] = (
            OrderedDict()
        )
        # lifted text -> PreparedStatement, same LRU rule.
        self._statements: OrderedDict[Hashable, object] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._statement_hits = 0
        self._statement_misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._poisoned = 0

    def get(self, key: Hashable, fingerprint: Hashable):
        """The cached value, or None.

        A key found under a *different* fingerprint is dropped (counted
        as an invalidation) and reported as a miss; a hit refreshes the
        entry's LRU position.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            cached_fingerprint, value = entry
            if cached_fingerprint != fingerprint:
                del self._entries[key]
                self._invalidations += 1
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, fingerprint: Hashable, value) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail if full."""
        with self._lock:
            if key in self._entries:
                del self._entries[key]
            self._entries[key] = (fingerprint, value)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def statement(self, text: Hashable, fingerprint: Hashable):
        """The memoized prepared statement for lifted *text*, or None;
        one bound under a different fingerprint is dropped."""
        with self._lock:
            prepared = self._statements.get(text)
            if prepared is None or prepared.fingerprint != fingerprint:
                self._statements.pop(text, None)
                self._statement_misses += 1
                return None
            self._statements.move_to_end(text)
            self._statement_hits += 1
            return prepared

    def remember(self, text: Hashable, prepared) -> None:
        """Memoize *prepared* for lifted *text*; the LRU tail past
        ``capacity`` goes uncounted (its program is still cached)."""
        with self._lock:
            self._statements[text] = prepared
            self._statements.move_to_end(text)
            if len(self._statements) > self.capacity:
                self._statements.popitem(last=False)

    def poison(self, key: Hashable) -> bool:
        """Evict *key* because its cached template raised in use.

        Exception safety for hits: if specializing or executing a
        cached program fails, the caller evicts the entry through here
        (counted separately from capacity evictions) and recompiles
        fresh, so one bad template cannot fail every subsequent hit.
        Returns True if the key was present.
        """
        with self._lock:
            present = key in self._entries
            if present:
                del self._entries[key]
            self._poisoned += 1
            return present

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._statements.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int | float | None]:
        """Counter snapshot; ``hit_rate`` is None before any lookup."""
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self._hits,
                "misses": self._misses,
                "statement_hits": self._statement_hits,
                "statement_misses": self._statement_misses,
                "evictions": self._evictions,
                "invalidations": self._invalidations,
                "poisoned": self._poisoned,
                "hit_rate": (self._hits / lookups) if lookups else None,
            }
