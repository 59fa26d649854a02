"""Per-point oracle verification for the benchmark subsystem.

TQP-style tensor runtimes can *corrupt results while improving timings*
(quantization, precision switches, wrong plan rewrites), which is exactly
the failure mode an unverified benchmark rewards.  Every benchmarked
query can therefore be replayed in REAL mode and compared against
:class:`~repro.engine.reference.ReferenceEngine` — the same fp-tolerant
row-multiset comparison the differential test suite uses
(``tests/differential_utils.py`` wraps these helpers with asserts).

Verification kinds recorded on each :class:`SeriesPoint`:

* ``oracle``  — SQL replayed through the engine (REAL mode) and the
  Reference oracle; row multisets compared within fp tolerance.  Under
  the ``stream`` policy the replay runs on a deterministically
  chunk-sampled catalog (paper/stress scales), recorded in the point's
  note.
* ``numeric`` — tensor-unit numerics checked against a float64 product
  (used for the raw-GEMM and precision experiments with no SQL query).
* ``shape``   — generator output recounted independently (dataset-shape
  tables).
* ``model``   — a cost-model projection validated against an
  engine-measured run at an overlapping configuration.
"""

from __future__ import annotations

import numpy as np

from repro.engine.base import ExecutionMode
from repro.engine.monetdb import MonetDBEngine
from repro.engine.reference import ReferenceEngine
from repro.engine.tcudb import DistributedEngine, TCUDBEngine
from repro.engine.ydb import YDBEngine
from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.table import Table

#: fp16 round-off through the TCU path; everything else must be exact.
TCU_REL = 2e-3
EXACT_REL = 1e-9
ABS_TOL = 1e-6


def canonical_sorted(rows: list[tuple]) -> list[tuple]:
    """Rows sorted by exact cells first, rounded float cells last.

    Sorting exact cells (strings, ints, bools) before rounded float cells
    keeps fp16-tolerant aggregate values from destabilizing row pairing.
    """

    def key(row: tuple):
        exact: list[str] = []
        approx: list[str] = []
        for cell in row:
            if isinstance(cell, (bool, np.bool_)):
                exact.append(str(bool(cell)))
            elif isinstance(cell, (int, np.integer)):
                exact.append(f"{int(cell):+021d}")
            elif isinstance(cell, (float, np.floating)):
                approx.append(f"{float(cell):+.6e}")
            else:
                exact.append(str(cell))
        return (exact, approx)

    return sorted((tuple(row) for row in rows), key=key)


def _cells_match(got, expected, rel: float, abs_tol: float) -> bool:
    if isinstance(got, str) or isinstance(expected, str):
        return got == expected
    g = float(got)
    e = float(expected)
    return abs(g - e) <= max(abs_tol, rel * abs(e))


def rows_match(
    got_rows: list[tuple],
    expected_rows: list[tuple],
    rel: float = EXACT_REL,
    abs_tol: float = ABS_TOL,
) -> str | None:
    """Compare two *sorted* row multisets; ``None`` on match, else a
    human-readable description of the first difference."""
    if len(got_rows) != len(expected_rows):
        return f"row count {len(got_rows)} != {len(expected_rows)}"
    for index, (got, expected) in enumerate(zip(got_rows, expected_rows)):
        if len(got) != len(expected):
            return (f"row {index}: width {len(got)} != {len(expected)}")
        for g, e in zip(got, expected):
            if not _cells_match(g, e, rel, abs_tol):
                return f"row {index}: {g!r} != {e!r} (rel={rel})"
    return None


def result_rows(result) -> list[tuple]:
    """Canonically sorted rows of a QueryResult."""
    return canonical_sorted(result.require_table().rows())


# --------------------------------------------------------------------- #
# Point marking
# --------------------------------------------------------------------- #

def mark(point, ok: bool, kind: str, note: str = "") -> None:
    """Record a verification outcome on a series point."""
    point.verified = bool(ok)
    point.verify_kind = kind
    point.verify_note = note[:200]


def skip(point, note: str = "") -> None:
    """Record that a point was not verified (and why)."""
    point.verified = None
    point.verify_kind = ""
    point.verify_note = note[:200]


def sampled_catalog(
    catalog, budget_rows: int, phase: int = 0
) -> tuple[Catalog, list[str]]:
    """A deterministic chunk-sampled replica of a catalog.

    Tables within the budget are shared as-is; larger tables are
    re-chunked at a fraction of the budget and keep every ``stride``-th
    chunk, so the ~``budget_rows`` kept rows *spread across the whole
    table* (generated-in-order columns like dates contribute their full
    value range, not just the head).  Sampling is stride-based over the
    chunk grid — no RNG — so the same catalog always samples to the
    same replica and a verification failure reproduces exactly.

    ``phase`` offsets the stride start (``chunks[phase::stride]``):
    distinct phases select *disjoint* chunk strata of the same table,
    which is what the stratified multi-sample replay iterates over.
    """
    out = Catalog()
    notes: list[str] = []
    for name in catalog.table_names():
        table = catalog.get(name)
        if table.num_rows <= budget_rows:
            out.register(table)
            continue
        # Sample in sub-budget chunks so the kept rows stripe the table.
        sample_chunk = max(budget_rows // 8, 64)
        chunked = table.chunked(sample_chunk)
        keep = max(budget_rows // sample_chunk, 1)
        stride = max(-(-chunked.num_chunks // keep), 1)
        kept = chunked.chunks[phase % stride::stride]
        columns = {
            column_name: Column(
                np.concatenate(
                    [chunk.column(column_name).data for chunk in kept]
                ),
                table.column(column_name).dtype,
                table.column(column_name).dictionary,
            )
            for column_name in table.column_names
        }
        sampled = Table(name, columns)
        out.register(sampled)
        notes.append(f"{name}:{sampled.num_rows}/{table.num_rows}")
    return out, notes


class OracleVerifier:
    """Replays benchmarked queries against the Reference oracle.

    One verifier is shared across a whole benchmark run so that the
    oracle executes each distinct (catalog, sql, params) once even when
    three engines are timed on it.  ``enabled=False`` turns every check
    into a recorded skip.

    ``policy`` selects the replay mode for SQL points:

    * ``"full"``   — the exact benchmark catalogs replay in REAL mode
      (the smoke profile: inputs are CI-sized by construction);
    * ``"stream"`` — paper/stress-scale replay: tables beyond
      ``sample_rows`` are deterministically chunk-sampled (stride over
      the storage chunk grid, no RNG).  Engine and oracle replay the
      same sample, so the row-multiset comparison remains a true
      differential check; the sampling is recorded in the point's
      ``verify_note``.

    ``strata`` (stream policy only) replays each point on that many
    *disjoint* stride-phased chunk samples instead of one: every
    stratum must match the oracle independently, and the worst relative
    cell deviation observed across all strata is recorded per point as
    a disagreement bound (``disagreement<=…`` in ``verify_note``) — a
    multi-sample confidence statement rather than a single-stride spot
    check.
    """

    def __init__(self, enabled: bool = True, pair_limit: int = 20_000_000,
                 policy: str = "full", sample_rows: int = 2048,
                 strata: int = 1):
        self.enabled = enabled
        self.pair_limit = pair_limit
        self.policy = policy
        self.sample_rows = sample_rows
        self.strata = max(int(strata), 1)
        self.checked = 0
        self.mismatches: list[str] = []
        self._oracle_cache: dict[tuple, list[tuple]] = {}
        # Hold catalog refs so id()-keyed cache entries cannot alias a
        # garbage-collected catalog's address.
        self._catalogs: dict[int, object] = {}
        # (source catalog id, phase) -> (sampled catalog, notes).
        self._sampled: dict[tuple[int, int],
                            tuple[Catalog, list[str]]] = {}

    # -- engine construction ------------------------------------------- #

    @staticmethod
    def _real_engine(name: str, catalog, device=None, options=None):
        key = name.lower()
        if key == "monetdb":
            return MonetDBEngine(catalog, mode=ExecutionMode.REAL)
        if key == "ydb":
            return YDBEngine(catalog, device=device,
                             mode=ExecutionMode.REAL)
        if key == "tcudb":
            return TCUDBEngine(catalog, device=device,
                               mode=ExecutionMode.REAL, options=options)
        if key.startswith("tcudb-dist"):
            # "tcudb-dist" or "tcudb-distN": replay through the
            # distributed engine at N shards (default 2) so sharded
            # benchmark points are verified through the same merge path
            # that produced them.
            shards = int(key[len("tcudb-dist"):] or 2)
            return DistributedEngine(catalog, shards=shards, device=device,
                                     mode=ExecutionMode.REAL,
                                     options=options)
        if key == "reference":
            return ReferenceEngine(catalog)
        raise KeyError(f"no REAL-mode constructor for engine {name!r}")

    def _oracle_rows(self, catalog, sql: str, params: dict | None):
        params_key = tuple(sorted((params or {}).items()))
        key = (id(catalog), sql, params_key)
        if key not in self._oracle_cache:
            # The oracle walks chunk by chunk, so its peak memory stays
            # bounded by chunk size + distinct groups.
            oracle = ReferenceEngine(catalog, pair_limit=self.pair_limit)
            self._oracle_cache[key] = result_rows(
                oracle.execute(sql, params=params)
            )
            self._catalogs.setdefault(id(catalog), catalog)
        return self._oracle_cache[key]

    def _replay_catalog(self, catalog, phase: int = 0) -> tuple[object, str]:
        """The catalog SQL replay runs on, plus a sampling note."""
        if self.policy != "stream":
            return catalog, ""
        cached = self._sampled.get((id(catalog), phase))
        if cached is None:
            cached = sampled_catalog(catalog, self.sample_rows, phase=phase)
            self._sampled[(id(catalog), phase)] = cached
            self._catalogs.setdefault(id(catalog), catalog)
        replica, notes = cached
        if not notes:
            return replica, "streamed replay"
        return replica, "sampled chunks " + ", ".join(notes)

    @staticmethod
    def _deviation(got_rows: list[tuple], expected_rows: list[tuple]) -> float:
        """Worst relative numeric-cell deviation between two matched
        (same-shape, canonically sorted) row multisets."""
        worst = 0.0
        for got, expected in zip(got_rows, expected_rows):
            for g, e in zip(got, expected):
                if isinstance(g, str) or isinstance(e, str):
                    continue
                delta = abs(float(g) - float(e))
                worst = max(worst, delta / max(abs(float(e)), 1.0))
        return worst

    # -- checks ---------------------------------------------------------- #

    def verify_query(
        self,
        point,
        engine_name: str,
        catalog,
        sql: str,
        params: dict | None = None,
        *,
        device=None,
        options=None,
        rel: float | None = None,
    ) -> None:
        """Replay ``sql`` on a fresh REAL-mode engine and compare row
        multisets against the oracle; record the outcome on ``point``."""
        if not self.enabled:
            skip(point, "unverified (profile)")
            return
        if rel is None:
            rel = (TCU_REL if engine_name.lower().startswith("tcudb")
                   else EXACT_REL)
        self.checked += 1
        phases = (range(self.strata) if self.policy == "stream"
                  else range(1))
        worst = 0.0
        error = note = ""
        try:
            for phase in phases:
                replay_catalog, note = self._replay_catalog(catalog, phase)
                engine = self._real_engine(engine_name, replay_catalog,
                                           device=device, options=options)
                got = result_rows(engine.execute(sql, params=params))
                expected = self._oracle_rows(replay_catalog, sql, params)
                error = rows_match(got, expected, rel=rel)
                if error is not None:
                    error = f"stratum {phase}: {error}"
                    break
                worst = max(worst, self._deviation(got, expected))
        except Exception as exc:  # surfaced in the report, not swallowed
            error = f"replay failed: {type(exc).__name__}: {exc}"
            note = ""
        if error is None and self.policy == "stream" and self.strata > 1:
            # The multi-stratum confidence statement: every disjoint
            # sample agreed with the oracle to within this bound.
            note = (f"{self.strata} strata, disagreement<={worst:.2e}; "
                    f"{note}")
        if error is None:
            mark(point, True, "oracle", note)
        else:
            mark(point, False, "oracle", error)
            self.mismatches.append(
                f"{point.config} / {point.engine}: {error}"
            )

    def verify_check(self, point, ok: bool, kind: str, note: str = "") -> None:
        """Record a non-SQL verification (numeric / shape / model)."""
        if not self.enabled:
            skip(point, "unverified (profile)")
            return
        self.checked += 1
        mark(point, ok, kind, note)
        if not ok:
            self.mismatches.append(
                f"{point.config} / {point.engine}: [{kind}] {note}"
            )


__all__ = [
    "ABS_TOL",
    "EXACT_REL",
    "TCU_REL",
    "OracleVerifier",
    "canonical_sorted",
    "mark",
    "result_rows",
    "rows_match",
    "sampled_catalog",
    "skip",
]
