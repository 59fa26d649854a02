"""Measurement protocol: calibration, set-up, timed rounds, oracle check.

One run measures one workload in one process, from one closed-loop
load-generating thread (callers wait for replies; the host has two
cores).  The protocol is part of the metric definitions:

* a statement id's *quiet latency* is the minimum wall time over all its
  timed executions.  Noise on a shared host only ever adds time, and
  its slow phases (+25 % for seconds to minutes) move a pooled median
  by 6-48 % run to run while the per-statement floor moves by a few
  percent; pooled p50/p90 are still reported, as ``host.*``, because
  they describe the co-tenants as much as the program;
* ``setup_s`` is the floor over K fresh in-process set-ups;
* rounds (every statement id once, seeded shuffle) repeat until
  ``seconds`` have been measured, 1/K of them after each set-up, so a
  burst of noise cannot cover every set-up or all of one statement's
  samples;
* GC stays enabled; one ``gc.collect()`` precedes each timed slice;
* after timing, every distinct statement is replayed against the
  oracle; a mismatch fails every execution of that statement id, and an
  execution served by the YDB fallback fails too (the NumPy fallback is
  as fast on the host as the TCU path, so silently falling back would
  read as a speed-up).
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import time
from collections import defaultdict

import numpy as np

from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS, Request, load_catalog, tables_checksum
from repro.common.errors import ReproError
from repro.common.timing import STAGE_FILL, STAGE_MEMCPY

# The simulated-time metrics cover exactly the first rounds every run
# times (each of its >= 2 set-ups is followed by >= 1 round), so they
# repeat exactly for a seed however many more the time box allows.
SIM_ROUNDS = 2
DRIFT_LIMIT = 0.15  # calibration drift beyond which a run is `disturbed`
MAX_VERIFIED_VARIANTS = 4  # per statement id; beyond it, first and last


# --------------------------------------------------------------------- #
# Noise guard
# --------------------------------------------------------------------- #

def calibrate() -> float:
    """Milliseconds for a fixed single-thread kernel, best of five: two
    384x384 sgemm, a stable argsort + gather + bincount of 300k keys and
    a 50k-iteration interpreter loop — the three kinds of work (BLAS,
    memory-bound NumPy, bytecode) the program under test does."""
    rng = np.random.default_rng(0)
    a = rng.random((384, 384), dtype=np.float32)
    b = rng.random((384, 384), dtype=np.float32)
    keys = rng.integers(0, 50_000, 300_000)
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        (a @ b) @ b
        np.bincount(keys[np.argsort(keys, kind="stable")])
        total = 0
        for i in range(50_000):
            total += i
        best = min(best, time.perf_counter() - start)
    return best * 1e3


# --------------------------------------------------------------------- #
# One run
# --------------------------------------------------------------------- #

class Samples:
    """What the timed phase keeps per execution (no result tables: a
    retained multi-million-row result would be the peak RSS)."""

    def __init__(self):
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.rows: dict[tuple[str, str], set[int]] = defaultdict(set)
        self.variants: dict[str, dict[str, Request]] = defaultdict(dict)
        self.raised: dict[str, int] = defaultdict(int)
        self.fallbacks = 0
        self.sim_queries = 0
        self.sim_seconds = 0.0
        self.sim_stages: dict[str, float] = defaultdict(float)
        self.cpu = 0.0
        self.sequence = hashlib.blake2b(digest_size=8)
        self.rounds = 0

    @property
    def attempted(self) -> int:
        return sum(map(len, self.latency.values())) + sum(self.raised.values())


def run_round(runner, requests: list[Request], samples: Samples,
              tracer: Tracer | None = None) -> None:
    cpu0 = time.process_time()
    for request in requests:
        if samples.rounds == 0:
            samples.sequence.update(
                f"{request.stmt}/{request.variant};".encode())
        if tracer is not None:
            tracer.begin_request()
        start = time.perf_counter()
        try:
            result = runner.execute(request)
        except ReproError:
            # Raised or refused (AdmissionError): counts as failed.
            samples.raised[request.stmt] += 1
            continue
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end_request()
        samples.latency[request.stmt].append(elapsed)
        samples.rows[request.stmt, request.variant].add(result.n_rows)
        samples.variants[request.stmt][request.variant] = request
        samples.fallbacks += result.extra.get("executed_by") == "YDB-fallback"
        if samples.rounds < SIM_ROUNDS:
            samples.sim_queries += 1
            samples.sim_seconds += result.seconds
            for stage, seconds in result.breakdown.stages.items():
                samples.sim_stages[stage] += seconds
    samples.cpu += time.process_time() - cpu0
    samples.rounds += 1


def timed_phase(runner, rounds, seconds: float, samples: Samples,
                tracer: Tracer | None = None) -> None:
    """Whole rounds until ``seconds`` have passed; at least one."""
    gc.collect()
    deadline = time.perf_counter() + seconds
    run_round(runner, next(rounds), samples, tracer)
    while time.perf_counter() < deadline:
        run_round(runner, next(rounds), samples, tracer)


def set_up(workload):
    """One fresh set-up: load -> engines/server + prepare -> first
    execution of every statement id.  Returns (runner, part times)."""
    start = time.perf_counter()
    catalogs = {key: load_catalog(tables)
                for key, tables in workload.inputs.items()}
    loaded = time.perf_counter()
    runner = workload.open(catalogs)
    for request in workload.requests:
        runner.execute(request)
    done = time.perf_counter()
    return runner, {"total": done - start, "load": loaded - start,
                    "first_pass": done - loaded}


def verify(workload, runner, samples: Samples) -> dict[str, str]:
    """Replay each distinct statement on the engine under test and on
    the oracle.  Returns {statement id: first difference}."""
    problems: dict[str, str] = {}
    for stmt, variants in samples.variants.items():
        chosen = list(variants.values())
        if len(chosen) > MAX_VERIFIED_VARIANTS:
            chosen = [chosen[0], chosen[-1]]
        for request in chosen:
            seen = samples.rows[stmt, request.variant]
            result = runner.execute(request)
            problem = workload.mismatch(runner, request, result)
            if problem is None and seen != {result.n_rows}:
                problem = (f"row count varied across executions: "
                           f"{sorted(seen)} vs replay {result.n_rows}")
            if problem is not None:
                problems.setdefault(stmt, f"{request.variant}: {problem}")
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False, trace_file: str | None = None) -> dict:
    """Measure one workload; returns the full result record."""
    workload = WORKLOADS[name](quick=quick)
    checksum = tables_checksum(workload.inputs)
    calib_before = calibrate()

    rounds = workload.rounds(seed)
    samples = Samples()
    setups = []
    counters: dict[str, float] = defaultdict(float)
    # Tracing off for the end-to-end numbers; a traced run spends half
    # its time on a second, traced pass over later rounds.
    untraced = seconds / 2 if trace else seconds
    runner = None
    try:
        # Set-up and timing alternate — K fresh set-ups, each followed
        # by 1/K of the timed rounds on the runner it built — so neither
        # every set-up nor every sample of one statement can sit inside
        # one burst of host noise.
        for _ in range(workload.setups):
            if runner is not None:
                runner.close()
            runner = None  # free the old catalogs before loading anew
            runner, parts = set_up(workload)
            setups.append(parts)
            before = runner.layer_counters()
            timed_phase(runner, rounds, untraced / workload.setups, samples)
            for key, value in runner.layer_counters().items():
                counters[key] += value - before[key]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        traced = tracer = None
        if trace:
            tracer = Tracer()
            traced = Samples()
            with tracer.installed():
                timed_phase(runner, rounds, seconds / 2, traced, tracer)
        calib_after = calibrate()
        catalog_bytes = sum(catalog.get(table).nbytes
                            for catalog in runner.catalogs.values()
                            for table in catalog.table_names())
        problems = verify(workload, runner, samples)
    finally:
        if runner is not None:
            runner.close()
    quiet_setup = min(setups, key=lambda parts: parts["total"])

    quiet = {stmt: min(times) for stmt, times in samples.latency.items()}
    failed = (sum(samples.raised.values()) + samples.fallbacks
              + sum(len(samples.latency[stmt]) for stmt in problems))
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "quick": quick, "tables_checksum": checksum,
        "sequence_digest": samples.sequence.hexdigest(),
        "rounds": samples.rounds, "attempted": samples.attempted,
        "failed": min(failed, samples.attempted), "problems": problems,
        "correct": failed == 0 and bool(quiet),
        "setups_s": [parts["total"] for parts in setups],
        "calib_ms": [calib_before, calib_after],
        "quiet_ms": {stmt: value * 1e3 for stmt, value in quiet.items()},
        "end_to_end": {
            "setup_s": quiet_setup["total"],
            "latency_ms_geomean": statistics.geometric_mean(quiet.values()) * 1e3,
            "throughput_qps": len(quiet) / sum(quiet.values()),
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if trace:
        drift = max(calib_before, calib_after) / min(calib_before, calib_after) - 1
        pooled = sorted(t for times in samples.latency.values() for t in times)
        n = len(pooled)
        sim = samples.sim_seconds or math.inf
        lookups = counters["cache.hits"] + counters["cache.misses"]
        layers = tracer.per_request_ms()
        record["per_layer"] = {
            **layers,
            "cache.hit_rate": counters["cache.hits"] / lookups if lookups else 0.0,
            "cache.evictions": counters["cache.evictions"] / n,
            "serve.rejected": counters["serve.rejected"],
            "serve.retried": counters["serve.retried"],
            "serve.degraded": counters["serve.degraded"],
            "engine.fallback_share": samples.fallbacks / samples.attempted,
            "storage.load_s": quiet_setup["load"],
            "storage.first_pass_s": quiet_setup["first_pass"],
            "storage.catalog_mb": catalog_bytes / 2**20,
            "sim.ms_per_query": samples.sim_seconds / samples.sim_queries * 1e3,
            "sim.fill_share": samples.sim_stages[STAGE_FILL] / sim,
            "sim.memcpy_share": samples.sim_stages[STAGE_MEMCPY] / sim,
            "sim.tcu_share": sum(
                seconds for stage, seconds in samples.sim_stages.items()
                if stage.startswith("tcu_")) / sim,
            "host.p50_ms": statistics.median(pooled) * 1e3,
            "host.p90_ms": pooled[min(n - 1, int(0.9 * n))] * 1e3,
            "host.samples": n,
            "host.cpu_ms_per_query": samples.cpu / n * 1e3,
            "env.calib_ms": calib_before,
            "env.calib_drift": drift,
            "env.disturbed": int(drift > DRIFT_LIMIT),
            "trace.overhead_ratio": statistics.geometric_mean(
                min(traced.latency[stmt]) / quiet[stmt]
                for stmt in quiet if traced.latency.get(stmt)),
        }
        if trace_file:
            tracer.write(trace_file)
    return record

