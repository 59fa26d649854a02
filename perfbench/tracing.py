"""Spans around the calls into each layer, recorded from outside.

The program under test has no tracing of its own yet, so for the traced
pass this module wraps the callables at each layer boundary at run time
and restores them afterwards.  A span is ``[name, start, end, parent,
request]``; spans stay in memory until the pass ends.  A layer's self
time is its span's duration minus its child spans' durations (children
of one span never overlap: one request is in flight at a time, and the
server's worker runs while the client thread waits, so one process-wide
span stack is exact even across that thread hand-off).

A target that no longer exists is skipped and counted in
``trace.missing_targets`` — a refactor must not break the benchmark,
but the lost attribution has to show.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

# Span name -> per-layer metric its self time is reported under.
LAYER_OF_SPAN = {
    "sql.parse": "sql.parse_ms",
    "sql.bind": "sql.bind_ms",
    "cache.lookup": "cache.lookup_ms",
    "compile.lower": "compile.lower_ms",
    "compile.fuse": "compile.fuse_ms",
    "compile.specialize": "compile.specialize_ms",
    "ops.scan": "ops.scan_ms",
    "ops.fold": "ops.fold_ms",
    "ops.operand_build": "ops.operand_build_ms",
    "ops.gemm": "ops.gemm_ms",
    "ops.harvest": "ops.harvest_ms",
    "ops.decode": "ops.decode_ms",
    "ops.physical_stage": "ops.physical_stage_ms",
    "transform.key_domain": "transform.key_domain_ms",
    "driver.coo_build": "driver.coo_build_ms",
    "backend.matmul": "backend.matmul_ms",
    "backend.fill": "backend.fill_ms",
    "backend.gather": "backend.gather_ms",
    "backend.reduce": "backend.reduce_ms",
    "engine.codegen": "engine.codegen_ms",
    "engine.result": "engine.result_ms",
    "engine.fallback": "engine.fallback_ms",
    "engine.request": "engine.other_ms",
    "serve.request": "serve.overhead_ms",
}
# Call counts reported per request.
CALLS_OF_SPAN = {
    "sql.parse": "sql.parse_calls",
    "compile.lower": "compile.lower_calls",
}
OPS_SPANS = tuple(name for name in LAYER_OF_SPAN if name.startswith("ops."))
# Time in these spans' own frames is glue between layers, not a layer.
UNATTRIBUTED = ("request", "engine.request")

SPAN_OF_OP_KIND = {
    "scan": "ops.scan",
    "chain_start": "ops.fold", "fold": "ops.fold", "fold_chain": "ops.fold",
    "indicator_build": "ops.operand_build", "value_fill": "ops.operand_build",
    "gemm": "ops.gemm", "batched_gemm": "ops.gemm",
    "nonzero": "ops.harvest", "grid_aggregate": "ops.harvest",
    "mask_apply": "ops.harvest",
    "decode": "ops.decode",
    "physical_stage": "ops.physical_stage",
}


def _matmul_flop(a, b) -> float:
    """2*m*k*n per product, times the stack depth of a 3-D batch."""
    batch = a.shape[0] if a.ndim == 3 else 1
    return 2.0 * batch * a.shape[-2] * a.shape[-1] * b.shape[-1]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.requests = 0
        self.matmul_flop = 0.0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ------------------------------------------------------ #

    def begin_request(self) -> None:
        self.requests += 1
        self._open("request")

    def end_request(self) -> None:
        # A request that raised may leave inner spans open; close them.
        while self._stack:
            self._close()

    def _open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append(
            [name, time.perf_counter(), 0.0, parent, self.requests])

    def _close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, func, name, on_open=None):
        """``func`` recorded as a span; ``name`` is a span name or a
        callable of the call's arguments.  ``on_open(parent span name,
        args)`` runs once the span is open.  Calls outside a request
        (set-up, oracle replay) pass through unrecorded."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self._stack:
                return func(*args, **kwargs)
            parent = self.spans[self._stack[-1]][0]
            self._open(name if isinstance(name, str) else name(*args))
            if on_open is not None:
                on_open(parent, args)
            try:
                return func(*args, **kwargs)
            finally:
                self._close()

        return traced

    # -- patching -------------------------------------------------------- #

    def _patch_function(self, module_name: str, attr: str, name: str) -> None:
        """Wrap a module-level function everywhere ``repro`` imported it
        (``from x import f`` binds ``f`` in the importer's namespace)."""
        func = getattr(sys.modules.get(module_name), attr, None)
        if func is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        traced = self.wrap(func, name)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is func:
                    setattr(module, key, traced)
                    self._undo.append(
                        functools.partial(setattr, module, key, func))

    def _patch_method(self, cls, attr: str, name, on_open=None) -> None:
        func = getattr(cls, attr, None)
        if func is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        if attr in vars(cls):
            self._undo.append(functools.partial(setattr, cls, attr, func))
        else:  # inherited: the patch shadows it, undo removes the shadow
            self._undo.append(functools.partial(delattr, cls, attr))
        setattr(cls, attr, self.wrap(func, name, on_open))

    def _install(self) -> None:
        import repro.engine.cache as cache
        import repro.engine.tcudb.engine as engine
        import repro.engine.tcudb.ops as ops
        import repro.engine.tcudb.optimizer as optimizer
        import repro.engine.tcudb.program as program
        import repro.engine.ydb as ydb
        import repro.serve.server as server
        import repro.sql.prepared as prepared
        import repro.storage.catalog as catalog
        import repro.tensor.backend as backend

        for module, attr, name in (
            ("repro.sql.parser", "parse", "sql.parse"),
            ("repro.sql.binder", "bind", "sql.bind"),
            ("repro.sql.prepared", "prepare_statement", "sql.bind"),
            ("repro.engine.tcudb.lower", "lower_query", "compile.lower"),
            ("repro.engine.tcudb.lower", "lower_hybrid", "compile.lower"),
            ("repro.engine.tcudb.fuse", "fuse_program", "compile.fuse"),
            ("repro.engine.tcudb.specialize", "specialize_program",
             "compile.specialize"),
            ("repro.engine.tcudb.transform", "union_key_domain",
             "transform.key_domain"),
            ("repro.engine.tcudb.driver", "build_coo_operands",
             "driver.coo_build"),
            ("repro.engine.physical", "apply_order_limit", "engine.result"),
        ):
            self._patch_function(module, attr, name)

        for cls, attr, name in (
            (prepared.PreparedStatement, "bind_execution", "sql.bind"),
            (catalog.Catalog, "fingerprint", "cache.lookup"),
            (cache.ProgramCache, "get", "cache.lookup"),
            (cache.ProgramCache, "put", "cache.lookup"),
            (program.TensorProgram, "generated_code", "engine.codegen"),
            (program.TensorProgram, "describe", "engine.codegen"),
            (optimizer.OptimizerDecision, "explain", "engine.codegen"),
            (engine.TCUDBEngine, "_build_table", "engine.result"),
            (engine.TCUDBEngine, "execute", "engine.request"),
            (engine.TCUDBEngine, "execute_prepared", "engine.request"),
            (ydb.YDBEngine, "execute_bound", "engine.fallback"),
            (server.Session, "execute", "serve.request"),
        ):
            self._patch_method(cls, attr, name)

        def op_span(op, _ctx):
            return SPAN_OF_OP_KIND.get(op.kind, "ops.harvest")

        pending = [ops.TensorOp]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if cls is not ops.TensorOp and "execute" in vars(cls):
                self._patch_method(cls, "execute", op_span)

        def count_matmul(a_index):
            def on_open(parent, args):
                # matmul_into's default calls matmul: count the outer one.
                if parent != "backend.matmul":
                    self.matmul_flop += _matmul_flop(args[a_index],
                                                     args[a_index + 1])
            return on_open

        primitives = {
            # (self, device, a, b, ..) and (self, acc, device, a, b, ..)
            "matmul": ("backend.matmul", count_matmul(2)),
            "matmul_into": ("backend.matmul", count_matmul(3)),
            "dense_from_coo": ("backend.fill", None),
            "gather": ("backend.gather", None),
            "bincount": ("backend.reduce", None),
            "nonzero": ("backend.reduce", None),
            "apply_mask": ("backend.reduce", None),
        }
        for cls in (backend.TensorBackend, backend.SimBackend,
                    backend.FastBackend):
            for attr, (name, on_open) in primitives.items():
                if attr in vars(cls):
                    self._patch_method(cls, attr, name, on_open)

    @contextlib.contextmanager
    def installed(self):
        self._install()
        try:
            yield self
        finally:
            while self._undo:
                self._undo.pop()()

    # -- reporting ------------------------------------------------------- #

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call counts per span name."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _request in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _parent, _request), covered in zip(
                self.spans, child_time):
            seconds[name] += end - start - covered
            calls[name] += 1
        return seconds, calls

    def per_request_ms(self) -> dict[str, float]:
        """Every tracer-owned per-layer metric, as means per request."""
        seconds, calls = self.self_times()
        n = max(self.requests, 1)
        total = sum(seconds.values())
        metrics = {metric: seconds.get(span, 0.0) / n * 1e3
                   for span, metric in LAYER_OF_SPAN.items()}
        for span, metric in CALLS_OF_SPAN.items():
            metrics[metric] = calls.get(span, 0) / n
        metrics["ops.executed"] = sum(calls.get(s, 0) for s in OPS_SPANS) / n
        metrics["backend.matmul_gflop"] = self.matmul_flop / n / 1e9
        metrics["trace.coverage"] = (
            1.0 - sum(seconds.get(s, 0.0) for s in UNATTRIBUTED) / total
            if total else 0.0)
        metrics["trace.missing_targets"] = len(self.missing)
        return metrics

    def write(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "missing_targets": self.missing,
                       "spans": self.spans}, out)
