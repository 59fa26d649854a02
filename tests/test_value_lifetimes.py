"""An aggregate product holds each large array only while something reads it.

``TensorProgram.run`` drops a value once its last reader has executed;
``ValueFill`` sums one operand and releases its per-tuple slots before
the other is built; the product keeps the backend's dtype and the
harvest converts it once, into finals and group columns the result
adopts uncopied.  Figure 5's matrix-multiplication query at dim 128, on
both backends, checks the sum of it: a request's traced peak, the CUDA
source it renders, and what its context still holds at the end.
"""

from __future__ import annotations

import gc
import hashlib
import tracemalloc

import pytest

from repro.datasets.matmul import matmul_catalog
from repro.engine.tcudb import TCUDBEngine, TCUDBOptions

DIM = 128
MATMUL_SQL = ("SELECT A.col_num, B.row_num, SUM(A.val * B.val) AS res "
              "FROM A, B WHERE A.row_num = B.col_num "
              "GROUP BY A.col_num, B.row_num")
# sha256 of the source this query renders when every value stays in
# ``ctx.values`` to the end of the run (both backends): the batched GEMM
# section prints the operand dims, 128 x 128 x 128.
SOURCE_SHA256 = (
    "eddea7858bad53301bfe07295afa881038c0b82978ca01fd9c76583bdaf59248")


@pytest.fixture(params=["sim", "fast"])
def engine(request):
    engine = TCUDBEngine(matmul_catalog(DIM, seed=5),
                         options=TCUDBOptions(backend=request.param))
    engine.execute(MATMUL_SQL)  # calibration and first-use caches
    return engine


def test_a_request_peaks_at_the_result_plus_one_operand_pair(engine):
    """Traced bytes a request allocates at its peak are at most the
    result's plus four ``g * k`` float64 operands on ``sim``: one operand
    pair of slot sums, and the product with its fills.  ``fast`` places
    each one-tuple-per-cell side in float32 and multiplies the placed
    pair as it is: three ``g * k`` float32 arrays at most."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = engine.execute(MATMUL_SQL)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert result.extra["executed_by"] == "TCU"
    table = result.require_table()
    assert table.num_rows == DIM * DIM
    result_bytes = sum(table.column(name).data.nbytes
                       for name in table.column_names)
    if engine.driver.backend.name == "fast":
        bound = result_bytes + 3 * DIM * DIM * 4
    else:
        bound = result_bytes + 4 * DIM * DIM * 8
    assert peak <= bound, (peak, result_bytes)


def test_the_source_renders_the_operand_dims_the_run_saw(engine):
    source = engine.execute(MATMUL_SQL).extra["generated_code"].source
    assert f"{DIM}, {DIM}, {DIM}" in source
    assert hashlib.sha256(source.encode()).hexdigest() == SOURCE_SHA256


def test_only_the_output_survives_the_run(engine, monkeypatch):
    runs = []
    finalize = TCUDBEngine._finalize

    def kept(self, bound, program, ctx, output):
        runs.append((program, dict(ctx.values), output))
        return finalize(self, bound, program, ctx, output)

    monkeypatch.setattr(TCUDBEngine, "_finalize", kept)
    engine.execute(MATMUL_SQL)
    (program, values, output), = runs
    assert len(program.ops) > 2
    assert list(values) == [program.ops[-1].id]
    assert values[program.ops[-1].id] is output
