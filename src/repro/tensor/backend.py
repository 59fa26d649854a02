"""Pluggable tensor backends: the kernel-primitive layer of the driver.

TQP ("Query Processing on Tensor Computation Runtimes", He et al., VLDB
2022) shows the whole relational operator set runs on pure tensor APIs,
and the TCU computational model of Chowdhury, Silvestri & Vella (2019)
motivates treating matmul/gather/reduction as the swappable primitive
layer.  Our operator catalog is already exactly that granularity, so a
:class:`TensorBackend` exposes the primitives the driver actually uses —
``matmul`` (2-D and 3-D stacked, with the fp16 scaling semantics of the
simulated unit), ``gather``, ``bincount``/segmented-sum, ``nonzero``,
dense-from-COO construction and the masked-epilogue apply — with two
implementations:

* :class:`SimBackend` — the NumPy tensor-core simulator, extracted
  verbatim: bit-identical to the historical driver and the reference
  oracle every other backend is differentially tested against.
  Simulated cycles are charged by the cost model, never by a backend, so
  backend choice cannot move the perf-regression gate.
* :class:`FastBackend` — an optimized NumPy/BLAS execution backend that
  is measurably faster on *host* wall-clock: float32 contiguous operand
  fills feeding sgemm directly, preallocated grid-accumulation buffers
  reused across key-domain chunks (``matmul_into``), and single-pass
  bincount epilogues.  fp16-strategy products skip the simulator's
  cast-to-binary16 rounding (float32 inputs, fp32 accumulation), which
  keeps results within the documented ``rel=2e-3`` equivalence envelope;
  integer-precision products are the simulator's own
  (:func:`~repro.tensor.precision.exact_integer_matmul`).

Selection mirrors ``workers_policy``/``shards_policy``: an explicit
``TCUDBOptions.backend`` wins, then the ``REPRO_BACKEND`` environment
knob, then ``"sim"``.  Unknown names raise :class:`ConfigError`.

Equivalence contract (differentially tested in ``tests/test_backends.py``):

* integer-precision products and indicator/count grids are **exact**
  across backends;
* fp16-strategy value grids agree with the simulator within relative
  ``2e-3`` (the simulator's own fp16 rounding is ~1e-3; the fast
  float32 path sits well inside it);
* ``gather``/``bincount``/``nonzero``/``dense_from_coo``/``apply_mask``
  are bit-identical everywhere (same integer/boolean arithmetic).
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.common.errors import ConfigError
from repro.tensor.coo import dense_from_coo as _sim_dense_from_coo
from repro.tensor.precision import Precision, exact_integer_matmul


class TensorBackend:
    """The kernel primitives a TensorProgram execution actually needs.

    ``device`` is the simulated :class:`~repro.hardware.gpu.GPUDevice`;
    only :class:`SimBackend` uses its numeric emulation — execution
    backends implement the same contract with their own kernels.  All
    methods accept/return NumPy arrays at the interface boundary so the
    driver stays backend-agnostic.
    """

    #: registry key; also what the ProgramCache options key records.
    name = "abstract"
    #: dtype of dense operand fills (execution backends may fill a
    #: narrower type when their matmul consumes it directly).
    fill_dtype = np.float64

    # -- products ------------------------------------------------------- #

    def matmul(self, device, a: np.ndarray, b: np.ndarray,
               precision: Precision) -> np.ndarray:
        """``a @ b`` (2-D, or 3-D stacked batch) at a TCU precision.

        Returns float64 for fp16-strategy products and int64 for integer
        precisions, matching the simulated unit's output contract.
        """
        raise NotImplementedError

    def matmul_into(self, acc: np.ndarray, device, a: np.ndarray,
                    b: np.ndarray, precision: Precision) -> np.ndarray:
        """Accumulate ``a @ b`` into ``acc`` (the grid-accumulation hot
        loop).  Backends may reuse scratch buffers across calls; the
        default materializes the product and adds."""
        acc += self.matmul(device, a, b, precision)
        return acc

    # -- movement / reduction primitives -------------------------------- #

    def gather(self, array: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """``array[indices]`` — the fold/extraction gather."""
        return np.asarray(array)[indices]

    def bincount(self, codes: np.ndarray, weights: np.ndarray | None = None,
                 minlength: int = 0) -> np.ndarray:
        """Segmented sum by integer code (epilogues, multiplicities)."""
        return np.bincount(codes, weights=weights, minlength=minlength)

    def nonzero(self, matrix: np.ndarray):
        """Coordinates of non-zero (or True) cells — pair/group harvest."""
        return np.nonzero(matrix)

    def dense_from_coo(self, rows: np.ndarray, cols: np.ndarray,
                       vals: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
        """Dense operand from COO triples, duplicates summed."""
        raise NotImplementedError

    def apply_mask(self, arrays: list[np.ndarray],
                   mask: np.ndarray) -> list[np.ndarray]:
        """Masked-epilogue apply: filter each array by a boolean mask."""
        return [np.asarray(a)[mask] for a in arrays]


class SimBackend(TensorBackend):
    """The simulated tensor cores — the reference oracle.

    Delegates every product to
    :meth:`repro.hardware.tcu.TensorCoreUnit.matmul` (bit-accurate
    fp16/int8/int4 emulation) and every fill to the historical
    float64 :func:`repro.tensor.coo.dense_from_coo`, so the default
    execution path is byte-for-byte the pre-backend driver.
    """

    name = "sim"
    fill_dtype = np.float64

    def matmul(self, device, a, b, precision):
        return device.tcu.matmul(a, b, precision)

    def dense_from_coo(self, rows, cols, vals, shape):
        return _sim_dense_from_coo(rows, cols, vals, shape)


class FastBackend(TensorBackend):
    """Optimized NumPy/BLAS execution backend.

    fp16-strategy products run as one contiguous float32 sgemm (fp32
    accumulation, no binary16 input rounding, no scale/finite-check
    passes): numerically *tighter* than the simulator and several array
    passes cheaper.  Integer precisions run
    :func:`~repro.tensor.precision.exact_integer_matmul`, the product
    the simulator runs: exact at the width the operands need, sgemm on
    the float32 fills in the common case.  Operand fills are float32 and
    C-contiguous so sgemm consumes them without conversion; the
    grid-accumulation loop reuses one thread-local scratch buffer per
    output shape instead of allocating a partial per chunk.
    """

    name = "fast"
    fill_dtype = np.float32

    def __init__(self):
        self._scratch = threading.local()

    @staticmethod
    def _as_f32(operand: np.ndarray) -> np.ndarray:
        operand = np.asarray(operand)
        if operand.dtype == np.float32 and operand.flags.c_contiguous:
            return operand
        return np.ascontiguousarray(operand, dtype=np.float32)

    def matmul(self, device, a, b, precision):
        if not precision.is_integer:
            product = np.matmul(self._as_f32(a), self._as_f32(b))
            return product.astype(np.float64)
        # int8/int4: the simulator's own integer product (sgemm on the
        # float32 fills while k * max|a| * max|b| <= 2**24, dgemm past
        # it), minus its range and accumulator checks.
        return exact_integer_matmul(a, b)

    def matmul_into(self, acc, device, a, b, precision):
        if precision.is_integer:
            acc += self.matmul(device, a, b, precision)
            return acc
        a32, b32 = self._as_f32(a), self._as_f32(b)
        out_shape = tuple(acc.shape)
        buffers = getattr(self._scratch, "buffers", None)
        if buffers is None:
            buffers = self._scratch.buffers = {}
        out = buffers.get(out_shape)
        if out is None:
            out = buffers[out_shape] = np.empty(out_shape, dtype=np.float32)
        np.matmul(a32, b32, out=out)
        acc += out
        return acc

    def gather(self, array, indices):
        return np.take(np.asarray(array), indices, axis=0)

    def dense_from_coo(self, rows, cols, vals, shape):
        n_rows, n_cols = shape
        if len(rows) == 0:
            return np.zeros(shape, dtype=np.float32)
        flat = np.asarray(rows, dtype=np.int64) * n_cols + np.asarray(
            cols, dtype=np.int64
        )
        dense = np.bincount(
            flat, weights=np.asarray(vals, dtype=np.float64),
            minlength=n_rows * n_cols,
        )
        return np.ascontiguousarray(
            dense.reshape(n_rows, n_cols), dtype=np.float32
        )


#: Backend registry — the names ``backend_policy`` accepts.
BACKENDS: dict[str, type[TensorBackend]] = {
    "sim": SimBackend,
    "fast": FastBackend,
}

DEFAULT_BACKEND = "sim"


def backend_policy(override: str | None = None) -> str:
    """The effective backend name: an explicit override, the
    ``REPRO_BACKEND`` environment knob, or ``"sim"``.

    Mirrors :func:`repro.engine.parallel.workers_policy`: unknown names
    raise :class:`ConfigError` (a typo must not silently run the
    default backend).
    """
    if override is not None:
        name = str(override).strip().lower()
        if name not in BACKENDS:
            raise ConfigError(
                f"unknown tensor backend {override!r}; "
                f"available: {sorted(BACKENDS)}"
            )
        return name
    env = os.environ.get("REPRO_BACKEND")
    if env:
        return backend_policy(env)
    return DEFAULT_BACKEND


def get_backend(name: str | None = None) -> TensorBackend:
    """Resolve and instantiate the active backend.

    ``name=None`` defers to :func:`backend_policy` (env, then default).
    Each driver owns its instance — fast-backend scratch buffers are
    thread-local per instance, never shared across engines.
    """
    return BACKENDS[backend_policy(name)]()


__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "FastBackend",
    "SimBackend",
    "TensorBackend",
    "backend_policy",
    "get_backend",
]
