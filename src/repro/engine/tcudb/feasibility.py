"""The data-range feasibility test (Section 4.2.1).

Given the value ranges of both operand matrices (computed exactly from
the prepared sides by ``ops._summed_operand``), the test
bounds the largest possible result as m1 * m2 * k and picks the most
compact TCU-compatible precision (int4 -> int8 -> fp16) — or rejects
TCU execution when no precision can represent the data.

Indicator (0/1) matrices — plain joins — are always exactly
representable, which is why the paper's Table 1 shows zero error for
those cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.tensor.precision import ValueRange
from repro.tensor.quantize import PrecisionChoice, choose_precision


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the range test for one TCU operator."""

    feasible: bool
    choice: PrecisionChoice | None
    left_range: ValueRange | None
    right_range: ValueRange | None
    result_bound: float
    reason: str = ""

    @property
    def integral_magnitudes(self) -> tuple[float, float] | None:
        """``(max|a|, max|b|)`` over every fill slot of each operand when
        both ranges are integral (None otherwise): an integer product
        reads these instead of re-reading its operands.  Slots that do
        not run can only widen them, which may pick the wider exact
        width, never change a product's value."""
        left, right = self.left_range, self.right_range
        if left is None or right is None or not (
                left.is_integral and right.is_integral):
            return None
        return left.magnitude, right.magnitude


INDICATOR_RANGE = ValueRange(0.0, 1.0)


def run_feasibility_test(
    left_range: ValueRange | None,
    right_range: ValueRange | None,
    k: int,
    require_exact: bool = False,
) -> FeasibilityReport:
    """Figure 6's data-range test: pick the most compact workable type."""
    if left_range is None or right_range is None:
        return FeasibilityReport(
            feasible=False, choice=None, left_range=left_range,
            right_range=right_range, result_bound=math.inf,
            reason="operand value range is unbounded (division by a column "
                   "whose range spans zero)",
        )
    choice = choose_precision(left_range, right_range, k,
                              require_exact=require_exact)
    bound = left_range.magnitude * right_range.magnitude * max(k, 1)
    if not choice.feasible:
        return FeasibilityReport(
            feasible=False, choice=choice, left_range=left_range,
            right_range=right_range, result_bound=bound,
            reason="no TCU-compatible data type can represent the inputs "
                   "at the required accuracy",
        )
    return FeasibilityReport(
        feasible=True, choice=choice, left_range=left_range,
        right_range=right_range, result_bound=bound,
    )
