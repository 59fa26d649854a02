"""16x16 tile counts — the TCU-SpMM price.

Section 4.2.4: TCU-SpMM transforms an input into CSR, partitions it into
16x16 submatrices, skips submatrices containing all zeros, and multiplies
the remaining tiles on the tensor cores.  The optimizer prices that
kernel from how many 16^3 MMA issues a product needs, estimated here from
operand shapes and nonzero counts; the host computes a SPARSE plan's
product as it does every other plan's, with one backend product.
"""

from __future__ import annotations

TILE = 16


def estimate_nonempty_tiles(shape: tuple[int, int], nnz: int) -> float:
    """Expected non-empty tiles for ``nnz`` uniformly random coordinates.

    Used by the cost estimator when materializing coordinates would be
    too expensive: each of the G tiles is empty with probability
    (1 - 1/G)^nnz under uniform placement.
    """
    grid = (-(-shape[0] // TILE)) * (-(-shape[1] // TILE))
    if grid == 0 or nnz <= 0:
        return 0.0
    return grid * (1.0 - (1.0 - 1.0 / grid) ** nnz)


def estimate_tile_pairs(
    a_shape: tuple[int, int], a_nnz: int, b_shape: tuple[int, int], b_nnz: int
) -> float:
    """Expected MMA issues for a product of two uniform sparse matrices."""
    inner_blocks = -(-a_shape[1] // TILE)
    if inner_blocks == 0:
        return 0.0
    a_tiles = estimate_nonempty_tiles(a_shape, a_nnz)
    b_tiles = estimate_nonempty_tiles(b_shape, b_nnz)
    # Per inner block: (a_tiles / inner) x (b_tiles / inner), summed over
    # all inner blocks.
    return a_tiles * b_tiles / inner_blocks
