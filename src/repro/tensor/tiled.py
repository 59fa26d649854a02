"""16x16 tiled sparse matrices — the TCU-SpMM data structure.

Section 4.2.4: TCU-SpMM transforms an input into CSR, partitions it into
16x16 submatrices, skips submatrices containing all zeros, and multiplies
the remaining tiles on the tensor cores.  :class:`TiledMatrix` stores only
the non-empty tiles; :func:`tile_pair_count` computes how many 16^3 MMA
issues a product needs, which is what the timing model charges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ReproError
from repro.tensor.coo import COOMatrix
from repro.tensor.keys import unique_inverse

TILE = 16


@dataclass(frozen=True)
class TiledMatrix:
    """Sparse matrix stored as non-empty 16x16 dense tiles.

    ``block_rows``/``block_cols`` give each stored tile's block
    coordinates; ``tiles`` is a (n_tiles, 16, 16) array of tile contents.
    """

    block_rows: np.ndarray
    block_cols: np.ndarray
    tiles: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self):
        if self.tiles.ndim != 3 or self.tiles.shape[1:] != (TILE, TILE):
            raise ReproError("tiles must be (n, 16, 16)")
        if not (self.block_rows.shape == self.block_cols.shape
                == (self.tiles.shape[0],)):
            raise ReproError("block coordinate arrays must match tile count")

    # -- constructors ----------------------------------------------------- #

    @staticmethod
    def from_coo(coo: COOMatrix, assume_canonical: bool = False) -> "TiledMatrix":
        """Partition COO triples into non-empty 16x16 tiles.

        ``assume_canonical`` skips the duplicate-summing sort when the
        caller guarantees unique coordinates (the direct-COO operand
        builder emits canonical triples, so the extra pass would be
        wasted on the hot path).
        """
        if not assume_canonical:
            coo = coo.sum_duplicates()
        n_rows, n_cols = coo.shape
        if coo.nnz == 0:
            return TiledMatrix(
                block_rows=np.array([], dtype=np.int64),
                block_cols=np.array([], dtype=np.int64),
                tiles=np.zeros((0, TILE, TILE)),
                shape=coo.shape,
            )
        block_r = coo.rows // TILE
        block_c = coo.cols // TILE
        blocks_per_row = -(-n_cols // TILE)
        keys = block_r * blocks_per_row + block_c
        unique_keys, tile_index = unique_inverse(keys)
        tiles = np.zeros((unique_keys.size, TILE, TILE), dtype=np.float64)
        # Coordinates are unique here (canonical input or post
        # sum_duplicates), so plain fancy-index assignment applies — much
        # faster than the np.add.at scatter it replaces.
        tiles[tile_index, coo.rows % TILE, coo.cols % TILE] = coo.vals
        return TiledMatrix(
            block_rows=unique_keys // blocks_per_row,
            block_cols=unique_keys % blocks_per_row,
            tiles=tiles,
            shape=coo.shape,
        )

    @staticmethod
    def from_dense(dense: np.ndarray) -> "TiledMatrix":
        return TiledMatrix.from_coo(COOMatrix.from_dense(dense))

    # -- properties ------------------------------------------------------- #

    @property
    def n_tiles(self) -> int:
        return int(self.tiles.shape[0])

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.tiles))

    @property
    def tile_density(self) -> float:
        """Fraction of the full tile grid that is non-empty."""
        grid = (-(-self.shape[0] // TILE)) * (-(-self.shape[1] // TILE))
        return self.n_tiles / grid if grid else 0.0

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(
            (-(-self.shape[0] // TILE) * TILE, -(-self.shape[1] // TILE) * TILE)
        )
        for block_r, block_c, tile in zip(
            self.block_rows, self.block_cols, self.tiles
        ):
            r0, c0 = block_r * TILE, block_c * TILE
            dense[r0:r0 + TILE, c0:c0 + TILE] = tile
        return dense[: self.shape[0], : self.shape[1]]

    # -- products ---------------------------------------------------------- #

    def spmm(self, other: "TiledMatrix") -> tuple["TiledMatrix", int]:
        """Tile-level product; returns (result, number of MMA tile pairs).

        For every pair of tiles A[bi, bk] and B[bk, bj] sharing an inner
        block index, one 16x16x16 MMA accumulates into C[bi, bj] — tiles
        that are entirely zero never issue, which is the whole point of
        TCU-SpMM.
        """
        if self.shape[1] != other.shape[0]:
            raise ReproError(
                f"incompatible shapes {self.shape} @ {other.shape}"
            )
        by_inner: dict[int, list[int]] = {}
        for idx, block_r in enumerate(other.block_rows):
            by_inner.setdefault(int(block_r), []).append(idx)
        accumulators: dict[tuple[int, int], np.ndarray] = {}
        tile_pairs = 0
        for a_idx, block_k in enumerate(self.block_cols):
            matches = by_inner.get(int(block_k))
            if not matches:
                continue
            a_tile = self.tiles[a_idx]
            block_i = int(self.block_rows[a_idx])
            for b_idx in matches:
                block_j = int(other.block_cols[b_idx])
                tile_pairs += 1
                key = (block_i, block_j)
                accumulator = accumulators.get(key)
                if accumulator is None:
                    accumulator = np.zeros((TILE, TILE))
                    accumulators[key] = accumulator
                accumulator += a_tile @ other.tiles[b_idx]
        shape = (self.shape[0], other.shape[1])
        if not accumulators:
            empty = TiledMatrix(
                block_rows=np.array([], dtype=np.int64),
                block_cols=np.array([], dtype=np.int64),
                tiles=np.zeros((0, TILE, TILE)), shape=shape,
            )
            return empty, 0
        keys = sorted(accumulators)
        result = TiledMatrix(
            block_rows=np.array([k[0] for k in keys], dtype=np.int64),
            block_cols=np.array([k[1] for k in keys], dtype=np.int64),
            tiles=np.stack([accumulators[k] for k in keys]),
            shape=shape,
        )
        return result, tile_pairs


@dataclass(frozen=True)
class TileLayout:
    """Reusable tile structure for a family of same-sparsity matrices.

    ``BatchedGemm``'s SPARSE path multiplies one indicator structure by
    several value fills: every grid in the batch shares the COO
    coordinates and differs only in ``vals``.  Building a
    :class:`TiledMatrix` per grid re-derives block keys, uniques and
    within-tile offsets each time; a ``TileLayout`` derives them once
    from the coordinates, and :meth:`fill` then materializes each
    member of the batch with a single fancy-index assignment.
    """

    block_rows: np.ndarray
    block_cols: np.ndarray
    tile_index: np.ndarray
    within_rows: np.ndarray
    within_cols: np.ndarray
    shape: tuple[int, int]

    @staticmethod
    def from_coords(rows: np.ndarray, cols: np.ndarray,
                    shape: tuple[int, int]) -> "TileLayout":
        """Derive the tile structure from canonical (unique) coordinates."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size == 0:
            empty = np.array([], dtype=np.int64)
            return TileLayout(empty, empty, empty, empty, empty, shape)
        blocks_per_row = -(-shape[1] // TILE)
        keys = (rows // TILE) * blocks_per_row + cols // TILE
        unique_keys, tile_index = unique_inverse(keys)
        return TileLayout(
            block_rows=unique_keys // blocks_per_row,
            block_cols=unique_keys % blocks_per_row,
            tile_index=tile_index,
            within_rows=rows % TILE,
            within_cols=cols % TILE,
            shape=shape,
        )

    @property
    def n_tiles(self) -> int:
        return int(self.block_rows.size)

    def fill(self, vals: np.ndarray) -> TiledMatrix:
        """One value assignment → a TiledMatrix sharing this structure.

        Cells whose value is zero stay stored (as explicit zeros inside
        their tile), so every fill of a layout has identical tile
        geometry — that is what makes the batch single-pass.
        """
        tiles = np.zeros((self.n_tiles, TILE, TILE), dtype=np.float64)
        if self.n_tiles:
            tiles[self.tile_index, self.within_rows, self.within_cols] = (
                np.asarray(vals, dtype=np.float64))
        return TiledMatrix(
            block_rows=self.block_rows,
            block_cols=self.block_cols,
            tiles=tiles,
            shape=self.shape,
        )


def tile_pair_count(a: TiledMatrix, b: TiledMatrix) -> int:
    """MMA issues of a @ b: sum over inner blocks of |A tiles| x |B tiles|."""
    if a.shape[1] != b.shape[0]:
        raise ReproError("incompatible shapes for tile_pair_count")
    a_counts = np.bincount(a.block_cols.astype(np.int64)) if a.n_tiles else np.array([0])
    b_counts = np.bincount(b.block_rows.astype(np.int64)) if b.n_tiles else np.array([0])
    width = max(a_counts.size, b_counts.size)
    a_padded = np.zeros(width, dtype=np.int64)
    b_padded = np.zeros(width, dtype=np.int64)
    a_padded[: a_counts.size] = a_counts
    b_padded[: b_counts.size] = b_counts
    return int(np.sum(a_padded * b_padded))


def count_nonempty_tiles(rows: np.ndarray, cols: np.ndarray) -> int:
    """Exact non-empty tile count from COO coordinates (no tile build)."""
    if rows.size == 0:
        return 0
    keys = (np.asarray(rows, dtype=np.int64) // TILE) * (1 << 32) + (
        np.asarray(cols, dtype=np.int64) // TILE
    )
    return int(np.unique(keys).size)


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
