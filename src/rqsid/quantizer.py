"""Residual k-means codebooks: train layer by layer, encode a collection.

Layer 1 clusters the raw vectors; each later layer clusters the residuals left
by all earlier layers. Encoding greedily picks the nearest codeword per layer
(squared Euclidean, ties to the lowest index), so the token chosen at layer l
equals an exhaustive scan of that layer's codewords.

Nearest-codeword selection on large inputs is scored in float32 and certified
against a rounding-error bound; rows whose best/second-best margin falls
inside the bound are rescored in float64, so selections always equal the
float64 argmin. Each block of rows is scored by one float32 GEMM, with the
codeword norms folded into the product: [p | 1] . [-2c | c^2] = c^2 - 2 p.c.
The best and the runner-up are then two `argmin` passes over the block (the
best slot set to inf between them). Residuals, means, and reported errors
stay in float64.

`train_rq` holds its residuals column-major (the transpose of a C-order
(dim, n) array), so each per-dimension column the k-means mean update reads
is contiguous. Every float64 row reduction (squared norms, exact distances)
reads a C-order copy of a small row block instead of the strided rows: the
reduction then sums in the same order as on C-order input, and both layouts
give the same bytes.
"""

from __future__ import annotations

import logging
import math
from typing import NamedTuple

import numpy as np

from .core import (
    Codebook,
    ConfigError,
    DataError,
    EmbeddingCollection,
    QuantizerConfig,
    RandomSource,
)

log = logging.getLogger(__name__)

# Rows per scoring block. The (rows x M) float32 score block is read by two
# argmin passes after the GEMM writes it; at M = 256 a 1024-row block is
# 1 MB. 512, 1024 and 2048 rows measured within noise of each other with the
# one-GEMM scorer.
_SCORE_CHUNK = 1024
# Inputs smaller than this skip the mixed-precision path entirely.
_MIXED_MIN_M = 8
_MIXED_MIN_N = 1024
# Norm scale beyond which float32 scoring risks overflow; fall back to exact.
_MIXED_MAX_SCALE = 1e15
# Rows that `train_rq` updates and `encode_all` encodes at once, so neither
# builds an (n, dim) temporary. `train_rq` holds all rows' residuals, in one
# column-major array; `encode_all` holds one block's.
_ROW_BLOCK = 16384


class KMeansResult(NamedTuple):
    centroids: np.ndarray
    assignments: np.ndarray
    sse: float


def _row_blocks(points: np.ndarray, size: int):
    """(start, stop, block) over consecutive blocks of `size` rows, each
    block C-order: a view of C-order input, a copy of column-major input."""
    n = points.shape[0]
    for start in range(0, n, size):
        stop = min(start + size, n)
        yield start, stop, np.ascontiguousarray(points[start:stop])


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Exact float64 pairwise squared Euclidean distances, (n, m)."""
    p_sq = np.einsum("ij,ij->i", points, points)
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    d = p_sq[:, None] - 2.0 * (points @ centroids.T) + c_sq[None, :]
    np.maximum(d, 0.0, out=d)
    return d


class _PointSide:
    """Per-point precomputations reused across scoring calls on fixed points."""

    __slots__ = ("points", "p32", "p_sq", "p_sq32", "p_norm", "norm_max")

    def __init__(self, points: np.ndarray):
        self.points = points
        self.p32 = points.astype(np.float32, order="C")
        self.p_sq = np.empty(points.shape[0], dtype=np.float64)
        for start, stop, block in _row_blocks(points, _SCORE_CHUNK):
            self.p_sq[start:stop] = np.einsum("ij,ij->i", block, block)
        self.p_sq32 = np.einsum("ij,ij->i", self.p32, self.p32)
        self.p_norm = np.sqrt(self.p_sq)
        self.norm_max = float(self.p_norm.max()) if len(points) else 0.0


def _nearest_exact(
    points: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    n = points.shape[0]
    labels = np.empty(n, dtype=np.int64)
    dists = np.empty(n, dtype=np.float64)
    for start, stop, block in _row_blocks(points, 1 << 15):
        d = _sq_dists(block, centroids)
        labels[start:stop] = np.argmin(d, axis=1)
        dists[start:stop] = d[np.arange(stop - start), labels[start:stop]]
    return labels, dists


def _nearest(
    points: np.ndarray,
    centroids: np.ndarray,
    side: _PointSide | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Argmin centroid per point (ties to the lowest index) and exact distances.

    The selection equals the float64 argmin: fast-path rows are accepted only
    when their float32 margin exceeds a conservative error bound, the rest
    are rescored in float64.
    """
    n, d = points.shape
    m = centroids.shape[0]
    if m < _MIXED_MIN_M or n < _MIXED_MIN_N:
        return _nearest_exact(points, centroids)
    if side is None:
        side = _PointSide(points)

    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    c_norm_max = float(np.sqrt(c_sq.max()))
    if (side.norm_max + c_norm_max) ** 2 > _MIXED_MAX_SCALE:
        return _nearest_exact(points, centroids)
    c32 = centroids.astype(np.float32)
    # c_aug = [-2 c | c^2]: one GEMM of [p | 1] with it scores c^2 - 2 p.c,
    # which ranks like the distance (p^2 is constant per row). Scaling by -2
    # is exact.
    c_aug = np.empty((m, d + 1), dtype=np.float32)
    np.multiply(c32, -2.0, out=c_aug[:, :d])
    c_aug[:, d] = np.einsum("ij,ij->i", c32, c32)
    # |float32 score - exact score| <= gamma * (|p| + |c|)^2 per pair, as long
    # as no float32 product underflows. With u = 2^-24 and g_k = k u / (1 - k u):
    # rounding p and c to float32 errs by (2u + u^2) (2|p||c| + |c|^2), the
    # float32 c^2 by g_d |c|^2, and the (d+1)-term float32 dot product
    # [p | 1] . [-2c | c^2], in any summation order, with or without FMA, by
    # g_{d+1} (2|p||c| + |c|^2) (1 + 3u + g_d). The total is below
    # (2d + 3) u (1 + 2 (d + 1) u) (|p| + |c|)^2, and gamma = 2.013 (d + 8) u
    # exceeds that for every d < 4000.
    gamma = (d + 8) * 1.2e-7

    p_aug = np.empty((_SCORE_CHUNK, d + 1), dtype=np.float32)
    p_aug[:, d] = 1.0
    scores = np.empty((_SCORE_CHUNK, m), dtype=np.float32)
    all_rows = np.arange(_SCORE_CHUNK)
    labels = np.empty(n, dtype=np.int64)
    dists = np.empty(n, dtype=np.float64)
    for start, stop, block in _row_blocks(points, _SCORE_CHUNK):
        k = stop - start
        p_aug[:k, :d] = side.p32[start:stop]
        s = np.matmul(p_aug[:k], c_aug.T, out=scores[:k])
        rows = all_rows[:k]
        best = np.argmin(s, axis=1)
        s_best = s[rows, best].astype(np.float64)
        s[rows, best] = np.inf
        # for finite scores the runner-up's value is the row min
        s_second = s[rows, np.argmin(s, axis=1)].astype(np.float64)
        margin = gamma * (side.p_norm[start:stop] + c_norm_max) ** 2
        chunk_labels = best.astype(np.int64)
        ambiguous = np.flatnonzero(s_second - s_best <= 2.0 * margin)
        if ambiguous.size:
            exact = _sq_dists(block[ambiguous], centroids)
            chunk_labels[ambiguous] = np.argmin(exact, axis=1)
        chunk_dists = (
            side.p_sq[start:stop]
            - 2.0 * np.einsum("ij,ij->i", block, centroids[chunk_labels])
            + c_sq[chunk_labels]
        )
        np.maximum(chunk_dists, 0.0, out=chunk_dists)
        labels[start:stop] = chunk_labels
        dists[start:stop] = chunk_dists
    return labels, dists


def _kmeanspp_init(
    points: np.ndarray, m: int, gen: np.random.Generator, side: _PointSide
) -> np.ndarray:
    """Squared-distance-weighted seeding. Once every remaining point has zero
    weight (fewer distinct points than centroids) further seeds are drawn
    uniformly, which duplicates existing points."""
    n, d = points.shape
    centroids = np.empty((m, d), dtype=np.float64)
    first = int(gen.integers(n))
    centroids[0] = points[first]
    fast = (side.norm_max * 2.0) ** 2 <= _MIXED_MAX_SCALE

    def dist_to(c: np.ndarray) -> np.ndarray:
        # seeding only needs sampling weights, so float32 scoring is fine
        if fast:
            c32 = c.astype(np.float32)
            w = side.p_sq32 - 2.0 * (side.p32 @ c32) + np.float32(c32 @ c32)
            return np.maximum(w, 0.0, out=w)
        w = np.empty(n, dtype=np.float64)
        for start, stop, block in _row_blocks(points, _SCORE_CHUNK):
            w[start:stop] = _sq_dists(block, c[None, :])[:, 0]
        return w

    min_d2 = np.asarray(dist_to(centroids[0]), dtype=np.float64)
    warned = False
    for j in range(1, m):
        total = float(min_d2.sum())
        if total <= 0.0:
            if not warned:
                log.warning("fewer than %d distinct points; duplicating centroids", m)
                warned = True
            idx = int(gen.integers(n))
        else:
            # numpy's own algorithm for gen.choice(n, p=min_d2 / total),
            # without its validation passes; the random stream is the same
            cdf = (min_d2 / total).cumsum()
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(gen.random(), side="right"))
        centroids[j] = points[idx]
        np.minimum(min_d2, dist_to(centroids[j]), out=min_d2)
    return centroids


def _cluster_means(
    points: np.ndarray, labels: np.ndarray, m: int, dists: np.ndarray
) -> np.ndarray:
    """Per-cluster means; empty clusters are re-seeded to the points currently
    farthest from their centroid (ties to the lowest point index)."""
    d = points.shape[1]
    counts = np.bincount(labels, minlength=m).astype(np.float64)
    sums = np.empty((m, d), dtype=np.float64)
    for j in range(d):
        sums[:, j] = np.bincount(labels, weights=points[:, j], minlength=m)
    empty = counts == 0
    counts[empty] = 1.0
    means = sums / counts[:, None]
    if empty.any():
        order = np.argsort(-dists, kind="stable")
        means[np.flatnonzero(empty)] = points[order[: int(empty.sum())]]
    return means


def kmeans(
    points,
    num_centroids: int,
    iters: int,
    tol: float,
    rng: RandomSource,
) -> KMeansResult:
    """Lloyd's algorithm with squared-distance-weighted seeding.

    Stops after `iters` update rounds, when the assignment reaches a fixed
    point, or when the relative SSE improvement drops below `tol`. The
    returned assignment is the argmin against the returned centroids.
    C-order and column-major `points` give the same bytes.
    """
    if num_centroids < 1:
        raise ConfigError(f"num_centroids must be >= 1, got {num_centroids}")
    if iters < 1:
        raise ConfigError(f"iters must be >= 1, got {iters}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"tol must be finite and >= 0, got {tol}")
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise DataError(f"points must be a nonempty (n, d) array, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise DataError("points contain non-finite components")

    side = _PointSide(points)
    centroids = _kmeanspp_init(points, num_centroids, rng.generator(), side)
    labels, dists = _nearest(points, centroids, side)
    sse = float(dists.sum())
    for _ in range(iters):
        centroids = _cluster_means(points, labels, num_centroids, dists)
        new_labels, dists = _nearest(points, centroids, side)
        new_sse = float(dists.sum())
        converged = (
            np.array_equal(new_labels, labels)
            or sse == 0.0
            or (sse - new_sse) < tol * sse
        )
        labels, sse = new_labels, new_sse
        if converged:
            break
    return KMeansResult(centroids, labels, sse)


def train_rq(
    data: EmbeddingCollection, config: QuantizerConfig, rng: RandomSource
) -> Codebook:
    """Train an L-layer codebook by sequential k-means on residuals.

    Layer l is fit to the residuals of layers 1..l-1 and frozen before the
    next layer starts. Deterministic for a fixed (data, config, seed).
    """
    if len(data) == 0:
        raise DataError("cannot train on an empty collection")
    if data.dim != config.dim:
        raise DataError(f"data dim {data.dim} does not match config dim {config.dim}")
    # column-major, so `_cluster_means` reads contiguous columns
    residuals = np.array(data.vectors, dtype=np.float64, order="F")
    layer_rngs = rng.split(config.num_layers)
    layers = np.empty(
        (config.num_layers, config.codebook_size, config.dim), dtype=np.float64
    )
    sse_per_layer = []
    for l in range(config.num_layers):
        result = kmeans(
            residuals,
            config.codebook_size,
            config.kmeans_iters,
            config.convergence_tol,
            layer_rngs[l],
        )
        layers[l] = result.centroids
        sse_per_layer.append(result.sse)
        for start in range(0, len(data), _ROW_BLOCK):
            block = slice(start, start + _ROW_BLOCK)
            residuals[block] -= result.centroids[result.assignments[block]]
    return Codebook(config, layers, tuple(sse_per_layer))


def encode_all(data: EmbeddingCollection, codebook: Codebook) -> tuple[np.ndarray, np.ndarray]:
    """Encode a whole collection.

    Returns (sids, residual_sq_norms): sids is (n, L) token indices and
    residual_sq_norms is (n, L+1) with column l holding the squared norm of
    the residual after l layers (column 0 is the raw squared norm). Each
    block of rows passes through all L layers before the next starts, so
    one block's residual is alive at a time.
    """
    if data.dim != codebook.config.dim:
        raise DataError(
            f"data dim {data.dim} does not match codebook dim {codebook.config.dim}"
        )
    n = len(data)
    L = codebook.config.num_layers
    sids = np.empty((n, L), dtype=np.int64)
    sq_norms = np.empty((n, L + 1), dtype=np.float64)
    for start in range(0, n, _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        residual = data.vectors[block].copy()
        sq_norms[block, 0] = np.einsum("ij,ij->i", residual, residual)
        for l in range(L):
            labels, _ = _nearest(residual, codebook.layers[l])
            sids[block, l] = labels
            residual -= codebook.layers[l][labels]
            sq_norms[block, l + 1] = np.einsum("ij,ij->i", residual, residual)
    return sids, sq_norms
