"""Residual k-means codebooks: train layer by layer, encode a collection.

Layer 1 clusters the raw vectors; each later layer clusters the residuals left
by all earlier layers. Encoding greedily picks the nearest codeword per layer
(squared Euclidean, ties to the lowest index), so the token chosen at layer l
equals an exhaustive scan of that layer's codewords.

Nearest-codeword selection on every input whose norms stay inside the
float32 bound (`_MIXED_MAX_SCALE`) is scored in float32 and certified
against a rounding-error bound; rows whose best/second-best margin falls
inside the bound are rescored in float64, so selections always equal the
float64 argmin. Each `_SCORE_CHUNK`-row block is scored by one float32 GEMM,
with the codeword norms folded into the product: [p | 1] . [-2c | c^2] =
c^2 - 2 p.c. The best and the runner-up are then two `argmin` passes over
the block (the best slot set to inf between them). Inputs past the bound are
scored exactly in float64, one `_SCORE_CHUNK`-row block at a time, so
neither path holds more than a chunk's scores. Residuals, means, and
reported errors stay in float64.

Training holds one copy of the vectors: `train_rq` takes a column-major
(the transpose of a C-order (dim, n) array) residual array, which the caller
hands over, and overwrites it layer by layer, so each per-dimension column
the k-means mean update reads is contiguous. The CLI reads the embeddings
file straight into that array (`persist.load_residuals`). Every float64
row reduction (squared norms, exact distances) reads a C-order copy of a
small row block instead of the strided rows: the reduction then sums in the
same order as on C-order input, and both layouts give the same bytes.

Both phases of a Lloyd round use the CPUs that the BLAS thread cap grants:
`_nearest` hands contiguous row ranges, aligned to `_SCORE_CHUNK`, and the
mean update hands column ranges (one `bincount` per column) to a small
thread pool, with OpenBLAS held at one thread meanwhile. Every label, distance
and mean comes from the same per-row or per-column operations as in one
thread, so the worker count changes no byte. Calls with fewer than
`_SPLIT_MIN_ROWS` rows per worker, and processes with one CPU, one BLAS
thread or no recognised OpenBLAS thread setter, run in the calling thread.
The pool and the BLAS lookup start on first use, not at import.
"""

from __future__ import annotations

import ctypes
import logging
import math
import os
import threading
from collections.abc import Callable
from functools import partial
from typing import NamedTuple

import numpy as np

from .core import (
    Codebook,
    ConfigError,
    DataError,
    QuantizerConfig,
    RandomSource,
)

log = logging.getLogger(__name__)

# Rows per scoring block, on both paths of `_nearest`. The (rows x M) float32
# score block is read by two argmin passes after the GEMM writes it; at
# M = 256 a 1024-row block is 1 MB, and the exact path's float64 block 2 MB.
# 512, 1024 and 2048 rows measured within noise of each other with the
# one-GEMM scorer.
_SCORE_CHUNK = 1024
# Bound on (|p| + |c|)^2 past which float32 scoring risks overflow: `_nearest`
# then scores every row exactly, and seeding weighs in float64.
_MIXED_MAX_SCALE = 1e15
# Rows that `encode_all` encodes at once, holding one block's residuals: 2 MiB
# at dim 32, under the CLI's 4 MiB mmap threshold, so each block reuses heap
# memory rather than being mapped and faulted in anew. (`train_rq` updates
# its one residual array `_SCORE_CHUNK` rows at a time.)
_ROW_BLOCK = 8192
# Rows each worker gets at least when a call is split: a few score chunks,
# so a 2000-row input never splits and a `_ROW_BLOCK` splits in two.
_SPLIT_MIN_ROWS = 4 * _SCORE_CHUNK


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
    """Exact float64 pairwise squared Euclidean distances, (n, m). Unlike
    BLAS, einsum sums a C-order row's products in one order in any block."""
    p_sq = np.einsum("ij,ij->i", points, points)
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    d = p_sq[:, None] - 2.0 * np.einsum("ij,kj->ik", points, centroids) + c_sq[None, :]
    np.maximum(d, 0.0, out=d)
    return d


def _sq_norms(points: np.ndarray) -> np.ndarray:
    """Exact float64 squared norm of each row, which k-means computes once
    for every scoring call on the same points."""
    p_sq = np.empty(points.shape[0], dtype=np.float64)
    for start, stop, block in _row_blocks(points, _SCORE_CHUNK):
        p_sq[start:stop] = np.einsum("ij,ij->i", block, block)
    return p_sq


def _nearest_exact(
    points: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    n = points.shape[0]
    labels = np.empty(n, dtype=np.int64)
    dists = np.empty(n, dtype=np.float64)
    for start, stop, block in _row_blocks(points, _SCORE_CHUNK):
        d = _sq_dists(block, centroids)
        labels[start:stop] = np.argmin(d, axis=1)
        dists[start:stop] = d[np.arange(stop - start), labels[start:stop]]
    return labels, dists


class _Blas(NamedTuple):
    """The thread-count getter and setter of the OpenBLAS that numpy loaded."""

    setter: str
    get: Callable[[], int]
    set: Callable[[int], None]


# (getter, setter) symbol pairs, looked for in this order: numpy's wheel
# build (scipy-openblas with 64-bit ints), then OpenBLAS built with 64-bit
# and with 32-bit ints.
_BLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _find_blas() -> _Blas | None:
    """The thread-count pair of an OpenBLAS mapped into this process, found
    through /proc/self/maps; None without one (Accelerate, MKL, no /proc)."""
    paths = set()
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                fields = line.split(maxsplit=5)
                if len(fields) == 6 and "openblas" in os.path.basename(fields[5]):
                    paths.add(fields[5].rstrip("\n"))
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return _Blas(set_name, get, set_)
    return None


class _Workers:
    """The threads that Lloyd rounds split their rows and columns over.

    The BLAS lookup runs on first use, and the pool starts at the first
    call that is split, not at import. There are as many workers as BLAS
    threads, capped at the CPUs this process may run on: the BLAS cap is the
    process's CPU budget. Without a recognised BLAS setter, or with a budget
    of one, every task runs on the calling thread. While tasks run on the
    pool, BLAS is held at one thread, so that the workers' own GEMMs do not
    compete with BLAS threads for the CPUs.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._started = False
        self._pool = None
        self.blas: _Blas | None = None
        self.count = 1

    def _start(self) -> None:
        with self._lock:
            if self._started:
                return
            self._started = True
            self.blas = _find_blas()
            if self.blas is not None:
                self.count = max(1, min(self.blas.get(), len(os.sched_getaffinity(0))))

    def parts(self, n: int) -> int:
        """How many tasks a call over `n` rows is split into: at most one
        per worker, each with at least `_SPLIT_MIN_ROWS` rows."""
        self._start()
        return max(1, min(self.count, n // _SPLIT_MIN_ROWS))

    def info(self) -> dict:
        """The worker count and the BLAS setter used (None if none found)."""
        self._start()
        return {"workers": self.count, "blas_setter": self.blas.setter if self.blas else None}

    def run(self, tasks) -> None:
        """Run every zero-argument task; more than one run on the pool.

        The BLAS thread count is restored once every task has finished;
        then the exception of the first task (in list order) that raised,
        if any, is raised.
        """
        if len(tasks) == 1:
            tasks[0]()
            return
        self._start()
        with self._lock:
            if self._pool is None:
                # imported at the first split, which a process of small
                # inputs never makes
                from concurrent.futures import ThreadPoolExecutor

                self._pool = ThreadPoolExecutor(self.count, thread_name_prefix="rqsid-kmeans")
            threads = self.blas.get()
            self.blas.set(1)
            try:
                futures = [self._pool.submit(task) for task in tasks]
                for future in futures:
                    future.exception()
                for future in futures:
                    future.result()
            finally:
                self.blas.set(threads)


_WORKERS = _Workers()


def worker_info() -> dict:
    """How Lloyd rounds are split in this process: the worker count and the
    BLAS thread setter found (None if none was), for run records."""
    return _WORKERS.info()


def _ranges(total: int, parts: int, align: int = 1) -> list[tuple[int, int]]:
    """`parts` consecutive (lo, hi) ranges covering [0, total), each inner
    bound a multiple of `align`, the `align`-sized units shared out evenly."""
    units = -(-total // align)
    bounds = [min(total, align * (units * i // parts)) for i in range(parts + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


class _ScoreScratch:
    """One task's buffers for scoring `_SCORE_CHUNK`-row chunks in `_nearest`.

    The caller makes them, so a worker thread allocates nothing large: glibc
    keeps what a thread frees in that thread's own arena.
    """

    __slots__ = ("p_aug", "scores", "exact", "idx", "best", "second", "gap",
                 "ambiguous", "block", "rows", "vec")

    def __init__(self, d: int, m: int):
        c = _SCORE_CHUNK
        self.p_aug = np.empty((c, d + 1), dtype=np.float32)
        self.p_aug[:, d] = 1.0
        self.scores = np.empty((c, m), dtype=np.float32)
        # float64 rescoring of c/2 rows at a time reuses the score block,
        # which is spent by then
        self.exact = self.scores.reshape(-1).view(np.float64).reshape(c // 2, m)
        self.idx = np.empty(c, dtype=np.intp)
        self.best = np.empty(c, dtype=np.float32)
        self.second = np.empty(c, dtype=np.float32)
        self.gap = np.empty(c, dtype=np.float64)
        self.ambiguous = np.empty(c, dtype=bool)
        self.block = np.empty((c, d), dtype=np.float64)
        self.rows = np.empty((c, d), dtype=np.float64)
        self.vec = np.empty(c, dtype=np.float64)


def _nearest(
    points: np.ndarray,
    centroids: np.ndarray,
    p_sq: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Argmin centroid per point (ties to the lowest index) and exact distances.

    The selection equals the float64 argmin: fast-path rows are accepted only
    when their float32 margin exceeds a conservative error bound, the rest
    are rescored in float64. Inputs whose norms pass `_MIXED_MAX_SCALE` are
    scored by `_nearest_exact` instead.
    """
    n, d = points.shape
    m = centroids.shape[0]
    if p_sq is None:
        p_sq = _sq_norms(points)

    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    c_norm_max = float(np.sqrt(c_sq.max()))
    if (math.sqrt(p_sq.max(initial=0.0)) + c_norm_max) ** 2 > _MIXED_MAX_SCALE:
        return _nearest_exact(points, centroids)
    c32 = centroids.astype(np.float32)
    # c_aug = [-2 c | c^2]: one GEMM of [p | 1] with it scores c^2 - 2 p.c,
    # which ranks like the distance (p^2 is constant per row). Scaling by -2
    # is exact.
    c_aug = np.empty((m, d + 1), dtype=np.float32)
    np.multiply(c32, -2.0, out=c_aug[:, :d])
    c_aug[:, d] = np.einsum("ij,ij->i", c32, c32)
    # |float32 score - exact score| <= gamma * (|p| + |c|)^2 + tau per pair.
    # With u = 2^-24 and g_k = k u / (1 - k u), and no float32 result below
    # the normal range: rounding p and c to float32 errs by (2u + u^2)
    # (2|p||c| + |c|^2), the float32 c^2 by g_d |c|^2, and the (d+1)-term
    # float32 dot product [p | 1] . [-2c | c^2], in any summation order,
    # with or without FMA, by g_{d+1} (2|p||c| + |c|^2) (1 + 3u + g_d). The
    # total is below (2d + 3) u (1 + 2 (d + 1) u) (|p| + |c|)^2, and
    # gamma = 2.013 (d + 8) u exceeds that by at least 13 u (|p| + |c|)^2
    # for every d < 4000. Below the normal range a product or a rounding to
    # float32 also errs by up to 2^-150 absolute; an addition never does.
    # The 2d products, d in c^2 and d in the dot product, add at most
    # 2.001 d 2^-150 after summation. Rounding a component of p or c adds
    # at most 2^-150, which the score carries times 2|c_k|, 2|p_k| or
    # 2|c_k|: at most a (|p| + |c|) in all, a = 4.01 sqrt(d) 2^-150, which
    # is below u (|p| + |c|)^2 + a^2 / (4u) by AM-GM. The first part fits in
    # gamma's slack and a^2 / (4u) is below d 2^-270, so tau = (d + 1) 2^-148
    # covers the rest.
    gamma = (d + 8) * 1.2e-7
    tau = (d + 1) * 2.0**-148

    labels = np.empty(n, dtype=np.int64)
    dists = np.empty(n, dtype=np.float64)
    row_base = np.arange(0, _SCORE_CHUNK * m, m)

    def score(lo: int, hi: int, buf: _ScoreScratch) -> None:
        # Every array a chunk needs is a view of `buf`, of the inputs or of
        # the outputs. The float64 arithmetic keeps the order of the plain
        # expressions in the comments, so the bytes do not depend on the split.
        flat = buf.scores.reshape(-1)
        for start in range(lo, hi, _SCORE_CHUNK):
            stop = min(start + _SCORE_CHUNK, hi)
            k = stop - start
            lab, idx = labels[start:stop], buf.idx[:k]
            block = buf.block[:k]
            np.copyto(block, points[start:stop])
            buf.p_aug[:k, :d] = block
            s = np.matmul(buf.p_aug[:k], c_aug.T, out=buf.scores[:k])
            np.argmin(s, axis=1, out=lab)
            # the best, then with its slot set to inf the runner-up (for
            # finite scores its value is the row min), as flat indices
            np.add(row_base[:k], lab, out=idx)
            np.take(flat, idx, out=buf.best[:k], mode="clip")
            np.put(flat, idx, np.inf, mode="clip")
            np.argmin(s, axis=1, out=idx)
            np.add(row_base[:k], idx, out=idx)
            np.take(flat, idx, out=buf.second[:k], mode="clip")
            # ambiguous: second - best <= 2 (gamma (|p| + c_norm_max)^2 + tau)
            gap = np.subtract(buf.second[:k], buf.best[:k], out=buf.gap[:k], dtype=np.float64)
            bound = (np.sqrt(p_sq[start:stop]) + c_norm_max) ** 2 * (2.0 * gamma) + 2.0 * tau
            ambiguous = np.flatnonzero(np.less_equal(gap, bound, out=buf.ambiguous[:k]))
            # a row's float64 argmin scores within its bound of the best, whose
            # slot gets its score back: those centroids are the row's candidates
            np.put(flat, row_base[ambiguous] + lab[ambiguous], buf.best[ambiguous], mode="clip")
            near = s[ambiguous] <= (buf.best[ambiguous] + bound[ambiguous])[:, None]
            half = len(buf.exact)
            for g in range(0, ambiguous.size, half):
                # exact = max(p^2 - 2.0 * (p . c) + c^2, 0), as `_sq_dists`, for the candidates
                at = ambiguous[g : g + half]
                a = at.size
                cols = np.flatnonzero(near[g : g + half].any(axis=0))
                rows = np.take(block, at, axis=0, out=buf.rows[:a], mode="clip")
                r_sq = np.einsum("ij,ij->i", rows, rows, out=buf.vec[:a])
                exact = buf.exact.reshape(-1)[: a * len(cols)].reshape(a, len(cols))
                np.einsum("ij,kj->ik", rows, centroids[cols], out=exact)
                exact *= 2.0
                np.subtract(r_sq[:, None], exact, out=exact)
                exact += c_sq[cols]
                np.maximum(exact, 0.0, out=exact)
                lab[at] = cols[np.argmin(exact, axis=1, out=idx[:a])]
            # dists = max(p^2 - 2.0 * (p . c[lab]) + c^2[lab], 0)
            gathered = np.take(centroids, lab, axis=0, out=buf.rows[:k], mode="clip")
            e = np.einsum("ij,ij->i", block, gathered, out=buf.vec[:k])
            e *= 2.0
            out = np.subtract(p_sq[start:stop], e, out=dists[start:stop])
            out += np.take(c_sq, lab, out=buf.vec[:k], mode="clip")
            np.maximum(out, 0.0, out=out)

    parts = _WORKERS.parts(n)
    _WORKERS.run(
        [partial(score, lo, hi, _ScoreScratch(d, m)) for lo, hi in _ranges(n, parts, _SCORE_CHUNK)]
    )
    return labels, dists


def _kmeanspp_init(
    points: np.ndarray, m: int, gen: np.random.Generator, p_sq: np.ndarray
) -> np.ndarray:
    """Squared-distance-weighted seeding. Once every remaining point has zero
    weight (fewer distinct points than centroids) further seeds are drawn
    uniformly, which duplicates existing points."""
    n, d = points.shape
    centroids = np.empty((m, d), dtype=np.float64)
    first = int(gen.integers(n))
    centroids[0] = points[first]
    # seeding only needs sampling weights, so float32 scoring is fine; the
    # float32 points live while seeding runs
    fast = (math.sqrt(p_sq.max()) * 2.0) ** 2 <= _MIXED_MAX_SCALE
    if fast:
        p32 = points.astype(np.float32, order="C")
        p_sq32 = np.einsum("ij,ij->i", p32, p32)

    def dist_to(c: np.ndarray) -> np.ndarray:
        if fast:
            # p^2 - 2 p.c + c^2, as -2 p.c + p^2 + c^2 in place: the same bytes
            c32 = c.astype(np.float32)
            w = p32 @ c32
            w *= -2.0
            w += p_sq32
            w += np.float32(c32 @ c32)
            return np.maximum(w, 0.0, out=w)
        w = np.empty(n, dtype=np.float64)
        for start, stop, block in _row_blocks(points, _SCORE_CHUNK):
            w[start:stop] = _sq_dists(block, c[None, :])[:, 0]
        return w

    min_d2 = np.asarray(dist_to(centroids[0]), dtype=np.float64)
    cdf = np.empty(n, dtype=np.float64)
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
            np.cumsum(np.divide(min_d2, total, out=cdf), out=cdf)
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
    n, d = points.shape
    counts = np.bincount(labels, minlength=m).astype(np.float64)
    sums = np.empty((m, d), dtype=np.float64)

    def column_sums(lo: int, hi: int) -> None:
        for j in range(lo, hi):
            sums[:, j] = np.bincount(labels, weights=points[:, j], minlength=m)

    parts = min(_WORKERS.parts(n), d)
    _WORKERS.run([partial(column_sums, lo, hi) for lo, hi in _ranges(d, parts)])
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

    p_sq = _sq_norms(points)
    centroids = _kmeanspp_init(points, num_centroids, rng.generator(), p_sq)
    labels, dists = _nearest(points, centroids, p_sq)
    sse = float(dists.sum())
    for _ in range(iters):
        centroids = _cluster_means(points, labels, num_centroids, dists)
        new_labels, dists = _nearest(points, centroids, p_sq)
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


def train_rq(residuals: np.ndarray, config: QuantizerConfig, rng: RandomSource) -> Codebook:
    """Train an L-layer codebook by sequential k-means on residuals.

    Layer l is fit to the residuals of layers 1..l-1 and frozen before the
    next layer starts. Deterministic for a fixed (data, config, seed).
    `residuals` is a writable column-major float64 (n, dim) array, such as
    `np.array(vectors, order="F")`, which `train_rq` owns and overwrites: it
    ends holding the residuals left by all L layers. Column-major, so
    `_cluster_means` reads contiguous columns.
    """
    if not (isinstance(residuals, np.ndarray) and residuals.dtype == np.float64
            and residuals.ndim == 2 and residuals.flags.f_contiguous
            and residuals.flags.writeable):
        raise DataError("residuals must be a writable column-major float64 (n, dim) array")
    n, dim = residuals.shape
    if n == 0:
        raise DataError("cannot train on an empty collection")
    if dim != config.dim:
        raise DataError(f"data dim {dim} does not match config dim {config.dim}")
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
        for start in range(0, n, _SCORE_CHUNK):
            block = slice(start, start + _SCORE_CHUNK)
            residuals[block] -= result.centroids[result.assignments[block]]
    return Codebook(config, layers, tuple(sse_per_layer))


def encode_all(data: np.ndarray, codebook: Codebook) -> tuple[np.ndarray, np.ndarray]:
    """Encode the rows of `data`, an (n, dim) float64 vector array in C or
    column-major order.

    Returns (sids, residual_sq_norms): sids is (n, L) token indices and
    residual_sq_norms is (n, L+1) with column l holding the squared norm of
    the residual after l layers (column 0 is the raw squared norm). Each
    block of rows passes through all L layers before the next starts, so
    one block's residual is alive at a time; it is a C-order copy, so both
    layouts give the same bytes.
    """
    n, dim = data.shape
    if dim != codebook.config.dim:
        raise DataError(f"data dim {dim} does not match codebook dim {codebook.config.dim}")
    L = codebook.config.num_layers
    sids = np.empty((n, L), dtype=np.int64)
    sq_norms = np.empty((n, L + 1), dtype=np.float64)
    for start in range(0, n, _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        residual = data[block].copy()
        sq_norms[block, 0] = np.einsum("ij,ij->i", residual, residual)
        for l in range(L):
            labels, _ = _nearest(residual, codebook.layers[l])
            sids[block, l] = labels
            residual -= codebook.layers[l][labels]
            sq_norms[block, l + 1] = np.einsum("ij,ij->i", residual, residual)
    return sids, sq_norms
