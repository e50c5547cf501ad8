import json
import math
import os
import subprocess
import sys
import threading
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqsid.core import (
    Codebook,
    ConfigError,
    DataError,
    EmbeddingCollection,
    QuantizerConfig,
    RandomSource,
)
import rqsid.quantizer as quantizer
from rqsid.quantizer import (
    _MIXED_MAX_SCALE,
    _ROW_BLOCK,
    _SCORE_CHUNK,
    _cluster_means,
    _kmeanspp_init,
    _nearest,
    _nearest_exact,
    _row_blocks,
    _sq_dists,
    _sq_norms,
    encode_all,
    kmeans,
    train_rq,
)


def brute_force_kmeans_sse(points, m):
    """Best achievable SSE over every assignment of points to m groups."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    best = np.inf
    for assignment in product(range(m), repeat=n):
        sse = 0.0
        for g in range(m):
            members = points[[i for i in range(n) if assignment[i] == g]]
            if len(members):
                sse += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, sse)
    return best


def reference_seed(points, m, gen, p_sq):
    """The k-means++ seeding that drew each seed with gen.choice(n, p=...)."""
    n, d = points.shape
    centroids = np.empty((m, d), dtype=np.float64)
    first = int(gen.integers(n))
    centroids[0] = points[first]
    fast = (math.sqrt(p_sq.max()) * 2.0) ** 2 <= _MIXED_MAX_SCALE
    p32 = points.astype(np.float32, order="C")
    p_sq32 = np.einsum("ij,ij->i", p32, p32)

    def dist_to(c):
        if fast:
            c32 = c.astype(np.float32)
            w = p_sq32 - 2.0 * (p32 @ c32) + np.float32(c32 @ c32)
            return np.maximum(w, 0.0, out=w)
        return _sq_dists(points, c[None, :])[:, 0]

    min_d2 = np.asarray(dist_to(centroids[0]), dtype=np.float64)
    for j in range(1, m):
        total = float(min_d2.sum())
        if total <= 0.0:
            idx = int(gen.integers(n))
        else:
            idx = int(gen.choice(n, p=min_d2 / total))
        centroids[j] = points[idx]
        np.minimum(min_d2, dist_to(centroids[j]), out=min_d2)
    return centroids


def column_major(points):
    """A column-major float64 copy of `points`, as `train_rq` takes them."""
    return np.array(points, dtype=np.float64, order="F")


def reference_cluster_means(points, labels, m, dists):
    """The mean update summing strided columns of C-order points, one
    bincount per dimension."""
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


class TestLayouts:
    """kmeans on column-major points, as train_rq passes them, returns the
    bytes it returns for the same points in C order."""

    @staticmethod
    def both_layouts(points, m, seed, iters=10, tol=0.0):
        points = np.ascontiguousarray(points, dtype=np.float64)
        fortran = column_major(points)
        assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
        c = kmeans(points, m, iters, tol, RandomSource(seed))
        f = kmeans(fortran, m, iters, tol, RandomSource(seed))
        assert c.centroids.tobytes() == f.centroids.tobytes()
        assert c.assignments.tobytes() == f.assignments.tobytes()
        assert c.sse == f.sse
        return c

    @staticmethod
    def spy_empty_clusters(monkeypatch):
        """Record, per mean update, whether some cluster had no points."""
        seen = []

        def spy(points, labels, m, dists):
            seen.append(bool((np.bincount(labels, minlength=m) == 0).any()))
            return _cluster_means(points, labels, m, dists)

        monkeypatch.setattr(quantizer, "_cluster_means", spy)
        return seen

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_precision_path(self, seed):
        gen = np.random.default_rng(seed)
        n = 2 * _SCORE_CHUNK + 517
        points = gen.standard_normal((n, 24)) * gen.uniform(0.1, 3.0, size=24)
        self.both_layouts(points, 40, seed, tol=1e-4)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_input_shorter_than_a_chunk(self, seed):
        gen = np.random.default_rng(10 + seed)
        points = gen.standard_normal((300, 24))
        assert len(points) < _SCORE_CHUNK
        self.both_layouts(points, 16, seed)

    def test_empty_cluster_reseed(self, monkeypatch):
        # distinct, heavy-tailed points crowded near the origin; on this
        # seed some cluster is left empty and reseeded
        gen = np.random.default_rng(19)
        points = gen.standard_normal((1100, 2)) ** 5
        assert len(np.unique(points, axis=0)) == len(points)
        seen = self.spy_empty_clusters(monkeypatch)
        self.both_layouts(points, 400, 19)
        assert any(seen)

    def test_fewer_distinct_points_than_centroids(self, monkeypatch, caplog):
        # integer points, so float32 seeding weights reach exactly zero
        gen = np.random.default_rng(6)
        points = np.repeat(gen.integers(-3, 4, size=(20, 4)).astype(float), 60, axis=0)
        assert len(points) > _SCORE_CHUNK
        seen = self.spy_empty_clusters(monkeypatch)
        with caplog.at_level("WARNING"):
            result = self.both_layouts(points, 32, 7)
        assert any("duplicating" in r.message for r in caplog.records)
        assert any(seen)
        assert result.sse == 0.0

    def test_exact_seeding_path(self):
        gen = np.random.default_rng(8)
        points = gen.standard_normal((2500, 24)) * 1e8
        assert (math.sqrt(_sq_norms(points).max()) * 2.0) ** 2 > _MIXED_MAX_SCALE
        self.both_layouts(points, 16, 9)

    def test_seeding_and_sq_norms(self, monkeypatch):
        # a last-bit change in a seeding weight rarely moves a seed, so the
        # exact path's weights, computed per row block, are compared too
        distances = []

        def spy(points, centroids):
            distances.append(_sq_dists(points, centroids))
            return distances[-1]

        monkeypatch.setattr(quantizer, "_sq_dists", spy)
        gen = np.random.default_rng(12)
        for scale in (1.0, 1e8):
            points = gen.standard_normal((_SCORE_CHUNK + 3, 24)) * scale
            p_sq = _sq_norms(points)
            assert _sq_norms(column_major(points)).tobytes() == p_sq.tobytes()
            weights = {}
            for layout, held in (("C", points), ("F", column_major(points))):
                distances.clear()
                got = _kmeanspp_init(held, 24, RandomSource(3).generator(), _sq_norms(held))
                weights[layout] = b"".join(d.tobytes() for d in distances)
                assert got.tobytes() == reference_seed(
                    points, 24, RandomSource(3).generator(), p_sq
                ).tobytes()
            whole = np.stack([_sq_dists(points, c[None, :])[:, 0] for c in got])
            assert weights["C"] == weights["F"] == (whole.tobytes() if scale > 1.0 else b"")


class TestClusterMeans:
    """The mean update on contiguous columns against the strided loop."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_strided_reference(self, seed):
        gen = np.random.default_rng(seed)
        n, d, m = int(gen.integers(1, 5000)), int(gen.integers(1, 40)), int(gen.integers(1, 300))
        points = gen.standard_normal((n, d)) * 10 ** gen.uniform(-3, 3)
        # every other cluster id unused, so some clusters are reseeded
        labels = 2 * gen.integers(0, (m + 1) // 2, size=n)
        dists = gen.uniform(0.0, 1.0, size=n)
        dists[gen.integers(0, n, size=n // 3)] = 0.5  # ties in the reseed order
        want = reference_cluster_means(points, labels, m, dists)
        for layout in (points, column_major(points)):
            assert _cluster_means(layout, labels, m, dists).tobytes() == want.tobytes()


class TestKMeans:
    def test_two_well_separated_groups(self):
        # brute force over all 2-groupings of {0,1,10,11} gives sse 1.0
        points = np.array([[0.0], [1.0], [10.0], [11.0]])
        assert brute_force_kmeans_sse(points, 2) == pytest.approx(1.0)
        result = kmeans(points, 2, iters=50, tol=0.0, rng=RandomSource(0))
        assert sorted(result.centroids[:, 0]) == pytest.approx([0.5, 10.5])
        assert result.sse == pytest.approx(1.0)

    def test_identical_points_single_centroid(self):
        points = np.full((6, 3), 2.5)
        result = kmeans(points, 1, iters=10, tol=0.0, rng=RandomSource(1))
        np.testing.assert_allclose(result.centroids, [[2.5, 2.5, 2.5]])
        assert result.sse == 0.0

    def test_exact_cover(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        result = kmeans(points, 4, iters=10, tol=0.0, rng=RandomSource(2))
        assert result.sse == 0.0
        assert sorted(map(tuple, result.centroids)) == sorted(map(tuple, points))

    def test_zero_centroids_rejected(self):
        with pytest.raises(ConfigError):
            kmeans(np.zeros((3, 2)), 0, 5, 0.0, RandomSource(0))

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            kmeans(np.array([[np.inf, 0.0]]), 1, 5, 0.0, RandomSource(0))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ConfigError):
            kmeans(np.zeros((3, 2)), 1, 5, tol, RandomSource(0))

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            kmeans(np.zeros((0, 2)), 1, 5, 0.0, RandomSource(0))

    def test_more_centroids_than_points(self):
        points = np.array([[0.0], [1.0]])
        result = kmeans(points, 4, iters=5, tol=0.0, rng=RandomSource(3))
        assert result.sse == 0.0
        assert result.centroids.shape == (4, 1)

    def test_assignment_matches_final_centroids(self):
        gen = np.random.default_rng(5)
        points = gen.standard_normal((120, 3))
        result = kmeans(points, 7, iters=40, tol=0.0, rng=RandomSource(4))
        ref = np.argmin(_sq_dists(points, result.centroids), axis=1)
        np.testing.assert_array_equal(result.assignments, ref)


class TestSeeding:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_choice_reference(self, seed, caplog):
        gen = np.random.default_rng(100 + seed)
        cases = [
            (gen.standard_normal((500, 6)), 32, False),
            # norms past the float32 scoring limit take the float64 path
            (gen.standard_normal((300, 3)) * 1e8, 16, False),
            # at most 5 distinct points for 12 seeds: the weights reach
            # exactly zero and the remaining seeds are drawn uniformly
            (np.repeat(gen.integers(-3, 4, size=(5, 4)).astype(float), 4, axis=0), 12, True),
            (np.full((7, 2), 3.0), 4, True),
        ]
        for points, m, falls_back in cases:
            p_sq = _sq_norms(points)
            caplog.clear()
            with caplog.at_level("WARNING"):
                got = _kmeanspp_init(points, m, RandomSource(seed).generator(), p_sq)
            assert any("duplicating" in r.message for r in caplog.records) == falls_back
            want = reference_seed(points, m, RandomSource(seed).generator(), p_sq)
            np.testing.assert_array_equal(got, want)


def nearest_in_layout(points, centroids, layout):
    """_nearest on `points` held in `layout`; column-major results must equal
    the C-order ones byte for byte."""
    labels, dists = _nearest(points, centroids)
    if layout == "F":
        f_labels, f_dists = _nearest(column_major(points), centroids)
        assert f_labels.tobytes() == labels.tobytes()
        assert f_dists.tobytes() == dists.tobytes()
    return labels, dists


@pytest.mark.parametrize("layout", ["C", "F"])
class TestMixedPrecisionNearest:
    def test_matches_float64_argmin(self, layout):
        gen = np.random.default_rng(17)
        for _ in range(25):
            n = int(gen.integers(1024, 4096))
            m = int(gen.integers(8, 200))
            d = int(gen.integers(2, 40))
            scale = 10 ** gen.uniform(-3, 3)
            points = gen.standard_normal((n, d)) * scale
            centroids = gen.standard_normal((m, d)) * scale
            labels, dists = nearest_in_layout(points, centroids, layout)
            ref = np.argmin(_sq_dists(points, centroids), axis=1)
            np.testing.assert_array_equal(labels, ref)
            direct = ((points - centroids[labels]) ** 2).sum(axis=1)
            np.testing.assert_allclose(dists, direct, rtol=1e-9, atol=1e-12 * scale**2)

    def test_near_duplicate_centroids(self, layout):
        gen = np.random.default_rng(23)
        points = gen.standard_normal((2048, 8))
        centroids = np.repeat(gen.standard_normal((32, 8)), 2, axis=0)
        centroids[1::2] += 1e-10
        labels, _ = nearest_in_layout(points, centroids, layout)
        ref = np.argmin(_sq_dists(points, centroids), axis=1)
        np.testing.assert_array_equal(labels, ref)


def reference_nearest(points, centroids):
    """The two-pass float32 scorer the one-GEMM scorer replaced: a GEMM
    against -2c, a pass adding c^2, the best by argmin and the runner-up by a
    row min, over 2048-row blocks."""
    n, d = points.shape
    m = centroids.shape[0]
    p_sq = _sq_norms(points)
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    c_norm_max = float(np.sqrt(c_sq.max()))
    if (math.sqrt(p_sq.max()) + c_norm_max) ** 2 > _MIXED_MAX_SCALE:
        return _nearest_exact(points, centroids)
    c32 = centroids.astype(np.float32)
    c_sq32 = np.einsum("ij,ij->i", c32, c32)
    c32_neg2 = -2.0 * c32
    gamma = (d + 8) * 1.2e-7
    labels = np.empty(n, dtype=np.int64)
    dists = np.empty(n, dtype=np.float64)
    for start, stop, block in _row_blocks(points, 2048):
        s = block.astype(np.float32) @ c32_neg2.T
        s += c_sq32[None, :]
        rows = np.arange(stop - start)
        best = np.argmin(s, axis=1)
        s_best = s[rows, best].astype(np.float64)
        s[rows, best] = np.inf
        s_second = s.min(axis=1).astype(np.float64)
        margin = gamma * (np.sqrt(p_sq[start:stop]) + c_norm_max) ** 2
        chunk_labels = best.astype(np.int64)
        ambiguous = np.flatnonzero(s_second - s_best <= 2.0 * margin)
        if ambiguous.size:
            exact = _sq_dists(block[ambiguous], centroids)
            chunk_labels[ambiguous] = np.argmin(exact, axis=1)
        chunk_dists = (
            p_sq[start:stop]
            - 2.0 * np.einsum("ij,ij->i", block, centroids[chunk_labels])
            + c_sq[chunk_labels]
        )
        np.maximum(chunk_dists, 0.0, out=chunk_dists)
        labels[start:stop] = chunk_labels
        dists[start:stop] = chunk_dists
    return labels, dists


def scorer_cases():
    """(points, centroids) that take the float32 path: random shapes and
    scales, row counts next to a multiple of _SCORE_CHUNK, near-duplicate
    centroids, norms just under the _MIXED_MAX_SCALE cutoff, and inputs
    shorter than a chunk with fewer than 8 centroids."""
    gen = np.random.default_rng(41)
    cases = []
    near_chunks = [_SCORE_CHUNK, _SCORE_CHUNK + 1]
    near_chunks += [k * _SCORE_CHUNK + e for k in (2, 3) for e in (-1, 0, 1)]
    for n in near_chunks:
        m = int(gen.integers(8, 300))
        d = int(gen.integers(1, 65))
        scale = 10 ** gen.uniform(-3, 3)
        cases.append((gen.standard_normal((n, d)) * scale,
                      gen.standard_normal((m, d)) * scale))
    centroids = np.repeat(gen.standard_normal((40, 12)), 2, axis=0)
    centroids[1::2] += 1e-7 * gen.standard_normal((40, 12))
    cases.append((gen.standard_normal((_SCORE_CHUNK + 300, 12)), centroids))
    for d in (3, 32):
        points = gen.standard_normal((2 * _SCORE_CHUNK + 5, d))
        centroids = points[gen.choice(len(points), 64, replace=False)] * 1.001
        p_max = np.sqrt((points**2).sum(axis=1).max())
        c_max = np.sqrt((centroids**2).sum(axis=1).max())
        scale = 0.999 * np.sqrt(_MIXED_MAX_SCALE) / (p_max + c_max)
        cases.append((points * scale, centroids * scale))
    for n, m in ((_SCORE_CHUNK - 1, 8), (300, 7), (5, 3), (1, 1)):
        d = int(gen.integers(1, 65))
        scale = 10 ** gen.uniform(-3, 3)
        cases.append((gen.standard_normal((n, d)) * scale,
                      gen.standard_normal((m, d)) * scale))
    return cases


@pytest.mark.parametrize("layout", ["C", "F"])
class TestOneGemmScorer:
    """The one-GEMM float32 scorer against the two-pass scorer it replaced."""

    def test_matches_two_pass_reference(self, layout, monkeypatch):
        exact_calls = []

        def spy(points, centroids):
            exact_calls.append(len(points))
            return _nearest_exact(points, centroids)

        monkeypatch.setattr(quantizer, "_nearest_exact", spy)
        for points, centroids in scorer_cases():
            labels, dists = nearest_in_layout(points, centroids, layout)
            ref_labels, ref_dists = reference_nearest(points, centroids)
            assert labels.tobytes() == ref_labels.tobytes()
            assert dists.tobytes() == ref_dists.tobytes()
        assert exact_calls == []

    def test_fused_score_within_bound(self, layout):
        # the score [p | 1] . [-2c | c^2] in float32, as _nearest forms it,
        # against c^2 - 2 p.c in float64
        for points, centroids in scorer_cases():
            if layout == "F":
                points = column_major(points)
            d = points.shape[1]
            p_sq = _sq_norms(points)
            c32 = centroids.astype(np.float32)
            c_aug = np.hstack([-2.0 * c32, np.einsum("ij,ij->i", c32, c32)[:, None]])
            p_aug = np.hstack([points.astype(np.float32), np.ones((len(points), 1), np.float32)])
            fused = (p_aug @ c_aug.T).astype(np.float64)
            c_sq = np.einsum("ij,ij->i", centroids, centroids)
            exact = c_sq[None, :] - 2.0 * (points @ centroids.T)
            c_norm = np.sqrt(c_sq)
            bound = (d + 8) * 1.2e-7 * (np.sqrt(p_sq)[:, None] + c_norm[None, :]) ** 2
            assert (np.abs(fused - exact) <= bound).all()


def reference_nearest_exact(points, centroids):
    """The exact scorer as it was before it took `_SCORE_CHUNK`-row blocks:
    the same float64 distances over 32768-row blocks."""
    n = points.shape[0]
    labels = np.empty(n, dtype=np.int64)
    dists = np.empty(n, dtype=np.float64)
    for start, stop, block in _row_blocks(points, 32768):
        d = _sq_dists(block, centroids)
        labels[start:stop] = np.argmin(d, axis=1)
        dists[start:stop] = d[np.arange(stop - start), labels[start:stop]]
    return labels, dists


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("n", [_SCORE_CHUNK - 1, _SCORE_CHUNK + 1, 2 * 32768 + 1])
def test_exact_path_matches_large_block_reference(n, layout, monkeypatch):
    # norms past the float32 bound, so every row is scored exactly
    exact_calls = []

    def spy(points, centroids):
        exact_calls.append(len(points))
        return _nearest_exact(points, centroids)

    monkeypatch.setattr(quantizer, "_nearest_exact", spy)
    gen = np.random.default_rng(n)
    points = gen.standard_normal((n, 16)) * 1e8
    centroids = gen.standard_normal((64, 16)) * 1e8
    labels, dists = nearest_in_layout(points, centroids, layout)
    ref_labels, ref_dists = reference_nearest_exact(points, centroids)
    assert labels.tobytes() == ref_labels.tobytes()
    # A short block can take another BLAS kernel than a long one (numpy sends
    # a one-row product to gemv), which sums in another order. So the rows
    # of a last chunk shorter than the reference's last block may differ in
    # their last bits; every other row has the same bytes.
    tail = n % _SCORE_CHUNK
    same = n if tail == n % 32768 else n - tail
    assert dists[:same].tobytes() == ref_dists[:same].tobytes()
    np.testing.assert_allclose(dists[same:], ref_dists[same:], rtol=1e-12)
    assert exact_calls == [n] * (2 if layout == "F" else 1)


def hand_codebook():
    cfg = QuantizerConfig(num_layers=2, codebook_size=2, dim=2)
    layers = np.array(
        [
            [[0.0, 0.0], [10.0, 10.0]],
            [[1.0, 0.0], [0.0, 1.0]],
        ]
    )
    return Codebook(cfg, layers, (0.0, 0.0))


def encode_rows(points, cb):
    """encode_all over the rows of `points`: (sids, residual squared norms)."""
    points = np.asarray(points, dtype=float)
    data = EmbeddingCollection(tuple(map(str, range(len(points)))), points)
    return encode_all(data.vectors, cb)


def residual_chain(x, sid, cb):
    """The residuals left after 0..L layers, by exact subtraction of the
    codewords `sid` names."""
    chain = [x]
    for l, token in enumerate(sid):
        chain.append(chain[-1] - cb.layers[l][token])
    return chain


def reference_encode_all(data, codebook):
    """The whole-array encode_all that encoding by row blocks replaced."""
    n = len(data)
    L = codebook.config.num_layers
    residual = data.vectors.copy()
    sids = np.empty((n, L), dtype=np.int64)
    sq_norms = np.empty((n, L + 1), dtype=np.float64)
    sq_norms[:, 0] = np.einsum("ij,ij->i", residual, residual)
    for l in range(L):
        labels, _ = _nearest(residual, codebook.layers[l])
        sids[:, l] = labels
        residual -= codebook.layers[l][labels]
        sq_norms[:, l + 1] = np.einsum("ij,ij->i", residual, residual)
    return sids, sq_norms


def reference_train_rq(data, config, rng):
    """The train_rq that subtracted each layer's codewords from all rows at once."""
    residuals = data.vectors.copy()
    layer_rngs = rng.split(config.num_layers)
    layers, sse = [], []
    for l in range(config.num_layers):
        result = kmeans(residuals, config.codebook_size, config.kmeans_iters,
                        config.convergence_tol, layer_rngs[l])
        layers.append(result.centroids)
        sse.append(result.sse)
        residuals -= result.centroids[result.assignments]
    return np.array(layers), tuple(sse)


class TestTrainOwnsResiduals:
    """train_rq on the column-major copy it is handed, which it overwrites."""

    def test_matches_reference_and_leaves_the_last_residuals(self):
        n = _ROW_BLOCK + 1000
        gen = np.random.default_rng(8)
        data = EmbeddingCollection(tuple(map(str, range(n))), gen.standard_normal((n, 6)))
        cfg = QuantizerConfig(num_layers=3, codebook_size=16, dim=6,
                              kmeans_iters=3, seed=8)
        residuals = column_major(data.vectors)
        cb = train_rq(residuals, cfg, RandomSource(8))
        layers, sse = reference_train_rq(data, cfg, RandomSource(8))
        assert cb.layers.tobytes() == layers.tobytes()
        assert cb.training_sse_per_layer == sse
        left = data.vectors.copy()
        sids, _ = encode_all(data.vectors, cb)
        for l in range(cfg.num_layers):
            left -= cb.layers[l][sids[:, l]]
        assert np.ascontiguousarray(residuals).tobytes() == left.tobytes()

    @pytest.mark.parametrize("residuals", [
        np.zeros((4, 2)),  # C-order
        np.zeros((4, 2), dtype=np.float32, order="F"),
        np.zeros(4),
        np.zeros((0, 2), order="F"),
        np.zeros((4, 3), order="F"),
        EmbeddingCollection(("a", "b", "c", "d"), np.zeros((4, 2))),
    ], ids=["c-order", "float32", "1-d", "empty", "dim", "collection"])
    def test_rejects_what_it_cannot_own(self, residuals):
        cfg = QuantizerConfig(num_layers=1, codebook_size=2, dim=2)
        with pytest.raises(DataError):
            train_rq(residuals, cfg, RandomSource(0))

    def test_rejects_read_only(self):
        residuals = np.zeros((4, 2), order="F")
        residuals.flags.writeable = False
        with pytest.raises(DataError):
            train_rq(residuals, QuantizerConfig(1, 2, 2), RandomSource(0))


class TestRowBlocks:
    """encode_all and train_rq by row blocks against the whole-array code."""

    # the tail block of the last case is shorter than one score chunk
    @pytest.mark.parametrize("n", [1, _ROW_BLOCK - 1, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 1000])
    def test_encode_matches_whole_array_reference(self, n):
        assert (2 * _ROW_BLOCK + 1000) % _ROW_BLOCK < _SCORE_CHUNK
        gen = np.random.default_rng(n)
        cfg = QuantizerConfig(num_layers=3, codebook_size=32, dim=8)
        scales = np.array([1.0, 0.3, 0.1])[:, None, None]
        cb = Codebook(cfg, gen.standard_normal((3, 32, 8)) * scales, (0.0,) * 3)
        data = EmbeddingCollection(tuple(map(str, range(n))), gen.standard_normal((n, 8)))
        sids, sq_norms = encode_all(data.vectors, cb)
        ref_sids, ref_sq_norms = reference_encode_all(data, cb)
        assert sids.tobytes() == ref_sids.tobytes()
        assert sq_norms.tobytes() == ref_sq_norms.tobytes()

    def test_train_matches_whole_array_reference(self):
        n = _ROW_BLOCK + 1000
        gen = np.random.default_rng(4)
        data = EmbeddingCollection(tuple(map(str, range(n))), gen.standard_normal((n, 4)))
        cfg = QuantizerConfig(num_layers=2, codebook_size=8, dim=4, kmeans_iters=3, seed=4)
        cb = train_rq(column_major(data.vectors), cfg, RandomSource(4))
        layers, sse = reference_train_rq(data, cfg, RandomSource(4))
        assert cb.layers.tobytes() == layers.tobytes()
        assert cb.training_sse_per_layer == sse

    def test_train_crosses_two_row_blocks(self):
        # the reference trains on C-order residuals, train_rq on column-major
        n = 2 * _ROW_BLOCK + 1000
        gen = np.random.default_rng(5)
        data = EmbeddingCollection(tuple(map(str, range(n))), gen.standard_normal((n, 6)))
        cfg = QuantizerConfig(num_layers=3, codebook_size=16, dim=6,
                              kmeans_iters=3, seed=5)
        cb = train_rq(column_major(data.vectors), cfg, RandomSource(5))
        layers, sse = reference_train_rq(data, cfg, RandomSource(5))
        assert cb.layers.tobytes() == layers.tobytes()
        assert cb.training_sse_per_layer == sse

    def test_one_layer_slice_encodes_layer_one_alone(self):
        # `analyze --embeddings` encodes its column-major vectors with the
        # first layer only
        gen = np.random.default_rng(6)
        n = _ROW_BLOCK + 2000
        cfg = QuantizerConfig(num_layers=3, codebook_size=32, dim=8)
        cb = Codebook(cfg, gen.standard_normal((3, 32, 8)), (3.0, 2.0, 1.0))
        first = Codebook(QuantizerConfig(num_layers=1, codebook_size=32, dim=8),
                         cb.layers[:1], cb.training_sse_per_layer[:1])
        data = EmbeddingCollection(tuple(map(str, range(n))), gen.standard_normal((n, 8)))
        sids, sq_norms = encode_all(data.vectors, cb)
        sids1, sq_norms1 = encode_all(data.vectors, first)
        assert sids1.tobytes() == np.ascontiguousarray(sids[:, :1]).tobytes()
        assert sq_norms1.tobytes() == np.ascontiguousarray(sq_norms[:, :2]).tobytes()
        sids_f, sq_norms_f = encode_all(column_major(data.vectors), first)
        assert sids_f.tobytes() == sids1.tobytes()
        assert sq_norms_f.tobytes() == sq_norms1.tobytes()


class TestEncodeDecode:
    """encode_all against residuals and reconstructions recomputed here."""

    def test_hand_computed_example(self):
        cb = hand_codebook()
        x = np.array([10.9, 10.1])
        sids, sq_norms = encode_rows([x], cb)
        assert sids.tolist() == [[1, 0]]
        # reconstruction [11, 10] leaves the residual [-0.1, 0.1]
        np.testing.assert_allclose(residual_chain(x, sids[0], cb)[2], [-0.1, 0.1], atol=1e-12)
        assert sq_norms[0, 2] == pytest.approx(0.02, abs=1e-12)

    def test_exact_codeword_zero_residual(self):
        cfg = QuantizerConfig(num_layers=2, codebook_size=2, dim=2)
        layers = np.array(
            [
                [[1.0, 2.0], [5.0, 6.0]],
                [[0.0, 0.0], [3.0, 3.0]],
            ]
        )
        cb = Codebook(cfg, layers, (0.0, 0.0))
        sids, sq_norms = encode_rows([[5.0, 6.0]], cb)
        assert sids.tolist() == [[1, 0]]
        np.testing.assert_array_equal(sq_norms[0, 1:], [0.0, 0.0])

    def test_residual_identity_exact(self):
        gen = np.random.default_rng(3)
        cfg = QuantizerConfig(num_layers=3, codebook_size=5, dim=4)
        cb = Codebook(cfg, gen.standard_normal((3, 5, 4)), (0.0,) * 3)
        points = gen.standard_normal((50, 4)) * 3
        sids, sq_norms = encode_rows(points, cb)
        for x, sid, norms in zip(points, sids, sq_norms):
            chain = np.array(residual_chain(x, sid, cb))
            np.testing.assert_array_equal(norms, np.einsum("ij,ij->i", chain, chain))

    def test_per_layer_choice_matches_exhaustive_scan(self):
        gen = np.random.default_rng(9)
        for _ in range(40):
            L = int(gen.integers(1, 4))
            M = int(gen.integers(1, 5))
            D = int(gen.integers(1, 5))
            cfg = QuantizerConfig(num_layers=L, codebook_size=M, dim=D)
            cb = Codebook(cfg, gen.standard_normal((L, M, D)), (0.0,) * L)
            x = gen.standard_normal(D)
            sids, _ = encode_rows([x], cb)
            chain = residual_chain(x, sids[0], cb)
            for l in range(L):
                scan = [
                    float(((chain[l] - cb.layers[l][m]) ** 2).sum())
                    for m in range(M)
                ]
                assert sids[0, l] == int(np.argmin(scan))

    def test_ties_go_to_the_lowest_index(self):
        # [5, 5] is equally near the first two layer-1 codewords, and its
        # layer-1 residual [5, 5] equally near all three layer-2 codewords
        cfg = QuantizerConfig(num_layers=2, codebook_size=3, dim=2)
        layers = np.array(
            [
                [[0.0, 0.0], [10.0, 10.0], [20.0, 20.0]],
                [[5.0, 6.0], [6.0, 5.0], [4.0, 5.0]],
            ]
        )
        cb = Codebook(cfg, layers, (0.0, 0.0))
        sids, _ = encode_rows([[5.0, 5.0]], cb)
        assert sids.tolist() == [[0, 0]]

    def test_reconstruction_identity(self):
        gen = np.random.default_rng(21)
        cfg = QuantizerConfig(num_layers=3, codebook_size=4, dim=6)
        cb = Codebook(cfg, gen.standard_normal((3, 4, 6)), (0.0,) * 3)
        points = gen.standard_normal((20, 6))
        sids, sq_norms = encode_rows(points, cb)
        for x, sid, norms in zip(points, sids, sq_norms):
            reconstruction = sum(cb.layers[l][t] for l, t in enumerate(sid))
            lhs = float(((x - reconstruction) ** 2).sum())
            assert lhs == pytest.approx(norms[-1], abs=1e-10)

    def test_dim_mismatch(self):
        with pytest.raises(DataError):
            encode_rows(np.zeros((1, 3)), hand_codebook())


class TestTrainRq:
    def test_single_layer_equals_kmeans(self):
        gen = np.random.default_rng(12)
        vectors = gen.standard_normal((60, 3))
        cfg = QuantizerConfig(num_layers=1, codebook_size=4, dim=3, kmeans_iters=30, seed=5, convergence_tol=0.0)
        cb = train_rq(column_major(vectors), cfg, RandomSource(5))
        km = kmeans(vectors, 4, 30, 0.0, RandomSource(5).split(1)[0])
        np.testing.assert_array_equal(cb.layers[0], km.centroids)
        assert cb.training_sse_per_layer[0] == km.sse

    def test_uniform_data_layer1_nearly_balanced(self):
        # max/min occupancy ratio below 3 on uniform input at N=10000, M=16
        from rqsid.datagen import gen_uniform

        data = gen_uniform(10000, 8, RandomSource(31))
        cfg = QuantizerConfig(num_layers=1, codebook_size=16, dim=8, kmeans_iters=40, seed=31, convergence_tol=1e-6)
        cb = train_rq(column_major(data.vectors), cfg, RandomSource(31))
        sids, _ = encode_all(data.vectors, cb)
        counts = np.bincount(sids[:, 0], minlength=16)
        assert counts.min() > 0
        assert counts.max() / counts.min() < 3.0

    def test_training_sse_monotone(self):
        gen = np.random.default_rng(8)
        vectors = gen.standard_normal((400, 6)) * 2
        cfg = QuantizerConfig(num_layers=4, codebook_size=8, dim=6, kmeans_iters=25, seed=2, convergence_tol=1e-4)
        cb = train_rq(column_major(vectors), cfg, RandomSource(2))
        sse = cb.training_sse_per_layer
        assert all(b <= a for a, b in zip(sse, sse[1:]))

    def test_deterministic(self):
        gen = np.random.default_rng(14)
        vectors = gen.standard_normal((200, 5))
        cfg = QuantizerConfig(num_layers=2, codebook_size=6, dim=5, kmeans_iters=20, seed=77, convergence_tol=1e-4)
        cb1 = train_rq(column_major(vectors), cfg, RandomSource(77))
        cb2 = train_rq(column_major(vectors), cfg, RandomSource(77))
        assert cb1.layers.tobytes() == cb2.layers.tobytes()
        assert cb1.training_sse_per_layer == cb2.training_sse_per_layer

    def test_kmeans_reads_column_major_residuals(self, monkeypatch):
        layouts = []

        def spy(points, *args):
            # every layer reads the array it was handed, not a copy
            layouts.append(points is residuals and not points.flags.c_contiguous)
            return kmeans(points, *args)

        monkeypatch.setattr(quantizer, "kmeans", spy)
        cfg = QuantizerConfig(num_layers=2, codebook_size=4, dim=3, kmeans_iters=5)
        residuals = column_major(np.arange(150.0).reshape(50, 3))
        train_rq(residuals, cfg, RandomSource(0))
        assert layouts == [True, True]

    def test_empty_data(self):
        data = EmbeddingCollection((), np.zeros((0, 3)))
        cfg = QuantizerConfig(num_layers=1, codebook_size=2, dim=3)
        with pytest.raises(DataError):
            train_rq(column_major(data.vectors), cfg, RandomSource(0))


class TestReconstructionReport:
    """The mean squared error per layer that `encode` reports from encode_all."""

    def test_every_point_its_own_centroid(self):
        vectors = np.array([[0.0, 0.0], [1.0, 1.0], [4.0, 0.0]])
        data = EmbeddingCollection(("a", "b", "c"), vectors)
        cfg = QuantizerConfig(num_layers=1, codebook_size=3, dim=2, kmeans_iters=20, seed=1, convergence_tol=0.0)
        cb = train_rq(column_major(data.vectors), cfg, RandomSource(1))
        report = encode_all(data.vectors, cb)[1][:, 1:].mean(axis=0)
        assert report[-1] == pytest.approx(0.0, abs=1e-20)

    def test_monotone_non_increasing(self):
        gen = np.random.default_rng(19)
        vectors = gen.standard_normal((500, 8))
        data = EmbeddingCollection(tuple(f"i{i}" for i in range(500)), vectors)
        cfg = QuantizerConfig(num_layers=4, codebook_size=8, dim=8, kmeans_iters=20, seed=3, convergence_tol=1e-4)
        cb = train_rq(column_major(data.vectors), cfg, RandomSource(3))
        report = encode_all(data.vectors, cb)[1][:, 1:].mean(axis=0)
        assert all(b <= a for a, b in zip(report, report[1:]))

    def test_tight_clusters_reach_tiny_error(self):
        from rqsid.datagen import ClusterSpec, gen_clustered

        spec = ClusterSpec(num_clusters=8, radius=1e-4, center_scale=1.0)
        data, _ = gen_clustered(2000, 6, spec, RandomSource(40))
        cfg = QuantizerConfig(num_layers=3, codebook_size=8, dim=6, kmeans_iters=40, seed=40, convergence_tol=0.0)
        cb = train_rq(column_major(data.vectors), cfg, RandomSource(40))
        report = encode_all(data.vectors, cb)[1][:, 1:].mean(axis=0)
        assert report[-1] < 1e-3


class FakeBlas:
    """A BLAS thread count held in Python, recording every set."""

    def __init__(self, threads):
        self.threads = threads
        self.sets = []

    def get(self):
        return self.threads

    def set(self, threads):
        self.sets.append(threads)
        self.threads = threads


@pytest.fixture
def use_workers(monkeypatch):
    """install(count) makes k-means split over `count` workers, from a fresh
    `_Workers` whose lookup finds a fake BLAS reporting `count` threads, or
    no setter at all for count 1. Returns the workers and the fake. Every
    pool started is shut down and its threads joined when the test ends, so
    that no thread of one test is still exiting while the next counts them."""
    made = []

    def install(count):
        fake = FakeBlas(count) if count > 1 else None
        found = fake and quantizer._Blas("fake_set_num_threads", fake.get, fake.set)
        monkeypatch.setattr(quantizer, "_find_blas", lambda: found)
        monkeypatch.setattr(quantizer.os, "sched_getaffinity", lambda pid: set(range(count)))
        workers = quantizer._Workers()
        made.append(workers)
        monkeypatch.setattr(quantizer, "_WORKERS", workers)
        return workers, fake

    yield install
    for workers in made:
        if workers._pool is not None:
            workers._pool.shutdown(wait=True)


def split_and_serial(use_workers, fn, count=2):
    """fn() with one worker and with `count`; both results must be equal."""
    use_workers(1)
    serial = fn()
    workers, _ = use_workers(count)
    split = fn()
    assert workers.count == count
    return serial, split


def assert_same_bytes(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()
        else:
            assert x == y


class TestRanges:
    @pytest.mark.parametrize("total,parts,align", [
        (10, 1, 1), (10, 3, 1), (32, 2, 1), (3, 3, 1), (8193, 2, 1024), (20000, 3, 1024),
    ])
    def test_cover_in_order_and_aligned(self, total, parts, align):
        ranges = quantizer._ranges(total, parts, align)
        assert len(ranges) == parts
        assert ranges[0][0] == 0 and ranges[-1][1] == total
        assert all(lo < hi for lo, hi in ranges)
        assert all(a[1] == b[0] and a[1] % align == 0 for a, b in zip(ranges, ranges[1:]))


@pytest.mark.parametrize("count", [2, 3])
class TestSplitOracle:
    """Every result with the rows or columns split over workers equals, byte
    for byte, the one-worker result."""

    @staticmethod
    def row_counts(count):
        threshold = count * quantizer._SPLIT_MIN_ROWS
        return [threshold - 1, threshold, threshold + 1,
                9 * _SCORE_CHUNK - 1, 9 * _SCORE_CHUNK + 1]

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_nearest(self, use_workers, count, layout):
        gen = np.random.default_rng(count)
        for n in self.row_counts(count):
            d, m = int(gen.integers(2, 40)), int(gen.integers(8, 300))
            points = gen.standard_normal((n, d)) * 10 ** gen.uniform(-3, 3)
            if layout == "F":
                points = column_major(points)
            centroids = gen.standard_normal((m, d)) * np.sqrt((points**2).mean())
            serial, split = split_and_serial(
                use_workers, lambda: _nearest(points, centroids), count)
            assert_same_bytes(serial, split)
            assert_same_bytes(split, reference_nearest(points, centroids))

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_nearest_rescores_most_rows(self, use_workers, count, layout, monkeypatch):
        # near-duplicate centroids leave most rows inside the margin, more
        # than half a chunk, so rescoring takes several passes per chunk
        gen = np.random.default_rng(30 + count)
        points = gen.standard_normal((count * quantizer._SPLIT_MIN_ROWS + 517, 8))
        if layout == "F":
            points = column_major(points)
        centroids = np.repeat(gen.standard_normal((40, 8)), 2, axis=0)
        centroids[1::2] += 1e-9
        rescored = []
        einsum = np.einsum

        def spy(spec, a, *rest, **kw):
            if kw.get("out") is not None and rest and rest[0] is a:
                rescored.append(len(a))
            return einsum(spec, a, *rest, **kw)

        monkeypatch.setattr(quantizer.np, "einsum", spy)
        serial, split = split_and_serial(use_workers, lambda: _nearest(points, centroids), count)
        monkeypatch.undo()
        assert sum(rescored) > len(points)  # both runs together
        assert max(rescored) == _SCORE_CHUNK // 2
        assert_same_bytes(serial, split)
        assert_same_bytes(split, reference_nearest(points, centroids))
        ref = np.argmin(_sq_dists(points, centroids), axis=1)
        assert split[0].tobytes() == ref.tobytes()

    def test_kmeans_both_layouts(self, use_workers, count):
        gen = np.random.default_rng(40 + count)
        points = gen.standard_normal((count * quantizer._SPLIT_MIN_ROWS + 1, 12))
        for layout in (points, column_major(points)):
            serial, split = split_and_serial(
                use_workers, lambda: kmeans(layout, 64, 4, 0.0, RandomSource(count)), count)
            assert_same_bytes(serial, split)

    def test_empty_cluster_reseed(self, use_workers, count, monkeypatch):
        # 20 distinct points for 32 centroids: duplicate seeds leave clusters
        # empty, and they are reseeded
        gen = np.random.default_rng(6)
        repeats = count * quantizer._SPLIT_MIN_ROWS // 20 + 1
        points = np.repeat(gen.integers(-3, 4, size=(20, 4)).astype(float), repeats, axis=0)
        seen = TestLayouts.spy_empty_clusters(monkeypatch)
        serial, split = split_and_serial(
            use_workers, lambda: kmeans(column_major(points), 32, 3, 0.0, RandomSource(7)),
            count)
        assert any(seen)
        assert_same_bytes(serial, split)

    def test_train_and_encode(self, use_workers, count):
        n = 2 * _ROW_BLOCK + 1000
        gen = np.random.default_rng(50 + count)
        data = EmbeddingCollection(tuple(map(str, range(n))), gen.standard_normal((n, 6)))
        cfg = QuantizerConfig(num_layers=2, codebook_size=32, dim=6, kmeans_iters=3, seed=count)

        def train_and_encode():
            cb = train_rq(column_major(data.vectors), cfg, RandomSource(count))
            return (cb.layers, cb.training_sse_per_layer) + encode_all(data.vectors, cb)

        serial, split = split_and_serial(use_workers, train_and_encode, count)
        assert_same_bytes(serial, split)

    def test_cluster_means_columns(self, use_workers, count):
        gen = np.random.default_rng(60 + count)
        n = count * quantizer._SPLIT_MIN_ROWS
        for d in (1, count, 7, 32):
            m = int(gen.integers(1, 300))
            points = gen.standard_normal((n, d))
            labels = 2 * gen.integers(0, (m + 1) // 2, size=n)
            dists = gen.uniform(0.0, 1.0, size=n)
            want = reference_cluster_means(points, labels, m, dists)
            workers, fake = use_workers(count)
            for layout in (points, column_major(points)):
                got = _cluster_means(layout, labels, m, dists)
                assert got.tobytes() == want.tobytes()
            assert fake.sets == ([1, count] * 2 if d > 1 else [])


class TestNearTiesPerRow:
    """A row's label and distance are a function of that row alone. Points
    are midpoints of two centroids, so their nearest two tie up to rounding
    and the float64 products decide; each row scored alone, the rows shifted
    to another chunk offset, and the column-major copy all give the bytes of
    the full block, over one worker and over two."""

    @pytest.mark.parametrize("count", [1, 2])
    def test_row_alone_matches_its_block(self, use_workers, count):
        use_workers(count)

        @settings(max_examples=10, deadline=None)
        @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 16), m=st.integers(2, 64),
               scale=st.sampled_from([1e-3, 1.0, 1e9]), shift=st.integers(1, _SCORE_CHUNK - 1))
        def check(seed, d, m, scale, shift):
            # scale 1e9 passes _MIXED_MAX_SCALE, so every row is scored exactly
            gen = np.random.default_rng(seed)
            centroids = gen.standard_normal((m, d)) * scale
            pair = gen.integers(0, m, size=(2 * quantizer._SPLIT_MIN_ROWS + 300, 2))
            points = (centroids[pair[:, 0]] + centroids[pair[:, 1]]) / 2
            labels, dists = _nearest(points, centroids)
            for layout in (points, column_major(points)):
                assert_same_bytes(_nearest(layout[shift:], centroids),
                                  (labels[shift:], dists[shift:]))
            for i in gen.choice(len(points), 40, replace=False):
                assert_same_bytes(_nearest(points[i : i + 1], centroids),
                                  (labels[i : i + 1], dists[i : i + 1]))

        check()


class TestWorkers:
    def test_blas_held_at_one_and_restored(self, use_workers):
        workers, fake = use_workers(2)
        seen = []
        workers.run([lambda: seen.append(fake.threads)] * 2)
        assert seen == [1, 1]
        assert fake.sets == [1, 2] and fake.threads == 2

    def test_restored_after_a_worker_raises(self, use_workers):
        workers, fake = use_workers(3)
        finished = []

        def slow():
            time.sleep(0.05)
            finished.append(fake.threads)

        def boom():
            raise ValueError("worker failed")

        with pytest.raises(ValueError, match="worker failed"):
            workers.run([boom, slow, slow])
        # every task ran to its end with BLAS at one thread before the restore
        assert finished == [1, 1]
        assert fake.sets == [1, 3] and fake.threads == 3

    def test_real_blas_restored(self):
        blas = quantizer._find_blas()
        if blas is None:
            pytest.skip("no recognised BLAS thread setter in this process")
        assert blas.setter in {s for _, s in quantizer._BLAS_SYMBOLS}
        workers = quantizer._Workers()
        before = blas.get()
        assert workers.info() == {
            "workers": max(1, min(before, len(os.sched_getaffinity(0)))),
            "blas_setter": blas.setter,
        }
        if workers.count == 1:
            pytest.skip("the BLAS thread budget is one")
        seen = []

        def boom():
            seen.append(blas.get())
            raise ValueError("worker failed")

        workers.run([lambda: seen.append(blas.get())] * workers.count)
        with pytest.raises(ValueError):
            workers.run([boom] * workers.count)
        assert seen == [1] * (2 * workers.count)
        assert blas.get() == before

    def test_stress_more_workers_than_cores(self, use_workers):
        # four workers and a short switch interval, so the threads interleave
        # often; a lost or misplaced write would change some byte
        gen = np.random.default_rng(80)
        n = 4 * quantizer._SPLIT_MIN_ROWS + 333
        points = column_major(gen.standard_normal((n, 16)))
        centroids = gen.standard_normal((64, 16))
        labels = gen.integers(0, 64, size=n)
        dists = gen.uniform(size=n)
        use_workers(1)
        want = _nearest(points, centroids), _cluster_means(points, labels, 64, dists)
        workers, _ = use_workers(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                got = _nearest(points, centroids), _cluster_means(points, labels, 64, dists)
                assert_same_bytes(got[0], want[0])
                assert got[1].tobytes() == want[1].tobytes()
        finally:
            sys.setswitchinterval(interval)
        assert workers.count == 4

    def test_no_setter_means_one_worker_and_no_thread(self, use_workers):
        workers, _ = use_workers(1)
        gen = np.random.default_rng(70)
        points = gen.standard_normal((4 * quantizer._SPLIT_MIN_ROWS, 8))
        threads = threading.active_count()
        result = kmeans(points, 32, 2, 0.0, RandomSource(70))
        assert threading.active_count() == threads
        assert workers.info() == {"workers": 1, "blas_setter": None}
        assert workers._pool is None
        _, split = split_and_serial(
            use_workers, lambda: kmeans(points, 32, 2, 0.0, RandomSource(70)))
        assert_same_bytes(result, split)

    def test_import_starts_no_thread_and_opens_no_blas(self):
        code = (
            "import ctypes, json, threading\n"
            "opened = []\n"
            "real = ctypes.CDLL\n"
            "class Spy(real):\n"
            "    def __init__(self, name, *args, **kwargs):\n"
            "        opened.append(str(name))\n"
            "        super().__init__(name, *args, **kwargs)\n"
            "ctypes.CDLL = Spy\n"
            "import rqsid.cli, rqsid.quantizer as q\n"
            "print(json.dumps([threading.active_count(), opened, q._WORKERS._started]))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(quantizer.__file__).parents[1])] + sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        threads, opened, started = json.loads(out.stdout.splitlines()[-1])
        assert threads == 1
        assert not any("blas" in name.lower() for name in opened)
        assert started is False


class TestUnderflow:
    """Near float32 underflow the products err by an absolute amount, which
    the certification margin covers, so those rows are rescored."""

    @pytest.mark.parametrize("scale", [1e-21, 1e-23, 1e-25])
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_tiny_scales_match_float64_argmin(self, scale, layout):
        for seed in range(5):
            gen = np.random.default_rng(seed)
            points = gen.standard_normal((2048, 32)) * scale
            centroids = gen.standard_normal((256, 32)) * scale
            labels, _ = nearest_in_layout(points, centroids, layout)
            ref = np.argmin(_sq_dists(points, centroids), axis=1)
            assert labels.tobytes() == ref.tobytes(), (seed, int((labels != ref).sum()))
